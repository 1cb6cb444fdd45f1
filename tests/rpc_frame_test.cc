// Edge-case tests for the DTR1 frame codec and for how the socket transport
// reacts to a misbehaving peer. The invariant under test everywhere: a
// malformed byte stream produces a clean transport error — which the
// shard router turns into a requeue on another shard — and never a hang;
// a request that breaks the id rules gets an error response of its own.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/strings.h"
#include "dta/rpc/frame.h"
#include "dta/rpc/socket_util.h"
#include "dta/rpc/transport.h"
#include "dta/rpc/wire.h"
#include "dta/rpc/worker.h"
#include "optimizer/hardware.h"
#include "server/server.h"
#include "stats/statistics.h"

namespace dta::rpc {
namespace {

// --------------------------------------------------------------- helpers

std::string FeedAll(FrameDecoder* decoder, const std::string& bytes) {
  auto s = decoder->Feed(bytes.data(), bytes.size());
  return s.ok() ? "" : s.ToString();
}

// Hand-crafts a 20-byte header so tests can lie about every field.
std::string RawHeader(uint32_t magic, uint32_t length, uint32_t type,
                      uint64_t request_id) {
  std::string out(kFrameHeaderBytes, '\0');
  auto put32 = [&out](size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) out[at + i] = char((v >> (8 * i)) & 0xff);
  };
  put32(0, magic);
  put32(4, length);
  put32(8, type);
  put32(12, static_cast<uint32_t>(request_id));
  put32(16, static_cast<uint32_t>(request_id >> 32));
  return out;
}

// ----------------------------------------------------------- happy paths

TEST(FrameCodecTest, RoundTripsEveryKnownType) {
  FrameDecoder decoder;
  std::string stream;
  std::vector<Frame> sent;
  uint64_t id = 100;
  for (uint32_t raw = 1; raw <= 7; ++raw) {
    ASSERT_TRUE(IsKnownFrameType(raw)) << raw;
    Frame f{static_cast<FrameType>(raw), id++,
            StrFormat("payload-%u", raw)};
    stream += EncodeFrame(f);
    sent.push_back(std::move(f));
  }
  EXPECT_FALSE(IsKnownFrameType(0));
  EXPECT_FALSE(IsKnownFrameType(8));

  EXPECT_EQ(FeedAll(&decoder, stream), "");
  for (const Frame& expected : sent) {
    Frame got;
    ASSERT_TRUE(decoder.Next(&got));
    EXPECT_EQ(got.type, expected.type);
    EXPECT_EQ(got.request_id, expected.request_id);
    EXPECT_EQ(got.payload, expected.payload);
  }
  Frame extra;
  EXPECT_FALSE(decoder.Next(&extra));
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodecTest, ZeroLengthPayloadRoundTrips) {
  // Shutdown frames carry no payload; the codec must not wait for bytes
  // that are not coming.
  const Frame f{FrameType::kShutdown, 7, ""};
  const std::string bytes = EncodeFrame(f);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes);

  FrameDecoder decoder;
  EXPECT_EQ(FeedAll(&decoder, bytes), "");
  Frame got;
  ASSERT_TRUE(decoder.Next(&got));
  EXPECT_EQ(got.type, FrameType::kShutdown);
  EXPECT_EQ(got.request_id, 7u);
  EXPECT_TRUE(got.payload.empty());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodecTest, MaxLengthFrameRoundTrips) {
  Frame f{FrameType::kWhatIfResponse, 42,
          std::string(kMaxFramePayload, 'x')};
  FrameDecoder decoder;
  EXPECT_EQ(FeedAll(&decoder, EncodeFrame(f)), "");
  Frame got;
  ASSERT_TRUE(decoder.Next(&got));
  EXPECT_EQ(got.payload.size(), size_t{kMaxFramePayload});
  EXPECT_FALSE(decoder.poisoned());
}

TEST(FrameCodecTest, ByteAtATimeFeedDecodesBothFrames) {
  const std::string stream =
      EncodeFrame({FrameType::kHello, 1, EncodeHello(HelloMsg{})}) +
      EncodeFrame({FrameType::kWhatIfRequest, 2, "q"});
  FrameDecoder decoder;
  std::vector<Frame> got;
  for (char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    Frame f;
    while (decoder.Next(&f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, FrameType::kHello);
  EXPECT_EQ(got[1].type, FrameType::kWhatIfRequest);
  EXPECT_EQ(got[1].payload, "q");
}

TEST(FrameCodecTest, WhatIfRequestIdsRoundTrip) {
  WhatIfRequestMsg msg;
  msg.call_key = 0x0123456789abcdefull;
  msg.has_hardware = true;
  msg.hardware.cpu_count = 8;
  msg.statement = 7;
  msg.sql = "SELECT o_price FROM orders WHERE o_id = 5";
  msg.structures = {3, 0, 0xffffffffu};
  msg.config_xml = "<Configuration/>";
  auto got = DecodeWhatIfRequest(EncodeWhatIfRequest(msg));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->call_key, msg.call_key);
  EXPECT_TRUE(got->has_hardware);
  EXPECT_EQ(got->hardware.cpu_count, 8);
  EXPECT_EQ(got->statement, 7u);
  EXPECT_EQ(got->sql, msg.sql);
  EXPECT_EQ(got->structures, msg.structures);
  EXPECT_EQ(got->config_xml, msg.config_xml);

  // A request that registers nothing carries ids alone.
  WhatIfRequestMsg ids_only;
  ids_only.statement = 2;
  ids_only.structures = {1, 4};
  auto bare = DecodeWhatIfRequest(EncodeWhatIfRequest(ids_only));
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->statement, 2u);
  EXPECT_TRUE(bare->sql.empty());
  EXPECT_EQ(bare->structures, ids_only.structures);
  EXPECT_TRUE(bare->config_xml.empty());
}

TEST(FrameCodecTest, NonFiniteHardwareIsRefused) {
  WhatIfRequestMsg msg;
  msg.has_hardware = true;
  msg.hardware.cpu_row_ms = std::numeric_limits<double>::quiet_NaN();
  auto got = DecodeWhatIfRequest(EncodeWhatIfRequest(msg));
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
      << got.status().ToString();
}

TEST(FrameCodecTest, TruncatedIdListIsRefused) {
  WhatIfRequestMsg msg;
  msg.structures = {1, 2, 3};
  const std::string payload = EncodeWhatIfRequest(msg);
  // call_key, has_hardware, statement and the empty sql precede the
  // list's count.
  const size_t count_at = 8 + 4 + 4 + 4;
  // Cut inside the list: the count promises three ids, two arrive.
  auto cut = DecodeWhatIfRequest(payload.substr(0, count_at + 4 + 8));
  EXPECT_EQ(cut.status().code(), StatusCode::kInvalidArgument)
      << cut.status().ToString();
  // A count no payload could hold is refused before anything is reserved.
  std::string lying = payload;
  lying.replace(count_at, 4, std::string(4, '\xff'));
  auto huge = DecodeWhatIfRequest(lying);
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument)
      << huge.status().ToString();
}

// ---------------------------------------------------------- torn streams

TEST(FrameCodecTest, TruncatedHeaderIsPendingNotPoisoned) {
  // 7 bytes of a valid frame: not decodable yet, but not an error either.
  // The transport distinguishes "waiting" from "torn" via pending_bytes()
  // at EOF.
  const std::string bytes = EncodeFrame({FrameType::kHello, 9, "hi"});
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.data(), 7).ok());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.pending_bytes(), 7u);
}

TEST(FrameCodecTest, TruncatedPayloadIsPendingNotPoisoned) {
  const std::string bytes =
      EncodeFrame({FrameType::kWhatIfResponse, 3, "0123456789"});
  FrameDecoder decoder;
  // Header plus half the payload: a peer died mid-write.
  ASSERT_TRUE(decoder.Feed(bytes.data(), kFrameHeaderBytes + 5).ok());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.pending_bytes(), kFrameHeaderBytes + 5);
}

// -------------------------------------------------------- poisoned streams

TEST(FrameCodecTest, GarbageLengthPrefixPoisonsImmediately) {
  // A length beyond kMaxFramePayload must fail the moment the header is
  // complete — not stall the connection buffering gigabytes.
  const std::string bytes = RawHeader(
      kFrameMagic, kMaxFramePayload + 1,
      static_cast<uint32_t>(FrameType::kHello), 1);
  FrameDecoder decoder;
  auto s = decoder.Feed(bytes.data(), bytes.size());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_TRUE(decoder.poisoned());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  // Poisoning is permanent: later feeds fail with the same error.
  const char more = 'x';
  EXPECT_FALSE(decoder.Feed(&more, 1).ok());
}

TEST(FrameCodecTest, BadMagicPoisons) {
  const std::string bytes = RawHeader(
      0xdeadbeef, 0, static_cast<uint32_t>(FrameType::kHello), 1);
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.error().code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodecTest, UnknownFrameTypePoisons) {
  const std::string bytes = RawHeader(kFrameMagic, 0, 99, 1);
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameCodecTest, GarbageAfterValidFramePoisonsTheWholeStream) {
  // Once a peer emits a malformed header, nothing it said is trusted:
  // even the complete frame ahead of the garbage is withheld, and the
  // transport fails every pending call instead of half-delivering.
  const std::string stream =
      EncodeFrame({FrameType::kHelloAck, 5, EncodeHelloAck(HelloAckMsg{})}) +
      RawHeader(0x00000000, 12, 3, 9);
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(stream.data(), stream.size()).ok());
  Frame f;
  EXPECT_FALSE(decoder.Next(&f));
  EXPECT_TRUE(decoder.poisoned());
}

// ------------------------------------------------------ misbehaving peers
//
// A fake worker that completes the DTR1 handshake and then misbehaves on
// the first real request. Every channel call against it must fail with a
// clean transport error; the test completing at all (under the ctest
// timeout) is the no-hang proof.

enum class PeerBehavior {
  kGarbage,    // answers requests with bytes that are not DTR1
  kTornWrite,  // starts a valid response frame, closes mid-header
  kCloseSilently,  // closes without answering
};

class FakePeer {
 public:
  FakePeer(std::string socket_path, PeerBehavior behavior)
      : socket_path_(std::move(socket_path)), behavior_(behavior) {
    auto fd = ListenUnix(socket_path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    listen_fd_ = std::move(fd).value();
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakePeer() {
    ShutdownFd(listen_fd_.get());
    thread_.join();
    ::unlink(socket_path_.c_str());
  }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) return;
    OwnedFd conn(fd);
    FrameDecoder decoder;
    std::vector<char> buffer(4096);
    while (true) {
      auto n = RecvSome(conn.get(), buffer.data(), buffer.size());
      if (!n.ok() || *n == 0) return;
      if (!decoder.Feed(buffer.data(), *n).ok()) return;
      Frame frame;
      while (decoder.Next(&frame)) {
        if (frame.type == FrameType::kHello) {
          const std::string ack = EncodeFrame(
              {FrameType::kHelloAck, frame.request_id,
               EncodeHelloAck(HelloAckMsg{})});
          EXPECT_TRUE(SendAll(conn.get(), ack.data(), ack.size()).ok());
          continue;
        }
        switch (behavior_) {
          case PeerBehavior::kGarbage: {
            // 64 bytes that are not DTR1 (magic would read 0x21212121).
            const std::string junk(64, '!');
            (void)SendAll(conn.get(), junk.data(), junk.size());
            return;  // and drop the connection
          }
          case PeerBehavior::kTornWrite: {
            const std::string bytes = EncodeFrame(
                {FrameType::kCreateStatsAck, frame.request_id,
                 EncodeCreateStatsAck(CreateStatsAckMsg{})});
            (void)SendAll(conn.get(), bytes.data(), 10);
            return;  // close with a partial frame on the wire
          }
          case PeerBehavior::kCloseSilently:
            return;
        }
      }
    }
  }

  std::string socket_path_;
  PeerBehavior behavior_;
  OwnedFd listen_fd_;
  std::thread thread_;
};

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return StrFormat("/tmp/dta_rpcft_%d_%d.sock",
                   static_cast<int>(::getpid()),
                   counter.fetch_add(1));
}

stats::StatsKey AnyKey() {
  return stats::StatsKey("shop", "orders", {"o_cust"});
}

Result<std::unique_ptr<SocketChannel>> ConnectTo(const std::string& path) {
  SocketChannelOptions options;
  options.connect_deadline_ms = 5000;
  return SocketChannel::Connect("peer", path, options);
}

TEST(MisbehavingPeerTest, GarbageResponseFailsTheCallCleanly) {
  const std::string path = UniqueSocketPath();
  FakePeer peer(path, PeerBehavior::kGarbage);
  auto channel = ConnectTo(path);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  Status s = (*channel)->CreateStatistics(AnyKey());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
}

TEST(MisbehavingPeerTest, TornWriteMidFrameFailsTheCallCleanly) {
  const std::string path = UniqueSocketPath();
  FakePeer peer(path, PeerBehavior::kTornWrite);
  auto channel = ConnectTo(path);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  Status s = (*channel)->CreateStatistics(AnyKey());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
}

TEST(MisbehavingPeerTest, SilentCloseFailsEveryPendingCall) {
  const std::string path = UniqueSocketPath();
  FakePeer peer(path, PeerBehavior::kCloseSilently);
  auto channel = ConnectTo(path);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  Status s = (*channel)->CreateStatistics(AnyKey());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  // The channel stays usable for probes: the next call attempts a
  // reconnect and reports the worker (now gone for good) unavailable
  // instead of crashing or hanging.
  Status again = (*channel)->CreateStatistics(AnyKey());
  EXPECT_FALSE(again.ok());
}

TEST(MisbehavingPeerTest, ConnectToMissingWorkerFailsWithinDeadline) {
  SocketChannelOptions options;
  options.connect_deadline_ms = 50;
  auto channel =
      SocketChannel::Connect("ghost", UniqueSocketPath(), options);
  ASSERT_FALSE(channel.ok());
  EXPECT_EQ(channel.status().code(), StatusCode::kUnavailable)
      << channel.status().ToString();
}

// ----------------------------------------------------- misbehaving clients
//
// A raw client that breaks the id rules SocketChannel keeps (rpc/wire.h)
// against a live CostWorker. Each broken request gets an InvalidArgument
// response of its own, and the worker goes on serving the connection.

std::unique_ptr<server::Server> MakeShop() {
  auto server = std::make_unique<server::Server>(
      "shop-worker", optimizer::HardwareParams());
  catalog::TableSchema orders("orders",
                              {{"o_id", catalog::ColumnType::kInt, 8},
                               {"o_cust", catalog::ColumnType::kInt, 8},
                               {"o_price", catalog::ColumnType::kDouble, 8}});
  orders.set_row_count(30000);
  orders.SetPrimaryKey({"o_id"});
  catalog::Database db("shop");
  EXPECT_TRUE(db.AddTable(orders).ok());
  EXPECT_TRUE(server->AttachDatabase(std::move(db)).ok());
  return server;
}

struct LiveWorker {
  LiveWorker()
      : server(MakeShop()),
        worker(server.get(), CostWorkerOptions{.threads = 2}),
        path(UniqueSocketPath()) {
    EXPECT_TRUE(worker.Listen(path).ok());
  }
  ~LiveWorker() {
    worker.Shutdown();
    ::unlink(path.c_str());
  }

  std::unique_ptr<server::Server> server;
  CostWorker worker;
  std::string path;
};

// Sends what-if requests exactly as given, one at a time.
class RawClient {
 public:
  explicit RawClient(const std::string& path) {
    auto fd = ConnectUnix(path, 5000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    if (!fd.ok()) return;
    fd_ = std::move(fd).value();
    EXPECT_TRUE(SetRecvTimeout(fd_.get(), 5000).ok());
    Send(FrameType::kHello, EncodeHello(HelloMsg{}));
    EXPECT_EQ(Receive().type, FrameType::kHelloAck);
  }

  WhatIfResponseMsg Call(const WhatIfRequestMsg& msg) {
    Send(FrameType::kWhatIfRequest, EncodeWhatIfRequest(msg));
    const Frame frame = Receive();
    EXPECT_EQ(frame.type, FrameType::kWhatIfResponse);
    auto response = DecodeWhatIfResponse(frame.payload);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return WhatIfResponseMsg{.code = StatusCode::kInternal};
    return std::move(response).value();
  }

 private:
  void Send(FrameType type, std::string payload) {
    const std::string bytes =
        EncodeFrame(Frame{type, next_request_++, std::move(payload)});
    EXPECT_TRUE(SendAll(fd_.get(), bytes.data(), bytes.size()).ok());
  }

  Frame Receive() {
    Frame frame;
    char buffer[4096];
    while (!decoder_.Next(&frame)) {
      auto n = RecvSome(fd_.get(), buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) {
        ADD_FAILURE() << "worker closed the connection";
        return frame;
      }
      EXPECT_TRUE(decoder_.Feed(buffer, *n).ok());
    }
    return frame;
  }

  OwnedFd fd_;
  FrameDecoder decoder_;
  uint64_t next_request_ = 1;
};

constexpr char kSql[] = "SELECT o_price FROM orders WHERE o_cust = 5";

// A registration of one index on orders(`column`).
std::string IndexXml(const char* column) {
  return StrFormat(
      "<Configuration><Index Table=\"orders\"><KeyColumn>%s</KeyColumn>"
      "</Index></Configuration>",
      column);
}

WhatIfRequestMsg Request(uint32_t statement, std::string sql,
                         std::vector<uint32_t> structures = {},
                         std::string config_xml = "") {
  WhatIfRequestMsg msg;
  msg.call_key = 1;
  msg.statement = statement;
  msg.sql = std::move(sql);
  msg.structures = std::move(structures);
  msg.config_xml = std::move(config_xml);
  return msg;
}

void ExpectRefused(const WhatIfResponseMsg& response,
                   const std::string& says) {
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument) << response.message;
  EXPECT_NE(response.message.find(says), std::string::npos)
      << response.message;
}

void ExpectPriced(const WhatIfResponseMsg& response) {
  EXPECT_EQ(response.code, StatusCode::kOk) << response.message;
  EXPECT_GT(response.cost, 0);
}

void ExpectSameError(const WhatIfResponseMsg& got,
                     const WhatIfResponseMsg& want) {
  EXPECT_NE(want.code, StatusCode::kOk);
  EXPECT_EQ(got.code, want.code) << got.message;
  EXPECT_EQ(got.message, want.message);
}

TEST(MisbehavingPeerTest, UnregisteredStatementIdIsRefused) {
  LiveWorker live;
  RawClient client(live.path);
  ExpectRefused(client.Call(Request(0, "")),
                "statement id 0 is not registered");
  ExpectPriced(client.Call(Request(0, kSql)));
  ExpectPriced(client.Call(Request(0, "")));
}

TEST(MisbehavingPeerTest, UnregisteredStructureIdIsRefused) {
  LiveWorker live;
  RawClient client(live.path);
  ExpectRefused(client.Call(Request(0, kSql, {0})),
                "structure id 0 is not registered");
  // The statement registered all the same.
  ExpectPriced(client.Call(Request(0, "", {0}, IndexXml("o_cust"))));
  ExpectRefused(client.Call(Request(0, "", {0, 5})),
                "structure id 5 is not registered");
  ExpectPriced(client.Call(Request(0, "", {0})));
}

TEST(MisbehavingPeerTest, OutOfSequenceRegistrationIsRefused) {
  LiveWorker live;
  RawClient client(live.path);
  ExpectRefused(client.Call(Request(3, kSql)),
                "statement id 3 registered out of sequence");
  ExpectPriced(client.Call(Request(0, kSql)));
  ExpectRefused(client.Call(Request(0, "", {2}, IndexXml("o_cust"))),
                "structure id 2 registered out of sequence");
  ExpectPriced(client.Call(Request(0, "", {0}, IndexXml("o_cust"))));
}

TEST(MisbehavingPeerTest, IdsFromAPreviousConnectionAreRefused) {
  LiveWorker live;
  {
    RawClient first(live.path);
    ExpectPriced(first.Call(Request(0, kSql, {0}, IndexXml("o_cust"))));
  }
  RawClient second(live.path);
  ExpectRefused(second.Call(Request(0, "")),
                "statement id 0 is not registered");
  ExpectRefused(second.Call(Request(0, kSql, {0})),
                "structure id 0 is not registered");
  ExpectPriced(second.Call(Request(0, "", {0}, IndexXml("o_cust"))));
}

// A registration the worker cannot read binds exactly the ids it defines
// to its error: every later call naming them fails the same way, and the
// next ids register cleanly.
TEST(MisbehavingPeerTest, UnreadableRegistrationPoisonsExactlyItsIds) {
  LiveWorker live;
  RawClient client(live.path);
  const WhatIfResponseMsg bad_sql = client.Call(Request(0, "SELEKT o_price"));
  ExpectSameError(client.Call(Request(0, "")), bad_sql);
  ExpectPriced(client.Call(Request(1, kSql)));

  // An index without key columns.
  const WhatIfResponseMsg bad_index = client.Call(Request(
      1, "", {0}, "<Configuration><Index Table=\"orders\"/></Configuration>"));
  ExpectSameError(client.Call(Request(1, "", {0})), bad_index);
  ExpectPriced(client.Call(Request(1, "", {1}, IndexXml("o_cust"))));
  ExpectSameError(client.Call(Request(1, "", {1, 0})), bad_index);
  ExpectPriced(client.Call(Request(1, "", {1})));
  ExpectSameError(client.Call(Request(0, "", {1})), bad_sql);
}

}  // namespace
}  // namespace dta::rpc
