// Edge-case tests for the DTR1 frame codec and for how the socket transport
// reacts to a misbehaving peer. The invariant under test everywhere: a
// malformed byte stream produces a clean transport error — which the
// shard router turns into a requeue on another shard — and never a hang.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "dta/rpc/frame.h"
#include "dta/rpc/socket_util.h"
#include "dta/rpc/transport.h"
#include "dta/rpc/wire.h"
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

}  // namespace
}  // namespace dta::rpc
