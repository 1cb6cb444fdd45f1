#include "dta/rpc/transport.h"

#include <utility>

#include "catalog/physical_design.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dta/xml_schema.h"
#include "xmlio/xml.h"

namespace dta::rpc {

namespace {

// Completes the DTR1 handshake synchronously on `fd` (no reader thread is
// running yet): send kHello, read frames until the kHelloAck arrives.
Status Handshake(int fd) {
  HelloMsg hello;
  const std::string bytes =
      EncodeFrame(Frame{FrameType::kHello, 0, EncodeHello(hello)});
  DTA_RETURN_IF_ERROR(SendAll(fd, bytes.data(), bytes.size()));
  FrameDecoder decoder;
  char buffer[4096];
  while (true) {
    Frame frame;
    if (decoder.Next(&frame)) {
      if (frame.type != FrameType::kHelloAck) {
        return Status::FailedPrecondition(
            "worker sent a non-HelloAck frame during handshake");
      }
      DTA_ASSIGN_OR_RETURN(HelloAckMsg ack, DecodeHelloAck(frame.payload));
      if (ack.version != kWireVersion) {
        return Status::FailedPrecondition(
            StrFormat("wire version mismatch: client %u, worker %u",
                      kWireVersion, ack.version));
      }
      return Status::Ok();
    }
    DTA_ASSIGN_OR_RETURN(size_t n, RecvSome(fd, buffer, sizeof(buffer)));
    if (n == 0) {
      return Status::Unavailable("worker closed during handshake");
    }
    DTA_RETURN_IF_ERROR(decoder.Feed(buffer, n));
  }
}

// True while this thread delivers a loss sweep's failures. A delivery can
// launch the next attempt of a call on any channel (the router dispatches
// a credit's next waiter on the thread that returned the credit), and a
// sweeping thread must never wait out a sweep: not its own channel's,
// which could never finish, nor another's, which may be waiting on it.
thread_local bool sweeping = false;

// Maps a decoded what-if response back into the Result the in-process
// backend would have produced.
Result<server::Server::WhatIfResult> ResponseToResult(
    const WhatIfResponseMsg& msg) {
  if (msg.code != StatusCode::kOk) return Status(msg.code, msg.message);
  server::Server::WhatIfResult result;
  result.cost = msg.cost;
  result.simulated_ms = msg.simulated_ms;
  result.missing_stats.insert(msg.missing_stats.begin(),
                              msg.missing_stats.end());
  return result;
}

// Builds the request for `call`: its statement and structures go by their
// ids in `statements`/`structures`, and whatever those maps lack takes the
// next id and travels as text in this request.
WhatIfRequestMsg ToRequest(
    const tuner::WhatIfCall& call,
    std::unordered_map<std::string, uint32_t>* statements,
    std::unordered_map<std::string, uint32_t>* structures) {
  WhatIfRequestMsg msg;
  msg.call_key = call.call_key;
  if (call.simulate_hardware != nullptr) {
    msg.has_hardware = true;
    msg.hardware = *call.simulate_hardware;
  }
  const auto [stmt, new_stmt] =
      statements->try_emplace(*call.text, statements->size());
  msg.statement = stmt->second;
  if (new_stmt) msg.sql = *call.text;

  const catalog::Configuration& config = *call.config;
  catalog::Configuration new_structures;
  auto id_is_new = [&](const std::string& name) {
    const auto [it, added] = structures->try_emplace(name, structures->size());
    msg.structures.push_back(it->second);
    return added;
  };
  // A subset of a valid configuration adds cleanly.
  for (size_t i = 0; i < config.indexes().size(); ++i) {
    if (id_is_new(config.index_names()[i])) {
      DTA_CHECK(new_structures
                    .AddIndex(config.indexes()[i], config.index_names()[i])
                    .ok(),
                "index registration");
    }
  }
  for (size_t i = 0; i < config.views().size(); ++i) {
    if (id_is_new(config.view_names()[i])) {
      DTA_CHECK(new_structures
                    .AddView(config.views()[i], config.view_names()[i])
                    .ok(),
                "view registration");
    }
  }
  for (const auto& [table, scheme] : config.table_partitioning()) {
    if (id_is_new(catalog::TablePartitioningName(table, scheme))) {
      new_structures.SetTablePartitioning(table, scheme);
    }
  }
  if (new_structures.StructureCount() > 0 ||
      !new_structures.table_partitioning().empty()) {
    msg.config_xml = tuner::ConfigurationToXml(new_structures)->ToString();
  }
  return msg;
}

}  // namespace

Result<std::unique_ptr<SocketChannel>> SocketChannel::Connect(
    std::string name, std::string socket_path, SocketChannelOptions options) {
  // make_unique cannot reach the private constructor.  // lint: naked-new
  std::unique_ptr<SocketChannel> channel(new SocketChannel(
      std::move(name), std::move(socket_path), options));
  Status connected;
  {
    MutexLock lock(channel->mu_);
    connected = channel->ConnectLocked(options.connect_deadline_ms);
  }
  if (!connected.ok()) return connected;
  return channel;
}

SocketChannel::SocketChannel(std::string name, std::string socket_path,
                             SocketChannelOptions options)
    : name_(std::move(name)),
      socket_path_(std::move(socket_path)),
      options_(options) {
  if (options_.metrics != nullptr) {
    m_connects_ = options_.metrics->GetCounter("rpc.connects");
    m_losses_ = options_.metrics->GetCounter("rpc.connection_losses");
    m_request_bytes_ = options_.metrics->GetCounter("rpc.request_bytes");
    m_statements_registered_ =
        options_.metrics->GetCounter("rpc.statements_registered");
    m_structures_registered_ =
        options_.metrics->GetCounter("rpc.structures_registered");
  }
}

SocketChannel::~SocketChannel() {
  std::thread reader;
  {
    MutexLock lock(mu_);
    closed_ = true;
    // Wake the reader out of recv(2); its loss sweep fails any pending
    // requests — abandoned (timed-out) attempts can still be on the wire,
    // which is why ShardRouter closes its channels before the rest of its
    // state goes.
    if (fd_.valid()) ShutdownFd(fd_.get());
    reader = std::move(reader_);
  }
  if (reader.joinable()) reader.join();
}

Status SocketChannel::ConnectLocked(double deadline_ms) {
  // Several callers can find the connection dead at once, and every Wait
  // below releases mu_: re-check after each wake, or a caller that slept
  // through another's reconnect would wait on the live connection's reader
  // forever.
  while (!fd_.valid()) {
    if (reader_.joinable()) {
      // The previous reader must finish its loss sweep (which needs mu_)
      // before it can be joined; a sweeping thread fails the probe instead.
      if (!reader_done_) {
        if (sweeping) {
          return Status::Unavailable(
              "previous connection is still failing its requests");
        }
        cv_.Wait(mu_);
        continue;
      }
      reader_.join();
      reader_done_ = false;
    }
    // A send racing with the loss may still hold the dead fd's number;
    // only close it once no send is in flight.
    if (sends_in_flight_ == 0) break;
    cv_.Wait(mu_);
  }
  if (fd_.valid()) return Status::Ok();  // another caller reconnected
  dead_fd_.Close();
  auto fd = ConnectUnix(socket_path_, deadline_ms);
  if (!fd.ok()) return fd.status();
  // The handshake gets the same deadline as the connect: a peer that
  // accepts the connection but never answers (a wedged worker, a backlog
  // entry nobody will service) must fail the probe, not hang the session.
  DTA_RETURN_IF_ERROR(SetRecvTimeout(fd->get(), deadline_ms));
  if (Status hs = Handshake(fd->get()); !hs.ok()) {
    return Status::Unavailable(
        StrFormat("handshake with worker at %s failed: %s",
                  socket_path_.c_str(), hs.message().c_str()));
  }
  DTA_RETURN_IF_ERROR(SetRecvTimeout(fd->get(), 0));
  fd_ = std::move(fd).value();
  ++connects_;
  if (m_connects_ != nullptr) m_connects_->Increment();
  reader_ = std::thread([this, raw = fd_.get()] { ReaderLoop(raw); });
  return Status::Ok();
}

void SocketChannel::HandleConnectionLoss(const Status& cause) {
  std::vector<FrameDone> victims;
  {
    MutexLock lock(mu_);
    if (fd_.valid()) {
      ShutdownFd(fd_.get());
      dead_fd_ = std::move(fd_);
    }
    victims.reserve(pending_.size());
    for (auto& [id, done] : pending_) victims.push_back(std::move(done));
    pending_.clear();
  }
  if (!victims.empty() && m_losses_ != nullptr) m_losses_->Increment();
  const Status error = Status::Unavailable(
      StrFormat("shard %s: connection lost: %s", name_.c_str(),
                cause.message().c_str()));
  const bool outer = sweeping;
  sweeping = true;
  for (auto& done : victims) done(error);
  sweeping = outer;
}

void SocketChannel::ReaderLoop(int fd) {
  FrameDecoder decoder;
  std::vector<char> buffer(64 * 1024);
  Status cause = Status::Unavailable("worker closed the connection");
  while (true) {
    auto n = RecvSome(fd, buffer.data(), buffer.size());
    if (!n.ok()) {
      cause = n.status();
      break;
    }
    if (*n == 0) break;  // orderly EOF
    if (Status fed = decoder.Feed(buffer.data(), *n); !fed.ok()) {
      cause = fed;
      break;
    }
    Frame frame;
    while (decoder.Next(&frame)) {
      FrameDone done;
      {
        MutexLock lock(mu_);
        auto it = pending_.find(frame.request_id);
        if (it == pending_.end()) continue;  // reply already abandoned
        done = std::move(it->second);
        pending_.erase(it);
      }
      done(std::move(frame));
    }
  }
  HandleConnectionLoss(cause);
  MutexLock lock(mu_);
  reader_done_ = true;
  cv_.NotifyAll();
}

void SocketChannel::SendRequest(FrameType type, const Encoder& encode,
                                FrameDone done) {
  uint64_t id = 0;
  Status rejected;
  {
    MutexLock lock(mu_);
    if (closed_) {
      rejected = Status::Unavailable(
          StrFormat("shard %s: channel closed", name_.c_str()));
    } else if (!fd_.valid()) {
      // First traffic since a loss — this submit IS the recovery probe.
      Status reconnect = ConnectLocked(options_.reconnect_deadline_ms);
      if (!reconnect.ok()) {
        rejected = Status::Unavailable(
            StrFormat("shard %s: %s", name_.c_str(),
                      reconnect.message().c_str()));
      }
    }
    if (rejected.ok()) {
      id = next_id_++;
      pending_.emplace(id, std::move(done));
    }
  }
  if (!rejected.ok()) {
    done(rejected);
    return;
  }
  // From here on the pending entry owns completion: the response resolves
  // it, or the reader's loss sweep fails it with Unavailable.
  Status sent;
  bool on_wire = false;
  {
    MutexLock lock(write_mu_);
    int fd = -1;
    size_t connection = 0;
    {
      MutexLock state_lock(mu_);
      if (fd_.valid()) {
        fd = fd_.get();
        connection = connects_;
        ++sends_in_flight_;
      }
    }
    // fd < 0: the loss sweep ran between registration and here and has
    // already failed our pending entry — nothing to send.
    if (fd >= 0) {
      if (registry_.connection != connection) {
        registry_ = Registry{.connection = connection};
      }
      const size_t statements = registry_.statements.size();
      const size_t structures = registry_.structures.size();
      const std::string bytes =
          EncodeFrame(Frame{type, id, encode(&registry_)});
      if (m_request_bytes_ != nullptr) {
        if (type == FrameType::kWhatIfRequest) {
          m_request_bytes_->Increment(bytes.size());
        }
        m_statements_registered_->Increment(registry_.statements.size() -
                                            statements);
        m_structures_registered_->Increment(registry_.structures.size() -
                                            structures);
      }
      on_wire = true;
      sent = SendAll(fd, bytes.data(), bytes.size());
      MutexLock state_lock(mu_);
      --sends_in_flight_;
      cv_.NotifyAll();
    }
  }
  if (on_wire && !sent.ok()) {
    // Write side died; the reader may still be parked in recv. Shut the
    // socket down so it wakes and sweeps (completing our entry too).
    MutexLock lock(mu_);
    if (fd_.valid()) ShutdownFd(fd_.get());
  }
}

void SocketChannel::Submit(const tuner::WhatIfCall& call, Done done) {
  DTA_CHECK(call.text != nullptr,
            "socket transport requires the statement's source text");
  SendRequest(FrameType::kWhatIfRequest,
              [&call](Registry* registry) {
                return EncodeWhatIfRequest(ToRequest(
                    call, &registry->statements, &registry->structures));
              },
              [done = std::move(done)](Result<Frame> frame) {
                if (!frame.ok()) {
                  done(frame.status());
                  return;
                }
                auto response = DecodeWhatIfResponse(frame->payload);
                if (!response.ok()) {
                  done(response.status());
                  return;
                }
                done(ResponseToResult(*response));
              });
}

Result<server::Server::WhatIfResult> SocketChannel::Call(
    const tuner::WhatIfCall& call) {
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
    Result<server::Server::WhatIfResult> result GUARDED_BY(mu) =
        Status::Internal("unset");
  };
  auto waiter = std::make_shared<Waiter>();
  Submit(call, [waiter](Result<server::Server::WhatIfResult> r) {
    MutexLock lock(waiter->mu);
    waiter->result = std::move(r);
    waiter->ready = true;
    waiter->cv.NotifyAll();
  });
  MutexLock lock(waiter->mu);
  while (!waiter->ready) waiter->cv.Wait(waiter->mu);
  return waiter->result;
}

Status SocketChannel::CreateStatistics(const stats::StatsKey& key) {
  CreateStatsMsg msg;
  msg.key = key;
  struct Waiter {
    Mutex mu;
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
    Status status GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>();
  SendRequest(FrameType::kCreateStats,
              [&msg](Registry*) { return EncodeCreateStats(msg); },
              [waiter](Result<Frame> frame) {
                Status status;
                if (!frame.ok()) {
                  status = frame.status();
                } else {
                  auto ack = DecodeCreateStatsAck(frame->payload);
                  if (!ack.ok()) {
                    status = ack.status();
                  } else if (ack->code != StatusCode::kOk) {
                    status = Status(ack->code, ack->message);
                  }
                }
                MutexLock lock(waiter->mu);
                waiter->status = status;
                waiter->ready = true;
                waiter->cv.NotifyAll();
              });
  MutexLock lock(waiter->mu);
  // Completion is guaranteed: either the ack arrives or the loss sweep
  // fails the pending entry — no timeout needed to avoid a hang.
  while (!waiter->ready) waiter->cv.Wait(waiter->mu);
  return waiter->status;
}

Status SocketChannel::MirrorStatistics(const stats::Statistics& stat) {
  constexpr int kAttempts = 3;
  Status s;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    s = CreateStatistics(stat.key);
    if (s.ok()) break;
  }
  return s;
}

void SocketChannel::SendShutdown() {
  const std::string bytes = EncodeFrame(Frame{FrameType::kShutdown, 0, ""});
  MutexLock lock(write_mu_);
  int fd = -1;
  {
    MutexLock state_lock(mu_);
    if (!fd_.valid()) return;
    fd = fd_.get();
    ++sends_in_flight_;
  }
  (void)SendAll(fd, bytes.data(), bytes.size());
  MutexLock state_lock(mu_);
  --sends_in_flight_;
  cv_.NotifyAll();
}

size_t SocketChannel::connects() const {
  MutexLock lock(mu_);
  return connects_;
}

}  // namespace dta::rpc
