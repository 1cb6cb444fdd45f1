#include "dta/rpc/worker.h"

#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/physical_design.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dta/xml_schema.h"
#include "sql/parser.h"
#include "xmlio/xml.h"

namespace dta::rpc {

namespace {

// A registered structure, ready to add to a configuration: an index or a
// view under its stored name, or else a table partitioning.
struct Structure {
  std::optional<catalog::IndexDef> index;
  std::optional<catalog::ViewDef> view;
  std::string name;
  std::string table;
  catalog::PartitionScheme scheme;

  Status AddTo(catalog::Configuration* config) const {
    if (index.has_value()) return config->AddIndex(*index, name);
    if (view.has_value()) return config->AddView(*view, name);
    config->SetTablePartitioning(table, scheme);
    return Status::Ok();
  }
};

// The structures a registration's <Configuration> defines, in document
// order: indexes, then views, then table partitionings.
Result<std::vector<Structure>> ParseStructures(const std::string& xml_text) {
  DTA_ASSIGN_OR_RETURN(xml::ElementPtr root, xml::Parse(xml_text));
  DTA_ASSIGN_OR_RETURN(catalog::Configuration config,
                       tuner::ConfigurationFromXml(*root));
  std::vector<Structure> out;
  for (size_t i = 0; i < config.indexes().size(); ++i) {
    out.push_back({.index = config.indexes()[i],
                   .name = config.index_names()[i]});
  }
  for (size_t i = 0; i < config.views().size(); ++i) {
    out.push_back({.view = config.views()[i], .name = config.view_names()[i]});
  }
  for (const auto& [table, scheme] : config.table_partitioning()) {
    out.push_back({.table = table, .scheme = scheme});
  }
  return out;
}

// A what-if request with its ids resolved, ready to price.
struct Pricing {
  uint64_t call_key = 0;
  std::shared_ptr<const sql::Statement> stmt;
  catalog::Configuration config;
  std::optional<optimizer::HardwareParams> hardware;
};

// What one connection's client has registered, by id. A registration the
// worker cannot read binds its ids to the error, so every call naming them
// fails the way every call carrying that text would.
class Registrations {
 public:
  // Applies `msg`'s registrations, then resolves its ids. Both
  // registrations apply even when the other is refused: the client counts
  // everything it sent as registered.
  Result<Pricing> Resolve(const WhatIfRequestMsg& msg) {
    const Status statement = RegisterStatement(msg);
    const Status structures = RegisterStructures(msg);
    DTA_RETURN_IF_ERROR(statement);
    DTA_RETURN_IF_ERROR(structures);
    if (msg.statement >= statements_.size()) {
      return Status::InvalidArgument(StrFormat(
          "statement id %u is not registered on this connection",
          msg.statement));
    }
    const auto& stmt = statements_[msg.statement];
    if (!stmt.ok()) return stmt.status();
    Pricing pricing;
    pricing.call_key = msg.call_key;
    pricing.stmt = *stmt;
    if (msg.has_hardware) pricing.hardware = msg.hardware;
    for (uint32_t id : msg.structures) {
      if (id >= structures_.size()) {
        return Status::InvalidArgument(StrFormat(
            "structure id %u is not registered on this connection", id));
      }
      const Result<Structure>& structure = structures_[id];
      if (!structure.ok()) return structure.status();
      DTA_RETURN_IF_ERROR(structure->AddTo(&pricing.config));
    }
    return pricing;
  }

 private:
  Status RegisterStatement(const WhatIfRequestMsg& msg) {
    if (msg.sql.empty()) return Status::Ok();
    if (msg.statement != statements_.size()) {
      return OutOfSequence("statement", msg.statement, statements_.size());
    }
    auto stmt = sql::ParseStatement(msg.sql);
    if (!stmt.ok()) {
      statements_.emplace_back(stmt.status());
    } else {
      statements_.emplace_back(
          std::make_shared<const sql::Statement>(std::move(stmt).value()));
    }
    return Status::Ok();
  }

  Status RegisterStructures(const WhatIfRequestMsg& msg) {
    if (msg.config_xml.empty()) return Status::Ok();
    // The ids registered here are those past the registry's end; they
    // must count up from it in order of first appearance.
    const size_t first = structures_.size();
    size_t next = first;
    for (uint32_t id : msg.structures) {
      if (id < first) continue;
      if (id != next) return OutOfSequence("structure", id, next);
      ++next;
    }
    auto parsed = ParseStructures(msg.config_xml);
    if (parsed.ok() && parsed->size() != next - first) {
      parsed = Status::InvalidArgument(StrFormat(
          "registration defines %zu structure(s) for %zu new id(s)",
          parsed->size(), next - first));
    }
    for (size_t i = 0; i < next - first; ++i) {
      if (parsed.ok()) {
        structures_.emplace_back(std::move((*parsed)[i]));
      } else {
        structures_.emplace_back(parsed.status());
      }
    }
    return parsed.ok() ? Status::Ok() : parsed.status();
  }

  static Status OutOfSequence(const char* kind, uint32_t id, size_t next) {
    return Status::InvalidArgument(
        StrFormat("%s id %u registered out of sequence: the next id is %zu",
                  kind, id, next));
  }

  std::vector<Result<std::shared_ptr<const sql::Statement>>> statements_;
  std::vector<Result<Structure>> structures_;
};

WhatIfResponseMsg Price(server::Server* server,
                        const Result<Pricing>& pricing) {
  const Result<server::Server::WhatIfResult> r =
      pricing.ok()
          ? server->WhatIfCost(
                *pricing->stmt, pricing->config,
                pricing->hardware.has_value() ? &*pricing->hardware : nullptr,
                pricing->call_key)
          : pricing.status();
  WhatIfResponseMsg response;
  if (!r.ok()) {
    response.code = r.status().code();
    response.message = r.status().message();
    return response;
  }
  response.cost = r->cost;
  response.simulated_ms = r->simulated_ms;
  response.missing_stats.assign(r->missing_stats.begin(),
                                r->missing_stats.end());
  return response;
}

}  // namespace

CostWorker::CostWorker(server::Server* server, CostWorkerOptions options)
    : server_(server),
      options_(options),
      pool_(std::max(1, options.threads)) {}

CostWorker::~CostWorker() { Shutdown(); }

Status CostWorker::Listen(const std::string& socket_path) {
  DTA_CHECK(!serve_thread_.joinable(), "CostWorker::Listen called twice");
  auto fd = ListenUnix(socket_path);
  if (!fd.ok()) return fd.status();
  socket_path_ = socket_path;
  listen_fd_ = std::move(fd).value();
  serve_thread_ = std::thread([this] { ServeLoop(); });
  return Status::Ok();
}

void CostWorker::WaitForShutdown() {
  MutexLock lock(mu_);
  while (!shutdown_) cv_.Wait(mu_);
}

void CostWorker::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_ && !serve_thread_.joinable()) return;
    shutdown_ = true;
    cv_.NotifyAll();
    // Unblock the serve thread wherever it sleeps: accept(2) on the listen
    // socket or recv(2) on the live connection.
    ShutdownFd(listen_fd_.get());
    ShutdownFd(conn_fd_);
  }
  if (serve_thread_.joinable()) serve_thread_.join();
}

void CostWorker::ServeLoop() {
  while (true) {
    {
      MutexLock lock(mu_);
      if (shutdown_) return;
    }
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      MutexLock lock(mu_);
      // accept fails for good once Shutdown() tears the listen socket
      // down; anything else (EINTR, a client that vanished mid-handshake)
      // is worth another accept.
      if (shutdown_) return;
      continue;
    }
    OwnedFd conn(fd);
    {
      MutexLock lock(mu_);
      conn_fd_ = conn.get();
    }
    const bool keep_going = ServeConnection(conn.get());
    // Drain pool tasks that still hold this fd before closing it.
    {
      MutexLock lock(mu_);
      while (inflight_ > 0) cv_.Wait(mu_);
      conn_fd_ = -1;
    }
    if (!keep_going) {
      MutexLock lock(mu_);
      shutdown_ = true;
      cv_.NotifyAll();
      return;
    }
  }
}

bool CostWorker::ServeConnection(int fd) {
  Registrations registrations;
  FrameDecoder decoder;
  std::vector<char> buffer(64 * 1024);
  while (true) {
    auto n = RecvSome(fd, buffer.data(), buffer.size());
    if (!n.ok() || *n == 0) return true;  // client gone; accept the next one
    if (!decoder.Feed(buffer.data(), *n).ok()) {
      // A peer not speaking DTR1 poisons its connection, never the worker.
      return true;
    }
    Frame frame;
    while (decoder.Next(&frame)) {
      switch (frame.type) {
        case FrameType::kHello: {
          HelloAckMsg ack;
          ack.worker_name = server_->name();
          SendFrame(fd, Frame{FrameType::kHelloAck, frame.request_id,
                              EncodeHelloAck(ack)});
          break;
        }
        case FrameType::kWhatIfRequest: {
          auto msg = DecodeWhatIfRequest(frame.payload);
          Result<Pricing> pricing =
              msg.ok() ? registrations.Resolve(*msg) : msg.status();
          {
            MutexLock lock(mu_);
            ++inflight_;
          }
          pool_.Submit([this, fd, request_id = frame.request_id,
                        pricing = std::move(pricing)] {
            RespondWhatIf(fd, request_id, Price(server_, pricing));
          });
          break;
        }
        case FrameType::kCreateStats: {
          // Statistics mutate state every what-if call reads: barrier on
          // the in-flight executions before touching the store.
          {
            MutexLock lock(mu_);
            while (inflight_ > 0) cv_.Wait(mu_);
          }
          CreateStatsAckMsg ack;
          auto msg = DecodeCreateStats(frame.payload);
          if (!msg.ok()) {
            ack.code = msg.status().code();
            ack.message = msg.status().message();
          } else if (!server_->HasStatistics(msg->key)) {
            auto duration = server_->CreateStatistics(msg->key);
            if (!duration.ok()) {
              ack.code = duration.status().code();
              ack.message = duration.status().message();
            }
          }
          SendFrame(fd, Frame{FrameType::kCreateStatsAck, frame.request_id,
                              EncodeCreateStatsAck(ack)});
          break;
        }
        case FrameType::kShutdown:
          return false;
        default:
          // A conforming client never sends response-typed frames; drop
          // the connection rather than guess.
          return true;
      }
    }
  }
}

void CostWorker::RespondWhatIf(int fd, uint64_t request_id,
                               const WhatIfResponseMsg& response) {
  SendFrame(fd, Frame{FrameType::kWhatIfResponse, request_id,
                      EncodeWhatIfResponse(response)});
  const size_t served =
      whatif_served_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.sever_after_calls > 0 &&
      served == options_.sever_after_calls) {
    // Chaos: die mid-stream. The client sees the connection drop with
    // its remaining in-flight calls unanswered and must requeue them.
    ShutdownFd(fd);
  }
  MutexLock lock(mu_);
  --inflight_;
  cv_.NotifyAll();
}

void CostWorker::SendFrame(int fd, const Frame& frame) {
  const std::string bytes = EncodeFrame(frame);
  MutexLock lock(write_mu_);
  // A send failure means the client is gone; the read loop will observe
  // the same condition and drop the connection.
  (void)SendAll(fd, bytes.data(), bytes.size());
}

}  // namespace dta::rpc
