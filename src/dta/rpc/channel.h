// The one interface every what-if call crosses.
//
// The tuner reaches its server through a narrow interface: the what-if
// call, plus creating and importing statistics (§5.3). A channel is that
// interface. CostService prices through one channel, whatever stands
// behind it:
//
//   * InprocChannel — wraps a server::Server* in this process. Submit()
//     prices the call on the thread that launches it and completes before
//     returning. A single-server session prices through one.
//   * SocketChannel (rpc/transport.h) — speaks DTR1 frames to a cost_server
//     worker over a Unix socket. Submit() puts the request on the wire and
//     the channel's reader thread delivers the completion.
//   * ShardRouter (dta/shard_router.h) — a channel over shard channels: it
//     decides routing, failover and health, and its shards only execute.
//   * AdmittedChannel (dta/tenant_driver.h) — holds a tenant's admission
//     across each call to the channel it wraps.
//
// Channels must be deterministic — the same (statement, configuration) call
// returns the same cost wherever it executes, because every server behind
// one holds the tuning server's statistics (MirrorStatistics) — which is
// what keeps recommendations bit-identical across topologies.

#ifndef DTA_DTA_RPC_CHANNEL_H_
#define DTA_DTA_RPC_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "catalog/physical_design.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "optimizer/hardware.h"
#include "server/server.h"
#include "sql/ast.h"
#include "stats/statistics.h"

namespace dta::tuner {

// One logical what-if call as it crosses a channel. In-process channels
// cost `*stmt` directly; a socket transport sends `*text` (the statement's
// original SQL, which the worker parses with the same parser) so the AST
// never needs a wire encoding. All pointers are borrowed and must outlive
// the call.
struct WhatIfCall {
  const sql::Statement* stmt = nullptr;
  // Original SQL text of the statement; null only on internal call sites
  // that are guaranteed to stay in-process (tests driving a router
  // directly). The socket transport keys its connection-local statement
  // ids on it and sends it to a worker once per connection (rpc/wire.h).
  const std::string* text = nullptr;
  // The socket transport names each structure by an id keyed on its
  // stored name, so equal names must mean interchangeable structures.
  const catalog::Configuration* config = nullptr;
  const optimizer::HardwareParams* simulate_hardware = nullptr;
  // Identifies the logical call (hash of statement text + relevant
  // fingerprint, never 0): fault injectors key their deterministic
  // decisions on it and routers hash it for shard placement.
  uint64_t call_key = 0;
};

}  // namespace dta::tuner

namespace dta::rpc {

class ShardChannel {
 public:
  using Done = std::function<void(Result<server::Server::WhatIfResult>)>;

  virtual ~ShardChannel() = default;

  virtual const std::string& name() const = 0;

  // Starts `call` without waiting for its answer. `done` runs exactly once:
  // on the submitting thread (an in-process server, or a request that never
  // reached the wire), possibly before Submit returns, or later on a
  // completion thread. `call` and everything it points to must stay valid
  // until `done` has run. `done` only hands the answer over: it may run
  // under the channel's dispatch, so it must neither block nor submit. Must
  // be safe for concurrent calls.
  virtual void Submit(const tuner::WhatIfCall& call, Done done) = 0;

  // A batch of one: Submit, then wait for the answer.
  Result<server::Server::WhatIfResult> Call(const tuner::WhatIfCall& call);

  // Brings what the channel prices on up to `stat`, a statistic the tuning
  // server holds, so every server prices with identical information (a
  // no-op where it already has it). An error means some server behind the
  // channel could not be brought up.
  virtual Status MirrorStatistics(const stats::Statistics& stat) = 0;
};

inline Result<server::Server::WhatIfResult> ShardChannel::Call(
    const tuner::WhatIfCall& call) {
  struct Answer {
    Mutex mu;
    CondVar cv;
    std::optional<Result<server::Server::WhatIfResult>> result GUARDED_BY(mu);
  };
  Answer answer;
  Submit(call, [&answer](Result<server::Server::WhatIfResult> r) {
    // Notified under the lock: once the caller sees the answer, the
    // completion no longer touches `answer`.
    MutexLock lock(answer.mu);
    answer.result = std::move(r);
    answer.cv.NotifyAll();
  });
  MutexLock lock(answer.mu);
  while (!answer.result.has_value()) answer.cv.Wait(answer.mu);
  return std::move(*answer.result);
}

// Channel over one in-process server.
class InprocChannel : public ShardChannel {
 public:
  explicit InprocChannel(server::Server* server)
      : server_(server), name_(server->name()) {}

  const std::string& name() const override { return name_; }

  void Submit(const tuner::WhatIfCall& call, Done done) override {
    done(server_->WhatIfCost(*call.stmt, *call.config,
                             call.simulate_hardware, call.call_key));
  }

  // A no-op on the tuning server itself, which already holds every
  // statistic it mirrors.
  Status MirrorStatistics(const stats::Statistics& stat) override {
    if (!server_->HasStatistics(stat.key)) server_->ImportStatistics(stat);
    return Status::Ok();
  }

 private:
  server::Server* server_;
  std::string name_;
};

}  // namespace dta::rpc

#endif  // DTA_DTA_RPC_CHANNEL_H_
