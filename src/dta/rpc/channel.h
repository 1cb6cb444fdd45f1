// The per-shard execution channel behind ShardRouter.
//
// A channel answers one shard's what-if calls through Submit(). Every fleet,
// whatever its transport, is dispatched by ShardRouter (dta/shard_router.h);
// channels differ only in where the pricing runs:
//
//   * InprocChannel — wraps a server::Server* in this process. Submit()
//     prices the call on the thread that launches it and completes before
//     returning.
//   * SocketChannel (rpc/transport.h) — speaks DTR1 frames to a cost_server
//     worker over a Unix socket. Submit() puts the request on the wire and
//     the channel's reader thread delivers the completion.
//
// Channels never decide routing or health — that stays in ShardRouter — they
// only execute, and keep their shard's statistics in step with the tuning
// server's.

#ifndef DTA_DTA_RPC_CHANNEL_H_
#define DTA_DTA_RPC_CHANNEL_H_

#include <functional>
#include <string>
#include <utility>

#include "common/status.h"
#include "dta/cost_service.h"
#include "server/server.h"
#include "stats/statistics.h"

namespace dta::rpc {

class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  virtual const std::string& name() const = 0;

  // Prices `call`. `done` is invoked exactly once: on the submitting
  // thread (an in-process shard, or a request that never reached the wire)
  // or on the channel's completion thread, possibly before Submit returns.
  // The borrowed pointers inside `call` must stay valid until Submit
  // returns.
  using Done = std::function<void(Result<server::Server::WhatIfResult>)>;
  virtual void Submit(const tuner::WhatIfCall& call, Done done) = 0;

  // Brings the shard up to `stat`, a statistic the tuning server holds, so
  // every shard prices with identical information (a no-op where the shard
  // already has it). An error means the shard could not be brought up.
  virtual Status MirrorStatistics(const stats::Statistics& stat) = 0;
};

// Channel over an in-process server replica.
class InprocChannel : public ShardChannel {
 public:
  explicit InprocChannel(server::Server* server)
      : server_(server), name_(server->name()) {}

  const std::string& name() const override { return name_; }

  void Submit(const tuner::WhatIfCall& call, Done done) override {
    done(server_->WhatIfCost(*call.stmt, *call.config,
                             call.simulate_hardware, call.call_key));
  }

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
