// The server side of the costing RPC transport: serves one Server's what-if
// interface over a Unix socket speaking DTR1 frames.
//
// CostWorker is embeddable — the cost_server executable wraps one around a
// metadata-built server, and tests/benches run workers in-process against
// cloned warm servers, so transport behavior is exercised without process
// spawning. One connection is served at a time (the router multiplexes all
// of a shard's traffic over a single connection); when a client disconnects
// the worker loops back to accept, so a restarted tuning run can reconnect.
//
// What-if frames are dispatched to an internal thread pool (the client
// pipelines up to its per-shard window on one connection; serving serially
// would collapse that window to one). Responses carry the request id, so
// out-of-order completion is fine. Before a frame goes to the pool, the
// serve thread applies the statement and structures it registers (ids,
// rpc/wire.h) to the connection's registry, in frame order, and resolves
// its ids into a parsed statement and a Configuration; the registry lives
// and dies with the connection. CreateStats frames are a write barrier:
// the handler waits for in-flight what-ifs to drain before touching the
// statistics store, mirroring the phase structure the in-process pipeline
// relies on.

#ifndef DTA_DTA_RPC_WORKER_H_
#define DTA_DTA_RPC_WORKER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "dta/rpc/frame.h"
#include "dta/rpc/socket_util.h"
#include "dta/rpc/wire.h"
#include "server/server.h"

namespace dta::rpc {

struct CostWorkerOptions {
  // Concurrent what-if executions (the service window this worker offers).
  int threads = 4;
  // Chaos hook for transport tests: after sending this many what-if
  // responses the worker abruptly severs the active connection without
  // responding further — a deterministic stand-in for kill -9 mid-stream.
  // 0 disables.
  size_t sever_after_calls = 0;
};

class CostWorker {
 public:
  CostWorker(server::Server* server, CostWorkerOptions options);
  ~CostWorker();

  CostWorker(const CostWorker&) = delete;
  CostWorker& operator=(const CostWorker&) = delete;

  // Binds `socket_path` and starts the accept/serve thread.
  Status Listen(const std::string& socket_path);

  // Blocks until a client's kShutdown frame arrives (or Shutdown() is
  // called from another thread). The cost_server main sits here.
  void WaitForShutdown() EXCLUDES(mu_);

  // Stops serving: wakes the serve thread, closes sockets, joins.
  // Idempotent; also called by the destructor.
  void Shutdown() EXCLUDES(mu_);

  const std::string& socket_path() const { return socket_path_; }
  server::Server* server() const { return server_; }

  // What-if responses sent (successful or failed pricings both count).
  size_t whatif_frames_served() const {
    return whatif_served_.load(std::memory_order_relaxed);
  }

 private:
  void ServeLoop() EXCLUDES(mu_);
  // Serves one connection until EOF, error, shutdown, or chaos severing.
  // Returns true when the worker should keep accepting.
  bool ServeConnection(int fd) EXCLUDES(mu_);
  // Pool-thread tail of a what-if frame: sends the response, counts it,
  // and severs the connection when the chaos hook says so.
  void RespondWhatIf(int fd, uint64_t request_id,
                     const WhatIfResponseMsg& response)
      EXCLUDES(mu_, write_mu_);
  void SendFrame(int fd, const Frame& frame) EXCLUDES(write_mu_);

  server::Server* server_;
  CostWorkerOptions options_;
  std::string socket_path_;
  OwnedFd listen_fd_;
  ThreadPool pool_;
  std::thread serve_thread_;

  // Connection write lock: pool threads and the read loop interleave
  // response frames on one fd; each frame is sent atomically under it. It
  // guards the fd's write stream, not a member, so there is nothing to
  // GUARDED_BY.
  Mutex write_mu_;  // lint: unguarded-mutex, audit-guarded

  mutable Mutex mu_;
  CondVar cv_;
  bool shutdown_ GUARDED_BY(mu_) = false;
  // In-flight what-if executions on the pool; CreateStats barriers on 0.
  int inflight_ GUARDED_BY(mu_) = 0;
  // Active connection fd, for severing from another thread (-1 when none).
  int conn_fd_ GUARDED_BY(mu_) = -1;

  std::atomic<size_t> whatif_served_{0};
};

}  // namespace dta::rpc

#endif  // DTA_DTA_RPC_WORKER_H_
