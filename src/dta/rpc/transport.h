// Client side of the costing RPC transport: one SocketChannel per shard,
// multiplexing every call for that shard over a single Unix-socket
// connection to a cost_server worker (rpc/worker.h).
//
// Concurrency model: Submit() registers the request id in a pending map and
// writes one frame; a dedicated reader thread decodes response frames and
// resolves the matching pending entry — responses may arrive in any order.
// A connection loss (EOF, recv error, poisoned decoder) fails every pending
// request with Unavailable in one sweep, which the ShardRouter above
// converts into requeues on other shards; nothing ever hangs on a dead
// worker. The next Submit after a loss attempts a fresh connect+handshake
// (bounded by reconnect_deadline_ms), which is exactly the router's probe
// path: a worker that comes back is rediscovered by the first probe routed
// at it.
//
// Ids (rpc/wire.h): the channel remembers which statements and structures
// the current connection's worker has been sent, and a what-if request
// names them by id, carrying text only for what is new. Each frame is
// encoded under `write_mu_` against the connection it goes out on, so a
// registration always reaches the worker ahead of its first use; the first
// frame on a new connection starts an empty registry.
//
// Locking: `mu_` guards connection state and the pending map; `write_mu_`
// serializes frame writes and guards the registry. `write_mu_` is taken
// before `mu_`, never the reverse, and completions are always invoked with
// no channel lock held.

#ifndef DTA_DTA_RPC_TRANSPORT_H_
#define DTA_DTA_RPC_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dta/rpc/channel.h"
#include "dta/rpc/frame.h"
#include "dta/rpc/socket_util.h"
#include "dta/rpc/wire.h"
#include "stats/statistics.h"

namespace dta::rpc {

struct SocketChannelOptions {
  // How long the initial Connect() waits for the worker's socket to appear
  // (a just-spawned worker process needs time to bind), and separately how
  // long its handshake may wait for the HelloAck.
  double connect_deadline_ms = 10000;
  // How long a post-loss reconnect attempt (a router probe at a downed
  // worker) waits. Kept short: a probe is supposed to be cheap.
  double reconnect_deadline_ms = 250;
  // Optional fleet-wide transport counters under "rpc." names. Connection
  // events are scheduling/timing dependent, and so is which request
  // carries a registration, so these never appear in determinism-gated
  // exports.
  MetricsRegistry* metrics = nullptr;
};

class SocketChannel : public ShardChannel {
 public:
  // Connects and completes the DTR1 handshake; fails (rather than
  // half-constructs) when the worker is unreachable or speaks the wrong
  // wire version.
  static Result<std::unique_ptr<SocketChannel>> Connect(
      std::string name, std::string socket_path,
      SocketChannelOptions options);

  ~SocketChannel() override;

  const std::string& name() const override { return name_; }

  void Submit(const tuner::WhatIfCall& call, Done done) override;

  // Synchronous admin RPC: build one statistic on the worker (no-op there
  // if it already exists). Fails with Unavailable when the worker is down.
  Status CreateStatistics(const stats::StatsKey& key);

  // CreateStatistics for `stat`'s key, retried: the channel reconnects on
  // the next request, so a severed connection heals here instead of
  // leaving this worker pricing with less information than the fleet.
  // Statistics builds are deterministic in the data, so the worker-built
  // statistic matches the tuning server's.
  Status MirrorStatistics(const stats::Statistics& stat) override;

  // Best-effort: tells the worker to drain and exit. The worker owns its
  // lifetime; this just delivers the request.
  void SendShutdown() EXCLUDES(mu_, write_mu_);

  // Connections established over this channel's lifetime (1 after a
  // successful Connect; grows as probes revive a lost worker).
  size_t connects() const EXCLUDES(mu_);

 private:
  // Frame-level completion: the response frame, or the transport error
  // that killed the connection while the request was pending.
  using FrameDone = std::function<void(Result<Frame>)>;

  // What one connection's worker has been sent: statement text and
  // structure name (a table partitioning's is its "tp:" name) to id.
  struct Registry {
    size_t connection = 0;  // the connects_ count the ids belong to
    std::unordered_map<std::string, uint32_t> statements;
    std::unordered_map<std::string, uint32_t> structures;
  };
  // Builds a request payload against the registry of the connection it
  // goes out on, registering whatever the payload sends for the first time.
  using Encoder = std::function<std::string(Registry*)>;

  SocketChannel(std::string name, std::string socket_path,
                SocketChannelOptions options);

  // Connects + handshakes + starts the reader thread. Reclaims the previous
  // connection's reader thread and dead fd first (waiting, lock released,
  // for the reader's loss sweep and any in-flight send to finish — closing
  // an fd another thread is still using invites fd-reuse corruption).
  // Returns OK at once if another caller reconnected during those waits.
  Status ConnectLocked(double deadline_ms) REQUIRES(mu_);
  // Reader-thread only: fails every pending request and retires the
  // connection. The fd is shut down but NOT closed (a racing send may still
  // hold its number); it parks in dead_fd_ until ConnectLocked or the
  // destructor can close it safely. Callbacks are invoked with no lock held.
  void HandleConnectionLoss(const Status& cause) EXCLUDES(mu_);
  // Registers a pending entry, encodes the payload and writes the frame.
  // `done` runs exactly once: via the response, via the loss sweep, or
  // directly here when the channel is closed/unreachable (then `encode`
  // never runs).
  void SendRequest(FrameType type, const Encoder& encode, FrameDone done)
      EXCLUDES(mu_, write_mu_);
  void ReaderLoop(int fd) EXCLUDES(mu_);

  std::string name_;
  std::string socket_path_;
  SocketChannelOptions options_;

  // Serializes frame writes on the connection's fd, and the encoding that
  // names the registry's ids with them. Lock order: write_mu_ before mu_
  // (the fd snapshot under the write lock); never the reverse.
  Mutex write_mu_;
  Registry registry_ GUARDED_BY(write_mu_);

  mutable Mutex mu_;
  CondVar cv_;
  OwnedFd fd_ GUARDED_BY(mu_);
  // Previous connection's fd, shut down but unclosed (see above).
  OwnedFd dead_fd_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  // Set by the reader as its final act; ConnectLocked waits on it before
  // joining (joining earlier would deadlock against the loss sweep's mu_).
  bool reader_done_ GUARDED_BY(mu_) = false;
  int sends_in_flight_ GUARDED_BY(mu_) = 0;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, FrameDone> pending_ GUARDED_BY(mu_);
  std::thread reader_ GUARDED_BY(mu_);
  size_t connects_ GUARDED_BY(mu_) = 0;

  Counter* m_connects_ = nullptr;
  Counter* m_losses_ = nullptr;
  Counter* m_request_bytes_ = nullptr;
  Counter* m_statements_registered_ = nullptr;
  Counter* m_structures_registered_ = nullptr;
};

}  // namespace dta::rpc

#endif  // DTA_DTA_RPC_TRANSPORT_H_
