// Sharded what-if costing backend (distributed costing).
//
// The paper (§6) runs tuning against a *test server* so the what-if load
// never hits production; this router scales that mode out: what-if calls
// fan across N server instances — the tuning server plus N - 1 deep
// replicas (Server::Clone) — while the layers above (CostService caching,
// in-flight dedup, retry/degradation) stay unchanged behind the CostBackend
// seam.
//
// Routing: rendezvous (highest-random-weight) hashing on the logical call
// key. Every shard scores each key with a pure hash; a call routes to its
// highest-scoring live shard. Scores are independent of the shard count, so
// routing is deterministic across runs and thread counts, and losing one
// shard re-homes only the keys that shard owned — no global reshuffle.
//
// Health and failover: a failed call immediately fails over to the next
// shard in the key's rendezvous order (each such hop is counted, so tests
// can assert no call is lost or double-priced). A shard that fails
// `unhealthy_after` consecutive calls is marked unhealthy and routed
// around; it still receives a probe call every `probe_interval` skips, so a
// node that recovers (burst outage over) rejoins the rotation. When every
// candidate shard has been routed around, the router tries the full
// ranking anyway — a dead fleet behaves like a dead single server, and the
// CostService retry/degradation policy above this layer decides what
// happens next.
//
// Fail-slow isolation: crash-stop health tracking never fires for a shard
// that answers every call successfully, just 100x late — the failure mode
// that actually hurts fleets. When `slow_threshold` is set, the router
// keeps an EWMA of each shard's successful-call latency; a shard whose
// EWMA exceeds slow_threshold x the fleet median (and an absolute floor,
// so microsecond noise on an idle fleet demotes nobody) is demoted to
// probe-only routing exactly like an unhealthy shard, and recovers through
// the same probe path once its probes' EWMA decays back under the
// threshold. Demotion is routing-only: it moves calls to faster replicas,
// never changes what any call returns.
//
// Back-pressure: a bounded in-flight window per shard; calls past the bound
// wait in the shard's FIFO for a credit. This caps the concurrent load any
// one shard absorbs (and any one slow shard can hold hostage).
//
// Transports: shards are rpc::ShardChannel instances, and every fleet —
// in-process replicas behind rpc::InprocChannel or cost_server workers
// behind rpc::SocketChannel — prices through one rpc::CompletionQueue. The
// queue owns credits, FIFOs, per-attempt deadlines, and the two-pass
// requeue walk; the router supplies the ranking and the health, slowness,
// and admission bookkeeping through the queue's hooks. An in-process
// attempt runs on whichever thread launches it: the caller; a thread
// returning a credit, which dispatches the next waiter; or the timer
// thread, which requeues a call only after its attempt deadline (30 s by
// default) has passed.
//
// Accounting: each call adds its attempts - 1 to failovers, plus one
// exhausted when no shard answered, so Σ per-shard calls = successes +
// failovers + exhausted on either transport. An attempt abandoned at its
// deadline is counted there, once; its late response only returns the
// credit (and still feeds the latency EWMA).
//
// Determinism argument: every shard is a bit-exact replica, so a call
// returns the same cost on any shard — routing, failover, and slowness
// demotion only choose *where* a call runs, never *what* it returns.
// CostService's in-flight dedup prices each logical call exactly once
// regardless of backend, so recommendations, costs, and whatif_calls are
// byte-identical at any (threads × shards) combination; only wall-clock
// and per-shard load vary.

#ifndef DTA_DTA_SHARD_ROUTER_H_
#define DTA_DTA_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dta/cost_service.h"
#include "dta/rpc/channel.h"
#include "dta/rpc/completion_queue.h"
#include "server/server.h"

namespace dta::tuner {

// Parsed form of "--shard-fault-spec" / TuningOptions::shard_fault_spec:
// ";"-separated "<shard index>:<FaultSpec>" entries, e.g.
//   "1:down_after=30;2:transient=0.2,seed=9"
// Shard 0 is the tuning server itself. Duplicate or negative indexes are
// rejected; whether an index fits the session's shard count is validated by
// the session (the spec alone does not know the topology).
struct ShardFaultSpec {
  std::map<int, FaultSpec> per_shard;

  bool Enabled() const;

  static Result<ShardFaultSpec> Parse(const std::string& text);
  std::string ToString() const;
};

struct ShardRouterOptions {
  // Concurrent what-if calls admitted per shard; further calls wait for a
  // credit. Clamped to >= 1 at construction.
  int max_inflight_per_shard = 8;
  // Consecutive failures before a shard is marked unhealthy. Clamped to
  // >= 1 (1 = demote on the first failure).
  int unhealthy_after = 3;
  // A demoted (unhealthy or slow) shard receives a probe call after this
  // many skips. Clamped to >= 1 (1 = probe on every routing decision that
  // would have skipped it).
  int probe_interval = 16;
  // Latency-based slowness detection: a shard whose successful-call latency
  // EWMA exceeds slow_threshold x the fleet-median EWMA is demoted to
  // probe-only routing until its probes bring the EWMA back under. 0
  // disables the detector.
  double slow_threshold = 0;
  // The detector never judges a shard before it has this many latency
  // samples, and never calls a shard slow below this absolute latency (ms)
  // — an idle in-process fleet jitters by microseconds, which must not
  // demote anybody.
  int slow_min_samples = 8;
  double slow_floor_ms = 1.0;
  // Clock for latency measurement; null means the real monotonic clock.
  // Under a test's FakeClock every measured latency is 0 and the detector
  // never fires — metric exports stay byte-stable.
  const Clock* clock = nullptr;
  // Per-attempt budget before the completion queue abandons the attempt
  // (its credit stays with the shard) and requeues the call on the next
  // shard. Always measured on the real monotonic clock — a FakeClock
  // deadline would never arrive.
  double attempt_timeout_ms = 30000;
  // Observability (optional): per-shard call/failure counters and
  // queue-depth gauges, plus router-level failover counters. Per-shard load
  // is scheduling dependent, so these land under "shard." names that the
  // determinism-gated exports never include.
  MetricsRegistry* metrics = nullptr;
};

class ShardRouter : public CostBackend {
 public:
  // `channels` are the shards, in shard-index order. `primary` is the local
  // tuning server — it serves catalog access, heuristic degradation, and
  // reports; an in-process fleet also puts it behind channel 0, a socket
  // fleet routes no what-if call to it. It must outlive the router.
  ShardRouter(server::Server* primary,
              std::vector<std::unique_ptr<rpc::ShardChannel>> channels,
              ShardRouterOptions options);

  Result<server::Server::WhatIfResult> WhatIfCost(
      const WhatIfCall& call) override;

  server::Server* primary() const override { return primary_; }

  // Brings every shard up to `stat`, a statistic the tuning server holds:
  // shards must price with identical information or the determinism
  // argument above breaks. Fails when some shard cannot be brought up.
  Status MirrorStatistics(const stats::Statistics& stat);

  // Rendezvous ranking of all shards for `key`, best first. Pure function
  // of (key, shard index) — exposed for tests and deterministic by design.
  std::vector<size_t> RankShards(uint64_t key) const;

  // The options as the constructor clamped them.
  const ShardRouterOptions& options() const { return options_; }

  // ---- Accounting (tests assert the no-lost/no-double-count invariants).
  size_t shard_count() const { return shards_.size(); }
  // Calls that returned OK from some shard. Exactly one success per logical
  // pricing: CostService dedups upstream and the router stops at the first
  // shard that answers.
  size_t successes() const {
    return successes_.load(std::memory_order_relaxed);
  }
  // Failed attempts that were retried on another shard.
  size_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }
  // Calls that failed on every shard in their ranking.
  size_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  // Times the slowness detector demoted a shard to probe-only routing.
  size_t slow_demotions() const {
    return slow_demotions_.load(std::memory_order_relaxed);
  }
  size_t calls(size_t shard) const;
  size_t failures(size_t shard) const;
  // Deepest (in-flight + waiting) queue observed on the shard.
  size_t queue_peak(size_t shard) const { return queue_->queue_peak(shard); }
  // Peak concurrently executing calls (never exceeds max_inflight_per_shard).
  size_t inflight_peak(size_t shard) const {
    return queue_->inflight_peak(shard);
  }
  bool healthy(size_t shard) const;
  // True while the slowness detector has the shard demoted.
  bool slow(size_t shard) const;
  // Current successful-call latency EWMA (ms; 0 before the first sample).
  double latency_ewma_ms(size_t shard) const;

  // Test hook: feeds one successful-call latency sample through the same
  // EWMA/demotion path the queue's latency hook uses, without running a
  // call. Lets tests drive the detector deterministically instead of
  // sleeping.
  void RecordLatencyForTest(size_t shard, double latency_ms) {
    RecordLatency(*shards_[shard], latency_ms);
  }

 private:
  struct Shard {
    Mutex mu;
    size_t calls GUARDED_BY(mu) = 0;
    size_t failures GUARDED_BY(mu) = 0;
    int consecutive_failures GUARDED_BY(mu) = 0;
    bool healthy GUARDED_BY(mu) = true;
    int skipped_since_down GUARDED_BY(mu) = 0;
    // Slowness detector state: EWMA of successful-call latency and the
    // demotion flag it drives.
    double latency_ewma GUARDED_BY(mu) = 0;
    size_t latency_samples GUARDED_BY(mu) = 0;
    bool slow GUARDED_BY(mu) = false;
    // Metrics handles (null without a registry); resolved once at
    // construction so the hot path never locks the registry.
    Counter* m_calls = nullptr;
    Counter* m_failures = nullptr;
  };

  // Whether to try this shard in the healthy-first pass: true when healthy
  // and not slow, or when a demoted shard is due a recovery probe.
  bool AdmitForPass(Shard& shard) EXCLUDES(shard.mu);
  // Records the attempt's outcome and updates health state.
  void RecordOutcome(Shard& shard, bool ok) EXCLUDES(shard.mu);
  // Feeds a successful call's latency into the shard's EWMA and re-judges
  // its slowness against the fleet median. Takes each shard's lock one at
  // a time, never two at once.
  void RecordLatency(Shard& shard, double latency_ms) EXCLUDES(shard.mu);
  // Fleet-median latency EWMA over shards with enough samples (0 when
  // fewer than two shards qualify — a fleet of one is never "slow").
  double FleetMedianEwma();

  server::Server* primary_ = nullptr;
  ShardRouterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<rpc::CompletionQueue> queue_;
  std::atomic<size_t> successes_{0};
  std::atomic<size_t> failovers_{0};
  std::atomic<size_t> exhausted_{0};
  std::atomic<size_t> slow_demotions_{0};
  Counter* m_failovers_ = nullptr;
  Counter* m_exhausted_ = nullptr;
  Counter* m_slow_demotions_ = nullptr;
  // Declared last so it is destroyed first: closing a SocketChannel sweeps
  // its still-pending requests (attempts abandoned at their deadline) into
  // the queue's completion path and the hooks above, which must still be
  // alive to receive them.
  std::vector<std::unique_ptr<rpc::ShardChannel>> channels_;
};

}  // namespace dta::tuner

#endif  // DTA_DTA_SHARD_ROUTER_H_
