// Sharded what-if costing backend (distributed costing) and the one
// dispatcher every shard fleet prices through.
//
// The paper (§6) runs tuning against a *test server* so the what-if load
// never hits production; this router scales that mode out: what-if calls
// fan across N shards — the tuning server plus N - 1 deep replicas
// (Server::Clone) behind rpc::InprocChannel, or cost_server workers behind
// rpc::SocketChannel — while the layers above (CostService caching,
// in-flight dedup, retry/degradation) stay unchanged behind the CostBackend
// seam.
//
// Routing: rendezvous (highest-random-weight) hashing on the logical call
// key. Every shard scores each key with a pure hash; a call routes to its
// highest-scoring live shard. Scores are independent of the shard count, so
// routing is deterministic across runs and thread counts, and losing one
// shard re-homes only the keys that shard owned — no global reshuffle.
//
// Dispatch: each call is a state machine over its ranking:
//
//   queued ──credit──▶ in flight ──response──▶ finished
//      │                   │
//      └──── timeout ──────┴──failure/timeout──▶ requeued on the next
//                                                shard in the ranking
//
// The walk has two passes: pass 0 takes healthy shards plus demoted shards
// due a probe, pass 1 takes whatever pass 0 left untried — a dead fleet
// behaves like a dead single server, and the CostService retry/degradation
// policy above this layer decides what happens next. No thread ever sleeps
// in a backoff.
//
// Back-pressure: each shard has max_inflight_per_shard credits. A call
// holds one only while its attempt runs; on a saturated shard it waits in
// the shard's FIFO. Both waits are bounded by attempt_timeout_ms, so a hung
// shard strands at most its credits, never a caller. An attempt abandoned
// at its deadline keeps its credit; the late response (or the channel's
// connection-loss sweep) returns it and still feeds latency, and a
// generation counter on the call discards the stale result.
//
// Health: a shard that fails `unhealthy_after` consecutive attempts (a
// deadline counts as a failure) is marked unhealthy and routed around; it
// still receives a probe every `probe_interval` skips, so a node that
// recovers (burst outage over) rejoins the rotation.
//
// Fail-slow isolation: crash-stop health tracking never fires for a shard
// that answers every call successfully, just 100x late — the failure mode
// that actually hurts fleets. When `slow_threshold` is set, the router
// keeps an EWMA of each shard's successful-attempt latency; a shard whose
// EWMA exceeds slow_threshold x the fleet median (and an absolute floor,
// so microsecond noise on an idle fleet demotes nobody) is demoted to
// probe-only routing exactly like an unhealthy shard, and recovers through
// the same probe path once its probes' EWMA decays back under the
// threshold. Demotion is routing-only: it moves calls to faster replicas,
// never changes what any call returns.
//
// Threads and locking: one mutex guards every shard's credits, FIFO,
// peaks, health and slowness state, the live calls and the timer. Attempts
// launch with no lock held, on whichever thread made them ready: the
// caller; a thread whose completion returned a credit (it dispatches the
// FIFO head); or the timer thread, which requeues a call only after its
// deadline (30 s by default) has passed. An in-process shard prices on that
// thread. Deadlines use the real monotonic clock (a FakeClock deadline
// would never arrive); attempt latency is read on options.clock, so under a
// FakeClock every sample is 0 and the detector stays silent.
//
// Accounting: each call adds its attempts - 1 to failovers, plus one
// exhausted when no shard answered, so Σ per-shard calls = successes +
// failovers + exhausted on either transport. An attempt abandoned at its
// deadline is counted there, once; its late response is not.
//
// Determinism argument: every shard is a bit-exact replica, so a call
// returns the same cost on any shard — routing, failover, requeues and
// slowness demotion only choose *where* a call runs, never *what* it
// returns. CostService's in-flight dedup prices each logical call exactly
// once regardless of backend, so recommendations, costs, and whatif_calls
// are byte-identical at any (threads × shards) combination; only
// wall-clock, per-shard load and the rpc.* / shard.* metrics vary, and no
// determinism-gated export includes those.

#ifndef DTA_DTA_SHARD_ROUTER_H_
#define DTA_DTA_SHARD_ROUTER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dta/cost_service.h"
#include "dta/rpc/channel.h"
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
  // Per-attempt budget, covering both the credit wait and the attempt
  // itself, before the router abandons the attempt (its credit stays with
  // the shard) and requeues the call on the next shard. Always measured on
  // the real monotonic clock — a FakeClock deadline would never arrive.
  double attempt_timeout_ms = 30000;
  // Observability (optional): rpc.* dispatch counters and the attempt
  // latency histogram, per-shard call/failure counters and queue-depth
  // gauges, and router-level failover counters. All are scheduling
  // dependent, so these land under names that the determinism-gated
  // exports never include.
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
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Starts `call` on the best admitted shard of its ranking and returns
  // without waiting. `done` runs once, when a shard answers or every shard
  // of the ranking has failed in both passes (with the last failure), on
  // whichever thread finished the call: inside Submit when an in-process
  // shard had a credit free, else a completion, credit-return or timer
  // thread. It never runs while an attempt of the call is still inside a
  // channel's Submit, so `call`'s borrowed pointers need only outlive
  // `done`. Thread-safe; any number of concurrent callers and calls.
  // WhatIfCost (CostBackend) is a batch of one over it.
  void Submit(const WhatIfCall& call, Done done) override EXCLUDES(mu_);

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
  size_t shard_count() const { return channels_.size(); }
  // Calls that returned OK from some shard. Exactly one success per logical
  // pricing: CostService dedups upstream and the router stops at the first
  // shard that answers.
  size_t successes() const EXCLUDES(mu_);
  // Failed or timed-out attempts that were retried on another shard.
  size_t failovers() const EXCLUDES(mu_);
  // Calls that failed on every shard in their ranking.
  size_t exhausted() const EXCLUDES(mu_);
  // Times the slowness detector demoted a shard to probe-only routing.
  size_t slow_demotions() const EXCLUDES(mu_);
  // Attempts that reported an outcome on the shard, and the failed ones.
  size_t calls(size_t shard) const EXCLUDES(mu_);
  size_t failures(size_t shard) const EXCLUDES(mu_);
  // Deepest (in flight + waiting for a credit) queue seen on the shard.
  size_t queue_peak(size_t shard) const EXCLUDES(mu_);
  // Peak concurrently running attempts (never exceeds
  // max_inflight_per_shard).
  size_t inflight_peak(size_t shard) const EXCLUDES(mu_);
  bool healthy(size_t shard) const EXCLUDES(mu_);
  // True while the slowness detector has the shard demoted.
  bool slow(size_t shard) const EXCLUDES(mu_);
  // Current successful-call latency EWMA (ms; 0 before the first sample).
  double latency_ewma_ms(size_t shard) const EXCLUDES(mu_);

  // Test hook: feeds one successful-attempt latency sample through the
  // same EWMA/demotion path a completion uses, without running a call.
  // Lets tests drive the detector deterministically instead of sleeping.
  void RecordLatencyForTest(size_t shard, double latency_ms) EXCLUDES(mu_);

 private:
  struct Call;  // one submitted call's state machine

  struct Shard {
    int credits = 0;
    // Ids of calls waiting for a credit, FIFO.
    std::deque<uint64_t> waiting;
    size_t inflight_peak = 0;
    size_t queue_peak = 0;
    size_t calls = 0;
    size_t failures = 0;
    int consecutive_failures = 0;
    bool healthy = true;
    int skipped_since_down = 0;
    // Slowness detector state: EWMA of successful-attempt latency and the
    // demotion flag it drives.
    double latency_ewma = 0;
    size_t latency_samples = 0;
    bool slow = false;
    // Metrics handles (null without a registry); resolved once at
    // construction so the hot path never locks the registry.
    Counter* m_calls = nullptr;
    Counter* m_failures = nullptr;
    Gauge* m_queue_peak = nullptr;
  };

  // One attempt prepared under mu_ and launched lock-free: Submit may
  // complete synchronously, and its completion path takes mu_.
  struct Launch {
    const WhatIfCall* what_if = nullptr;
    uint64_t call_id = 0;
    uint64_t generation = 0;
    size_t shard = 0;
  };

  // What a section under mu_ leaves for after it: attempts to launch, and
  // retired calls whose `done` is due.
  struct Work {
    std::vector<Launch> launches;
    std::vector<std::unique_ptr<Call>> retired;
  };

  // Starts the next attempt for `call`, or finishes it when both passes
  // are exhausted. Appends any ready-to-go dispatch to `work`.
  void AdvanceLocked(Call* call, Status failure, Work* work) REQUIRES(mu_);
  // Next untried shard of the current pass, walking the ranking once per
  // pass; shard_count() when the pass has nothing left.
  size_t NextShardLocked(Call* call) REQUIRES(mu_);
  // Whether pass 0 may try `shard`: true when healthy and not slow, or
  // when a demoted shard is due a recovery probe.
  bool AdmitLocked(Shard& shard) REQUIRES(mu_);
  // Begins an attempt on `shard`: dispatches if a credit is free, else
  // queues on the shard FIFO with a deadline.
  void StartAttemptLocked(Call* call, size_t shard, Work* work)
      REQUIRES(mu_);
  void DispatchLocked(Call* call, size_t shard, Work* work) REQUIRES(mu_);
  void FinishLocked(Call* call, Result<server::Server::WhatIfResult> result,
                    Work* work) REQUIRES(mu_);
  // Counts a finished call with no attempt left inside Submit, and moves
  // it out of live_ into `work` for its `done`.
  void RetireLocked(Call* call, Work* work) REQUIRES(mu_);
  // Wakes the timer when `deadline_ms` is earlier than the one it sleeps
  // toward.
  void ArmDeadlineLocked(double deadline_ms) REQUIRES(mu_);
  // Completion of `launch`. A late one (its attempt was abandoned) only
  // returns the credit and feeds latency.
  void OnCompletion(const Launch& launch, double latency_ms,
                    Result<server::Server::WhatIfResult> result)
      EXCLUDES(mu_);
  // Returns a freed credit to `shard` and dispatches its FIFO head.
  void ReleaseCreditLocked(size_t shard, Work* work) REQUIRES(mu_);
  // The live call `id` if it is still waiting for a credit on `shard`;
  // null for a stale FIFO entry (timed out of the wait, or moved on).
  Call* WaiterLocked(uint64_t id, size_t shard) REQUIRES(mu_);
  // Records an attempt's outcome (exactly once per attempt: its
  // completion or its deadline) and updates the shard's health.
  void RecordOutcomeLocked(Shard& shard, bool ok) REQUIRES(mu_);
  // Feeds a successful attempt's latency into the shard's EWMA and
  // re-judges its slowness against the fleet median.
  void RecordLatencyLocked(Shard& shard, double latency_ms) REQUIRES(mu_);
  // Fleet-median latency EWMA over shards with enough samples (0 when
  // fewer than two shards qualify — a fleet of one is never "slow").
  double FleetMedianEwmaLocked() const REQUIRES(mu_);
  void TimerLoop() EXCLUDES(mu_);
  // Fails every expired queued or in-flight attempt and requeues its call.
  void ExpireLocked(double now_ms, Work* work) REQUIRES(mu_);
  // Abandons `call`'s current attempt at its deadline and requeues it.
  void AbandonLocked(Call* call, const char* waited_for, Work* work)
      REQUIRES(mu_);
  double NextDeadlineLocked() const REQUIRES(mu_);
  // Runs retired calls' `done`, then the launches, on this thread.
  void RunWork(Work work) EXCLUDES(mu_);

  server::Server* primary_ = nullptr;
  ShardRouterOptions options_;

  mutable Mutex mu_;
  // The timer waits here for the next deadline.
  CondVar timer_cv_;
  std::vector<Shard> shards_ GUARDED_BY(mu_);
  // Calls submitted and not yet retired, by id.
  std::map<uint64_t, std::unique_ptr<Call>> live_ GUARDED_BY(mu_);
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1;
  bool stop_ GUARDED_BY(mu_) = false;
  // The deadline the timer sleeps toward (infinity while idle).
  double timer_wake_ms_ GUARDED_BY(mu_) =
      std::numeric_limits<double>::infinity();
  size_t successes_ GUARDED_BY(mu_) = 0;
  size_t failovers_ GUARDED_BY(mu_) = 0;
  size_t exhausted_ GUARDED_BY(mu_) = 0;
  size_t slow_demotions_ GUARDED_BY(mu_) = 0;

  Counter* m_rpc_calls_ = nullptr;
  Counter* m_requeues_ = nullptr;
  Counter* m_timeouts_ = nullptr;
  Counter* m_late_ = nullptr;
  Histogram* m_latency_ = nullptr;
  Counter* m_failovers_ = nullptr;
  Counter* m_exhausted_ = nullptr;
  Counter* m_slow_demotions_ = nullptr;

  // Expires deadlines; joined in the destructor's body, before any member
  // it reads is destroyed.
  std::thread timer_;
  // Declared last so it is destroyed first: closing a SocketChannel sweeps
  // its still-pending requests (attempts abandoned at their deadline) into
  // OnCompletion, which needs the state above alive to take them.
  std::vector<std::unique_ptr<rpc::ShardChannel>> channels_;
};

}  // namespace dta::tuner

#endif  // DTA_DTA_SHARD_ROUTER_H_
