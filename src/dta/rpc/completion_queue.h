// Event-driven dispatch: the one engine ShardRouter prices every call
// through, for in-process and socket fleets alike.
//
// Each call is a state machine over its shard ranking:
//
//   queued ──credit──▶ in flight ──response──▶ finished
//      │                   │
//      └──── timeout ──────┴──failure/timeout──▶ requeued on the next
//                                                shard in the ranking
//
// Each shard has `max_inflight` credits. A call holds a credit only while
// its attempt runs; when the shard is saturated the call waits in that
// shard's FIFO — and both waits are bounded by the attempt timeout, so a
// hung shard can strand at most `max_inflight` credits, never a caller.
// Failures and timeouts requeue the call on the next untried shard (two
// passes: pass 0 admitted shards only, pass 1 anything untried) without
// any thread ever sleeping in a backoff. A timed-out attempt leaves its
// credit with the shard; the late response (or the channel's
// connection-loss sweep) returns it, and a generation counter on the call
// discards the stale result.
//
// Attempts launch outside the queue lock, on whichever thread made them
// ready: the caller, a thread whose completion returned a credit (it
// dispatches the FIFO head), or the timer thread (requeues born from a
// deadline). An in-process channel therefore prices on that thread.
//
// Determinism: which shard answers never affects the cost (replicas are
// identical — the sharded-costing invariant), so requeue order, timeouts,
// and late-response discards affect only scheduling. All rpc.* metrics and
// the shard.N.queue_peak gauges are timing-dependent and excluded from
// determinism-gated exports.
//
// Deadlines use the real monotonic clock, never the session clock: under
// FakeClock a deadline would simply never arrive.

#ifndef DTA_DTA_RPC_COMPLETION_QUEUE_H_
#define DTA_DTA_RPC_COMPLETION_QUEUE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dta/rpc/channel.h"

namespace dta::rpc {

struct CompletionQueueOptions {
  // Credits per shard: concurrent attempts one shard runs. Clamped to >= 1.
  int max_inflight_per_shard = 4;
  // Per-attempt budget, covering both the credit wait and the attempt
  // itself. On expiry the call requeues on the next shard.
  double attempt_timeout_ms = 30000;
  // Clock for attempt latency (the latency hook and rpc.wire_latency_ms);
  // null means the real monotonic clock. Deadlines ignore it.
  const Clock* clock = nullptr;
  // Optional rpc.* counters/histograms and shard.N.queue_peak gauges.
  MetricsRegistry* metrics = nullptr;
};

// Health hooks supplied by ShardRouter. All run under the queue lock.
struct CompletionQueueHooks {
  // May shard `i` serve a pass-0 attempt? Null admits every shard.
  std::function<bool(size_t)> admit;
  // Every attempt's outcome, exactly once: its completion, or the deadline
  // that abandoned it (a late response reports nothing).
  std::function<void(size_t, bool)> outcome;
  // Latency (ms) of each successful completion, late ones included.
  std::function<void(size_t, double)> latency;
};

class CompletionQueue {
 public:
  // `channels` are borrowed and must outlive the queue.
  CompletionQueue(std::vector<ShardChannel*> channels,
                  CompletionQueueHooks hooks, CompletionQueueOptions options);
  ~CompletionQueue();

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  // Prices `call` against the shards of `ranking` (shard indices, best
  // first). Blocks the caller until a shard answers or every shard has been
  // tried in both passes, then returns that answer or the last failure;
  // `attempts` (optional) receives the number of shards tried. The thread
  // parks on a condvar, never in a backoff sleep, and returns only once no
  // attempt of this call is still inside Submit. Thread-safe; any number of
  // concurrent callers.
  Result<server::Server::WhatIfResult> Execute(
      const tuner::WhatIfCall& call, const std::vector<size_t>& ranking,
      size_t* attempts = nullptr) EXCLUDES(mu_);

  size_t shard_count() const { return channels_.size(); }
  // Peak concurrently running attempts on the shard (never exceeds
  // max_inflight_per_shard).
  size_t inflight_peak(size_t shard) const EXCLUDES(mu_);
  // Deepest (in flight + waiting for a credit) queue seen on the shard.
  size_t queue_peak(size_t shard) const EXCLUDES(mu_);

 private:
  struct Call;  // one Execute invocation's state machine

  // One attempt prepared under mu_ and launched lock-free: Submit may
  // complete synchronously, and its completion path takes mu_.
  struct Launch {
    ShardChannel* channel = nullptr;
    const tuner::WhatIfCall* what_if = nullptr;
    uint64_t call_id = 0;
    uint64_t generation = 0;
    size_t shard = 0;
  };

  // Starts the next attempt for `call`, or finishes it when the plan is
  // exhausted. Appends any ready-to-go dispatch to `launches`.
  void AdvanceLocked(Call* call, Status failure,
                     std::vector<Launch>* launches) REQUIRES(mu_);
  // Next untried shard of the current pass, walking the ranking once per
  // pass; channels_.size() when the pass has nothing left.
  size_t NextShardLocked(Call* call) REQUIRES(mu_);
  // Begins an attempt on `shard`: dispatches if a credit is free, else
  // queues on the shard FIFO with a deadline.
  void StartAttemptLocked(Call* call, size_t shard,
                          std::vector<Launch>* launches) REQUIRES(mu_);
  void DispatchLocked(Call* call, size_t shard,
                      std::vector<Launch>* launches) REQUIRES(mu_);
  void FinishLocked(Call* call, Result<server::Server::WhatIfResult> result)
      REQUIRES(mu_);
  // Wakes the timer when `deadline_ms` is earlier than the one it sleeps
  // toward.
  void ArmDeadlineLocked(double deadline_ms) REQUIRES(mu_);
  // Completion of `launch`. A late one (its attempt was abandoned) only
  // returns the credit and feeds latency.
  void OnCompletion(const Launch& launch, double latency_ms,
                    Result<server::Server::WhatIfResult> result)
      EXCLUDES(mu_);
  // Returns a freed credit to `shard` and dispatches its FIFO head.
  void ReleaseCreditLocked(size_t shard, std::vector<Launch>* launches)
      REQUIRES(mu_);
  void TimerLoop() EXCLUDES(mu_);
  // Fails every expired queued/in-flight attempt and requeues those calls.
  void ExpireLocked(double now_ms, std::vector<Launch>* launches)
      REQUIRES(mu_);
  double NextDeadlineLocked() const REQUIRES(mu_);
  void RunLaunches(std::vector<Launch> launches) EXCLUDES(mu_);

  std::vector<ShardChannel*> channels_;
  CompletionQueueHooks hooks_;
  CompletionQueueOptions options_;

  mutable Mutex mu_;
  // Callers wait here for their call to finish.
  CondVar cv_;
  // The timer waits here for the next deadline.
  CondVar timer_cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  // The deadline the timer sleeps toward (infinity while idle).
  double timer_wake_ms_ GUARDED_BY(mu_) =
      std::numeric_limits<double>::infinity();
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1;
  // Live Execute invocations by id; values point at caller stack frames,
  // valid exactly while registered.
  std::map<uint64_t, Call*> live_ GUARDED_BY(mu_);
  std::vector<int> credits_ GUARDED_BY(mu_);
  // Calls waiting for a credit, per shard, FIFO.
  std::vector<std::deque<uint64_t>> waiting_ GUARDED_BY(mu_);
  std::vector<size_t> inflight_peak_ GUARDED_BY(mu_);
  std::vector<size_t> queue_peak_ GUARDED_BY(mu_);

  std::thread timer_;

  Counter* m_calls_ = nullptr;
  Counter* m_requeues_ = nullptr;
  Counter* m_timeouts_ = nullptr;
  Counter* m_late_ = nullptr;
  Histogram* m_latency_ = nullptr;
  std::vector<Gauge*> m_queue_peak_;
};

}  // namespace dta::rpc

#endif  // DTA_DTA_RPC_COMPLETION_QUEUE_H_
