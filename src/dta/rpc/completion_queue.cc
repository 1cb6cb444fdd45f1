#include "dta/rpc/completion_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace dta::rpc {

namespace {
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
}  // namespace

// One Execute invocation. Lives on the caller's stack; registered in
// `live_` (and therefore reachable from other threads) only between
// registration and the caller observing it finished with no launch still
// inside Submit — every mutation happens under the queue mutex.
struct CompletionQueue::Call {
  enum class State { kIdle, kWaitingCredit, kInflight, kFinished };

  uint64_t id = 0;
  const tuner::WhatIfCall* what_if = nullptr;
  const std::vector<size_t>* ranking = nullptr;
  std::vector<bool> tried;
  int pass = 0;
  size_t cursor = 0;  // next ranking position of the current pass
  State state = State::kIdle;
  size_t shard = 0;         // shard of the current attempt
  uint64_t generation = 0;  // bumped per dispatch; stale completions differ
  size_t attempts = 0;
  // Launches whose Submit has not returned. An in-process attempt prices
  // inside Submit through `what_if`'s borrowed pointers, so the caller may
  // not return while one runs — even one abandoned at its deadline.
  int launching = 0;
  double deadline_ms = 0;  // real monotonic clock
  Status last_error;
  Result<server::Server::WhatIfResult> result{
      Status::Internal("completion queue: unset result")};
};

CompletionQueue::CompletionQueue(std::vector<ShardChannel*> channels,
                                 CompletionQueueHooks hooks,
                                 CompletionQueueOptions options)
    : channels_(std::move(channels)),
      hooks_(std::move(hooks)),
      options_(options) {
  DTA_CHECK(!channels_.empty(), "completion queue needs at least one shard");
  options_.max_inflight_per_shard =
      std::max(1, options_.max_inflight_per_shard);
  if (options_.clock == nullptr) options_.clock = MonotonicClock::Instance();
  {
    MutexLock lock(mu_);
    credits_.assign(channels_.size(), options_.max_inflight_per_shard);
    waiting_.resize(channels_.size());
    inflight_peak_.assign(channels_.size(), 0);
    queue_peak_.assign(channels_.size(), 0);
  }
  if (options_.metrics != nullptr) {
    m_calls_ = options_.metrics->GetCounter("rpc.calls");
    m_requeues_ = options_.metrics->GetCounter("rpc.requeues");
    m_timeouts_ = options_.metrics->GetCounter("rpc.timeouts");
    m_late_ = options_.metrics->GetCounter("rpc.late_responses");
    m_latency_ = options_.metrics->GetHistogram("rpc.wire_latency_ms");
    // The gauge keeps the name ShardRouter has always exported.
    for (size_t i = 0; i < channels_.size(); ++i) {
      m_queue_peak_.push_back(
          options_.metrics->GetGauge(StrFormat("shard.%zu.queue_peak", i)));
    }
  }
  timer_ = std::thread([this] { TimerLoop(); });
}

CompletionQueue::~CompletionQueue() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    timer_cv_.NotifyAll();
  }
  timer_.join();
}

Result<server::Server::WhatIfResult> CompletionQueue::Execute(
    const tuner::WhatIfCall& call, const std::vector<size_t>& ranking,
    size_t* attempts) {
  Call state;
  std::vector<Launch> launches;
  {
    MutexLock lock(mu_);
    state.id = next_call_id_++;
    state.what_if = &call;
    state.ranking = &ranking;
    state.tried.assign(channels_.size(), false);
    state.last_error =
        Status::Unavailable("what-if call failed on every shard");
    live_[state.id] = &state;
    if (m_calls_ != nullptr) m_calls_->Increment();
    AdvanceLocked(&state, Status::Ok(), &launches);
  }
  RunLaunches(std::move(launches));
  MutexLock lock(mu_);
  while (state.state != Call::State::kFinished || state.launching > 0) {
    cv_.Wait(mu_);
  }
  live_.erase(state.id);
  if (attempts != nullptr) *attempts = state.attempts;
  return std::move(state.result);
}

size_t CompletionQueue::inflight_peak(size_t shard) const {
  MutexLock lock(mu_);
  return inflight_peak_[shard];
}

size_t CompletionQueue::queue_peak(size_t shard) const {
  MutexLock lock(mu_);
  return queue_peak_[shard];
}

void CompletionQueue::AdvanceLocked(Call* call, Status failure,
                                    std::vector<Launch>* launches) {
  if (!failure.ok()) call->last_error = std::move(failure);
  size_t shard = NextShardLocked(call);
  if (shard == channels_.size() && call->pass == 0) {
    call->pass = 1;
    call->cursor = 0;
    shard = NextShardLocked(call);
  }
  if (shard == channels_.size()) {
    FinishLocked(call, call->last_error);
    return;
  }
  // A non-first attempt is a requeue: the statement moved shards instead of
  // a thread sleeping through a backoff.
  if (call->attempts > 0 && m_requeues_ != nullptr) {
    m_requeues_->Increment();
  }
  StartAttemptLocked(call, shard, launches);
}

size_t CompletionQueue::NextShardLocked(Call* call) {
  const std::vector<size_t>& ranking = *call->ranking;
  while (call->cursor < ranking.size()) {
    const size_t shard = ranking[call->cursor++];
    if (shard >= channels_.size() || call->tried[shard]) continue;
    if (call->pass == 0 && hooks_.admit && !hooks_.admit(shard)) continue;
    return shard;
  }
  return channels_.size();
}

void CompletionQueue::StartAttemptLocked(Call* call, size_t shard,
                                         std::vector<Launch>* launches) {
  call->tried[shard] = true;
  call->shard = shard;
  ++call->attempts;
  const size_t depth =
      static_cast<size_t>(options_.max_inflight_per_shard - credits_[shard]) +
      waiting_[shard].size() + 1;
  if (depth > queue_peak_[shard]) {
    queue_peak_[shard] = depth;
    if (!m_queue_peak_.empty()) {
      m_queue_peak_[shard]->Set(static_cast<double>(depth));
    }
  }
  if (credits_[shard] > 0) {
    DispatchLocked(call, shard, launches);
    return;
  }
  // Shard window saturated: wait for a returning credit, bounded by the
  // same attempt timeout so a hung shard strands credits, not callers.
  call->state = Call::State::kWaitingCredit;
  call->deadline_ms = MonotonicNowMs() + options_.attempt_timeout_ms;
  waiting_[shard].push_back(call->id);
  ArmDeadlineLocked(call->deadline_ms);
}

void CompletionQueue::DispatchLocked(Call* call, size_t shard,
                                     std::vector<Launch>* launches) {
  --credits_[shard];
  inflight_peak_[shard] = std::max(
      inflight_peak_[shard],
      static_cast<size_t>(options_.max_inflight_per_shard - credits_[shard]));
  call->state = Call::State::kInflight;
  call->shard = shard;
  ++call->generation;
  ++call->launching;
  call->deadline_ms = MonotonicNowMs() + options_.attempt_timeout_ms;
  Launch launch;
  launch.channel = channels_[shard];
  launch.what_if = call->what_if;
  launch.call_id = call->id;
  launch.generation = call->generation;
  launch.shard = shard;
  launches->push_back(launch);
  ArmDeadlineLocked(call->deadline_ms);
}

void CompletionQueue::FinishLocked(
    Call* call, Result<server::Server::WhatIfResult> result) {
  call->result = std::move(result);
  call->state = Call::State::kFinished;
  cv_.NotifyAll();
}

void CompletionQueue::ArmDeadlineLocked(double deadline_ms) {
  if (deadline_ms >= timer_wake_ms_) return;
  timer_wake_ms_ = deadline_ms;
  timer_cv_.NotifyAll();
}

void CompletionQueue::OnCompletion(
    const Launch& launch, double latency_ms,
    Result<server::Server::WhatIfResult> result) {
  std::vector<Launch> launches;
  {
    MutexLock lock(mu_);
    // Success-only latency samples: a failed attempt's timing says nothing
    // about a healthy shard's speed. A late success still measures the
    // shard, which is what the slowness detector needs.
    if (hooks_.latency && result.ok()) hooks_.latency(launch.shard, latency_ms);
    if (m_latency_ != nullptr) m_latency_->Observe(latency_ms);
    ReleaseCreditLocked(launch.shard, &launches);
    auto it = live_.find(launch.call_id);
    Call* call = it == live_.end() ? nullptr : it->second;
    if (call == nullptr || call->generation != launch.generation ||
        call->state != Call::State::kInflight) {
      // The attempt was abandoned at its deadline, which already reported
      // its outcome; returning the credit above was this response's only
      // job.
      if (m_late_ != nullptr) m_late_->Increment();
    } else {
      if (hooks_.outcome) hooks_.outcome(launch.shard, result.ok());
      if (result.ok()) {
        FinishLocked(call, std::move(result));
      } else {
        AdvanceLocked(call, result.status(), &launches);
      }
    }
  }
  RunLaunches(std::move(launches));
}

void CompletionQueue::ReleaseCreditLocked(size_t shard,
                                          std::vector<Launch>* launches) {
  ++credits_[shard];
  while (credits_[shard] > 0 && !waiting_[shard].empty()) {
    const uint64_t waiter_id = waiting_[shard].front();
    waiting_[shard].pop_front();
    auto it = live_.find(waiter_id);
    if (it == live_.end()) continue;
    Call* waiter = it->second;
    // Stale queue entries (the call timed out of the wait, or was expired
    // and moved elsewhere) are skipped, not dispatched.
    if (waiter->state != Call::State::kWaitingCredit ||
        waiter->shard != shard) {
      continue;
    }
    DispatchLocked(waiter, shard, launches);
  }
}

void CompletionQueue::TimerLoop() {
  while (true) {
    std::vector<Launch> launches;
    {
      MutexLock lock(mu_);
      if (stop_) return;
      ExpireLocked(MonotonicNowMs(), &launches);
      if (launches.empty()) {
        timer_wake_ms_ = NextDeadlineLocked();
        if (timer_wake_ms_ == kNoDeadline) {
          timer_cv_.Wait(mu_);
        } else {
          const double delay = timer_wake_ms_ - MonotonicNowMs();
          if (delay > 0) timer_cv_.WaitForMs(mu_, delay);
        }
      }
    }
    // Requeues born from expiry launch with no lock held: Submit can
    // complete synchronously and completions take mu_.
    RunLaunches(std::move(launches));
  }
}

void CompletionQueue::ExpireLocked(double now_ms,
                                   std::vector<Launch>* launches) {
  // Credit waiters: FIFO order per shard is also deadline order (constant
  // timeout), so only fronts can expire.
  for (size_t shard = 0; shard < waiting_.size(); ++shard) {
    while (!waiting_[shard].empty()) {
      auto it = live_.find(waiting_[shard].front());
      if (it == live_.end()) {
        waiting_[shard].pop_front();
        continue;
      }
      Call* call = it->second;
      if (call->state != Call::State::kWaitingCredit ||
          call->shard != shard) {
        waiting_[shard].pop_front();  // stale entry
        continue;
      }
      if (call->deadline_ms > now_ms) break;
      waiting_[shard].pop_front();
      call->state = Call::State::kIdle;
      if (m_timeouts_ != nullptr) m_timeouts_->Increment();
      if (hooks_.outcome) hooks_.outcome(shard, false);
      AdvanceLocked(call,
                    Status::DeadlineExceeded(StrFormat(
                        "shard %s: no credit within %.0f ms",
                        channels_[shard]->name().c_str(),
                        options_.attempt_timeout_ms)),
                    launches);
    }
  }
  // In-flight attempts: abandon (the credit stays with the shard; the late
  // response or loss sweep returns it) and requeue the call.
  for (auto& [id, call] : live_) {
    if (call->state != Call::State::kInflight ||
        call->deadline_ms > now_ms) {
      continue;
    }
    const size_t shard = call->shard;
    call->state = Call::State::kIdle;
    if (m_timeouts_ != nullptr) m_timeouts_->Increment();
    if (hooks_.outcome) hooks_.outcome(shard, false);
    AdvanceLocked(call,
                  Status::DeadlineExceeded(StrFormat(
                      "shard %s: no response within %.0f ms",
                      channels_[shard]->name().c_str(),
                      options_.attempt_timeout_ms)),
                  launches);
  }
}

double CompletionQueue::NextDeadlineLocked() const {
  double next = kNoDeadline;
  for (const auto& [id, call] : live_) {
    if (call->state == Call::State::kWaitingCredit ||
        call->state == Call::State::kInflight) {
      next = std::min(next, call->deadline_ms);
    }
  }
  return next;
}

void CompletionQueue::RunLaunches(std::vector<Launch> launches) {
  // An in-process Submit completes on this thread, and its completion can
  // make the next attempt ready (a requeue, or the FIFO head its credit
  // freed). Such launches join the loop already running here instead of
  // recursing into a new one, so a thread serving a chain of credit
  // waiters keeps a flat stack.
  static thread_local const CompletionQueue* loop_owner = nullptr;
  static thread_local std::vector<Launch>* loop = nullptr;
  if (loop_owner == this) {
    loop->insert(loop->end(), launches.begin(), launches.end());
    return;
  }
  const CompletionQueue* outer_owner = loop_owner;
  std::vector<Launch>* outer_loop = loop;
  loop_owner = this;
  loop = &launches;
  const Clock* clock = options_.clock;
  for (size_t i = 0; i < launches.size(); ++i) {
    const Launch launch = launches[i];  // Submit may append to `launches`
    // Latency is timed from here, not from DispatchLocked: an attempt
    // launched behind another on this thread is not charged for its
    // predecessor's pricing.
    const double started_ms = clock->NowMs();
    launch.channel->Submit(
        *launch.what_if,
        [this, launch, clock,
         started_ms](Result<server::Server::WhatIfResult> result) {
          OnCompletion(launch, clock->NowMs() - started_ms,
                       std::move(result));
        });
    MutexLock lock(mu_);
    Call* call = live_.at(launch.call_id);
    if (--call->launching == 0 && call->state == Call::State::kFinished) {
      cv_.NotifyAll();
    }
  }
  loop_owner = outer_owner;
  loop = outer_loop;
}

}  // namespace dta::rpc
