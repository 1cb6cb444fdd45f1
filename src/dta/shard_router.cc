#include "dta/shard_router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dta::tuner {

namespace {

// Mixed so rendezvous scores differ across shards even for call keys that
// differ in few bits.
uint64_t RendezvousScore(uint64_t key, size_t shard) {
  return Mix64(
      HashCombine(key, 0x7368617264ull + static_cast<uint64_t>(shard)));
}

// Smoothing factor for the per-shard latency EWMA: heavy enough that a
// latency spike registers within a few calls, light enough that one outlier
// does not demote a healthy shard.
constexpr double kEwmaAlpha = 0.25;

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

}  // namespace

bool ShardFaultSpec::Enabled() const {
  for (const auto& [index, spec] : per_shard) {
    if (spec.Enabled()) return true;
  }
  return false;
}

Result<ShardFaultSpec> ShardFaultSpec::Parse(const std::string& text) {
  ShardFaultSpec out;
  for (const std::string& part : StrSplit(text, ';')) {
    if (part.empty()) continue;
    const size_t colon = part.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "shard fault spec entry missing ':' (want <shard>:<spec>): " +
          part);
    }
    // Strict index parse: a typo'd or out-of-range index must fail, not
    // target another shard.
    uint64_t index = 0;
    if (!StrictUint64(part.substr(0, colon), &index) ||
        index > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Status::InvalidArgument(
          "shard fault spec has a bad shard index: " + part);
    }
    auto spec = FaultSpec::Parse(part.substr(colon + 1));
    if (!spec.ok()) return spec.status();
    if (!out.per_shard.emplace(static_cast<int>(index), *spec).second) {
      return Status::InvalidArgument(StrFormat(
          "shard fault spec targets shard %d twice", static_cast<int>(index)));
    }
  }
  return out;
}

std::string ShardFaultSpec::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [index, spec] : per_shard) {
    parts.push_back(StrFormat("%d:", index) + spec.ToString());
  }
  return StrJoin(parts, ";");
}

// One submitted call. Owned by `live_` from Submit until it retires
// (finished, with no launch still inside a channel's Submit); every
// mutation happens under mu_, and only `done` runs after retirement.
struct ShardRouter::Call {
  enum class State { kIdle, kWaitingCredit, kInflight, kFinished };

  uint64_t id = 0;
  const WhatIfCall* what_if = nullptr;
  std::vector<size_t> ranking;
  std::vector<bool> tried;
  int pass = 0;
  size_t cursor = 0;  // next ranking position of the current pass
  State state = State::kIdle;
  size_t shard = 0;         // shard of the current attempt
  uint64_t generation = 0;  // bumped per dispatch; stale completions differ
  size_t attempts = 0;
  // Launches whose Submit has not returned. An in-process attempt prices
  // inside Submit through `what_if`'s borrowed pointers, so the call may
  // not retire while one runs — even one abandoned at its deadline.
  int launching = 0;
  double deadline_ms = 0;  // real monotonic clock
  Status last_error = Status::Unavailable("what-if call failed on every shard");
  Result<server::Server::WhatIfResult> result{
      Status::Internal("shard router: unset result")};
  Done done;
};

ShardRouter::ShardRouter(
    server::Server* primary,
    std::vector<std::unique_ptr<rpc::ShardChannel>> channels,
    ShardRouterOptions options)
    : primary_(primary), options_(options), channels_(std::move(channels)) {
  DTA_CHECK(primary_ != nullptr, "ShardRouter needs a primary server");
  DTA_CHECK(!channels_.empty(), "ShardRouter needs at least one shard");
  // Clamp rather than abort: a zero probe_interval or window means "the
  // most aggressive legal setting", not a crash. The clamped values are
  // visible through options() so callers and tests see what actually runs.
  options_.max_inflight_per_shard =
      std::max(1, options_.max_inflight_per_shard);
  options_.unhealthy_after = std::max(1, options_.unhealthy_after);
  options_.probe_interval = std::max(1, options_.probe_interval);
  options_.slow_min_samples = std::max(1, options_.slow_min_samples);
  options_.slow_floor_ms = std::max(0.0, options_.slow_floor_ms);
  if (options_.clock == nullptr) options_.clock = MonotonicClock::Instance();
  MetricsRegistry* metrics = options_.metrics;
  std::vector<Shard> shards(channels_.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].credits = options_.max_inflight_per_shard;
    if (metrics != nullptr) {
      shards[i].m_calls = metrics->GetCounter(StrFormat("shard.%zu.calls", i));
      shards[i].m_failures =
          metrics->GetCounter(StrFormat("shard.%zu.failures", i));
      shards[i].m_queue_peak =
          metrics->GetGauge(StrFormat("shard.%zu.queue_peak", i));
    }
  }
  if (metrics != nullptr) {
    m_rpc_calls_ = metrics->GetCounter("rpc.calls");
    m_requeues_ = metrics->GetCounter("rpc.requeues");
    m_timeouts_ = metrics->GetCounter("rpc.timeouts");
    m_late_ = metrics->GetCounter("rpc.late_responses");
    m_latency_ = metrics->GetHistogram("rpc.wire_latency_ms");
    m_failovers_ = metrics->GetCounter("shard.router.failovers");
    m_exhausted_ = metrics->GetCounter("shard.router.exhausted");
    m_slow_demotions_ = metrics->GetCounter("shard.router.slow_demotions");
  }
  {
    MutexLock lock(mu_);
    shards_ = std::move(shards);
  }
  timer_ = std::thread([this] { TimerLoop(); });
}

ShardRouter::~ShardRouter() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    timer_cv_.NotifyAll();
  }
  timer_.join();
}

Status ShardRouter::MirrorStatistics(const stats::Statistics& stat) {
  for (const auto& channel : channels_) {
    DTA_RETURN_IF_ERROR(channel->MirrorStatistics(stat));
  }
  return Status::Ok();
}

std::vector<size_t> ShardRouter::RankShards(uint64_t key) const {
  std::vector<std::pair<uint64_t, size_t>> scored;
  scored.reserve(channels_.size());
  for (size_t i = 0; i < channels_.size(); ++i) {
    scored.emplace_back(RendezvousScore(key, i), i);
  }
  std::sort(scored.begin(), scored.end(),
            [](const std::pair<uint64_t, size_t>& a,
               const std::pair<uint64_t, size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<size_t> order;
  order.reserve(scored.size());
  for (const auto& [score, index] : scored) order.push_back(index);
  return order;
}

void ShardRouter::Submit(const WhatIfCall& what_if, Done done) {
  auto owned = std::make_unique<Call>();
  Call* call = owned.get();
  call->what_if = &what_if;
  call->done = std::move(done);
  call->ranking = RankShards(what_if.call_key);
  call->tried.assign(channels_.size(), false);
  Work work;
  {
    MutexLock lock(mu_);
    call->id = next_call_id_++;
    live_.emplace(call->id, std::move(owned));
    if (m_rpc_calls_ != nullptr) m_rpc_calls_->Increment();
    AdvanceLocked(call, Status::Ok(), &work);
  }
  RunWork(std::move(work));
}

void ShardRouter::AdvanceLocked(Call* call, Status failure, Work* work) {
  if (!failure.ok()) call->last_error = std::move(failure);
  size_t shard = NextShardLocked(call);
  if (shard == shard_count() && call->pass == 0) {
    call->pass = 1;
    call->cursor = 0;
    shard = NextShardLocked(call);
  }
  if (shard == shard_count()) {
    FinishLocked(call, call->last_error, work);
    return;
  }
  // A non-first attempt is a requeue: the call moved shards instead of a
  // thread sleeping through a backoff.
  if (call->attempts > 0 && m_requeues_ != nullptr) {
    m_requeues_->Increment();
  }
  StartAttemptLocked(call, shard, work);
}

size_t ShardRouter::NextShardLocked(Call* call) {
  while (call->cursor < call->ranking.size()) {
    const size_t shard = call->ranking[call->cursor++];
    if (call->tried[shard]) continue;
    if (call->pass == 0 && !AdmitLocked(shards_[shard])) continue;
    return shard;
  }
  return shard_count();
}

bool ShardRouter::AdmitLocked(Shard& shard) {
  // A shard demoted for slowness is routed around exactly like an unhealthy
  // one: same skip counter, same probe cadence, same recovery path.
  if (shard.healthy && !shard.slow) return true;
  if (++shard.skipped_since_down >= options_.probe_interval) {
    shard.skipped_since_down = 0;
    return true;  // recovery probe
  }
  return false;
}

void ShardRouter::StartAttemptLocked(Call* call, size_t shard, Work* work) {
  Shard& s = shards_[shard];
  call->tried[shard] = true;
  call->shard = shard;
  ++call->attempts;
  const size_t depth =
      static_cast<size_t>(options_.max_inflight_per_shard - s.credits) +
      s.waiting.size() + 1;
  if (depth > s.queue_peak) {
    s.queue_peak = depth;
    if (s.m_queue_peak != nullptr) {
      s.m_queue_peak->Set(static_cast<double>(depth));
    }
  }
  if (s.credits > 0) {
    DispatchLocked(call, shard, work);
    return;
  }
  // Shard window saturated: wait for a returning credit, bounded by the
  // same attempt timeout so a hung shard strands credits, not callers.
  call->state = Call::State::kWaitingCredit;
  call->deadline_ms = MonotonicNowMs() + options_.attempt_timeout_ms;
  s.waiting.push_back(call->id);
  ArmDeadlineLocked(call->deadline_ms);
}

void ShardRouter::DispatchLocked(Call* call, size_t shard, Work* work) {
  Shard& s = shards_[shard];
  --s.credits;
  s.inflight_peak = std::max(
      s.inflight_peak,
      static_cast<size_t>(options_.max_inflight_per_shard - s.credits));
  call->state = Call::State::kInflight;
  ++call->generation;
  ++call->launching;
  call->deadline_ms = MonotonicNowMs() + options_.attempt_timeout_ms;
  work->launches.push_back(
      Launch{call->what_if, call->id, call->generation, shard});
  ArmDeadlineLocked(call->deadline_ms);
}

void ShardRouter::FinishLocked(Call* call,
                               Result<server::Server::WhatIfResult> result,
                               Work* work) {
  call->result = std::move(result);
  call->state = Call::State::kFinished;
  if (call->launching == 0) RetireLocked(call, work);
}

void ShardRouter::RetireLocked(Call* call, Work* work) {
  // Every attempt but the last moved the call on to another shard.
  if (call->attempts > 1) {
    failovers_ += call->attempts - 1;
    if (m_failovers_ != nullptr) m_failovers_->Increment(call->attempts - 1);
  }
  if (call->result.ok()) {
    ++successes_;
  } else {
    // Every shard failed this call; the last failure surfaces.
    ++exhausted_;
    if (m_exhausted_ != nullptr) m_exhausted_->Increment();
  }
  auto it = live_.find(call->id);
  work->retired.push_back(std::move(it->second));
  live_.erase(it);
}

void ShardRouter::ArmDeadlineLocked(double deadline_ms) {
  if (deadline_ms >= timer_wake_ms_) return;
  timer_wake_ms_ = deadline_ms;
  timer_cv_.NotifyAll();
}

void ShardRouter::OnCompletion(const Launch& launch, double latency_ms,
                               Result<server::Server::WhatIfResult> result) {
  Work work;
  {
    MutexLock lock(mu_);
    Shard& shard = shards_[launch.shard];
    // Success-only latency samples: a failed attempt's timing says nothing
    // about a healthy shard's speed. A late success still measures the
    // shard, which is what the slowness detector needs.
    if (result.ok()) RecordLatencyLocked(shard, latency_ms);
    if (m_latency_ != nullptr) m_latency_->Observe(latency_ms);
    ReleaseCreditLocked(launch.shard, &work);
    auto it = live_.find(launch.call_id);
    Call* call = it == live_.end() ? nullptr : it->second.get();
    if (call == nullptr || call->generation != launch.generation ||
        call->state != Call::State::kInflight) {
      // The attempt was abandoned at its deadline, which already recorded
      // its outcome; returning the credit above was this response's only
      // job.
      if (m_late_ != nullptr) m_late_->Increment();
    } else {
      RecordOutcomeLocked(shard, result.ok());
      if (result.ok()) {
        FinishLocked(call, std::move(result), &work);
      } else {
        AdvanceLocked(call, result.status(), &work);
      }
    }
  }
  RunWork(std::move(work));
}

void ShardRouter::ReleaseCreditLocked(size_t shard, Work* work) {
  Shard& s = shards_[shard];
  ++s.credits;
  while (s.credits > 0 && !s.waiting.empty()) {
    const uint64_t id = s.waiting.front();
    s.waiting.pop_front();
    // Stale entries are skipped, not dispatched.
    if (Call* waiter = WaiterLocked(id, shard)) {
      DispatchLocked(waiter, shard, work);
    }
  }
}

ShardRouter::Call* ShardRouter::WaiterLocked(uint64_t id, size_t shard) {
  auto it = live_.find(id);
  if (it == live_.end()) return nullptr;
  Call* call = it->second.get();
  // A call tries each shard once, so a call that left this shard's FIFO
  // never waits on it again.
  if (call->state != Call::State::kWaitingCredit || call->shard != shard) {
    return nullptr;
  }
  return call;
}

void ShardRouter::RecordOutcomeLocked(Shard& shard, bool ok) {
  ++shard.calls;
  if (shard.m_calls != nullptr) shard.m_calls->Increment();
  if (ok) {
    shard.consecutive_failures = 0;
    shard.healthy = true;
    return;
  }
  ++shard.failures;
  if (shard.m_failures != nullptr) shard.m_failures->Increment();
  if (++shard.consecutive_failures >= options_.unhealthy_after &&
      shard.healthy) {
    shard.healthy = false;
    shard.skipped_since_down = 0;
  }
}

void ShardRouter::RecordLatencyLocked(Shard& shard, double latency_ms) {
  if (options_.slow_threshold <= 0) return;
  shard.latency_ewma =
      shard.latency_samples == 0
          ? latency_ms
          : kEwmaAlpha * latency_ms + (1.0 - kEwmaAlpha) * shard.latency_ewma;
  ++shard.latency_samples;
  if (shard.latency_samples <
      static_cast<size_t>(options_.slow_min_samples)) {
    return;
  }
  const double median = FleetMedianEwmaLocked();
  if (median <= 0) return;
  const double limit =
      std::max(options_.slow_threshold * median, options_.slow_floor_ms);
  const bool is_slow = shard.latency_ewma > limit;
  if (is_slow && !shard.slow) {
    shard.slow = true;
    shard.skipped_since_down = 0;
    ++slow_demotions_;
    if (m_slow_demotions_ != nullptr) m_slow_demotions_->Increment();
  } else if (!is_slow && shard.slow) {
    shard.slow = false;  // probes brought the EWMA back under the limit
  }
}

double ShardRouter::FleetMedianEwmaLocked() const {
  std::vector<double> ewmas;
  ewmas.reserve(shards_.size());
  for (const Shard& s : shards_) {
    if (s.latency_samples >= static_cast<size_t>(options_.slow_min_samples)) {
      ewmas.push_back(s.latency_ewma);
    }
  }
  // A fleet needs at least two measured shards before "slower than the
  // fleet" means anything; a fleet of one is never slow.
  if (ewmas.size() < 2) return 0;
  std::sort(ewmas.begin(), ewmas.end());
  // Lower middle: with half the fleet slow, the median must still reflect
  // the fast half or the detector grades the sick shards on a curve.
  return ewmas[(ewmas.size() - 1) / 2];
}

void ShardRouter::TimerLoop() {
  while (true) {
    Work work;
    {
      MutexLock lock(mu_);
      if (stop_) return;
      ExpireLocked(MonotonicNowMs(), &work);
      if (work.launches.empty() && work.retired.empty()) {
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
    RunWork(std::move(work));
  }
}

void ShardRouter::ExpireLocked(double now_ms, Work* work) {
  // Credit waiters: FIFO order per shard is also deadline order (constant
  // timeout), so only fronts can expire.
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    std::deque<uint64_t>& waiting = shards_[shard].waiting;
    while (!waiting.empty()) {
      Call* call = WaiterLocked(waiting.front(), shard);
      if (call != nullptr && call->deadline_ms > now_ms) break;
      waiting.pop_front();  // expired, or a stale entry
      if (call != nullptr) AbandonLocked(call, "no credit", work);
    }
  }
  // In-flight attempts: abandon (the credit stays with the shard; the late
  // response or loss sweep returns it) and requeue the call. Collected
  // first: a call that exhausts its ranking may retire out of live_.
  std::vector<Call*> expired;
  for (const auto& [id, call] : live_) {
    if (call->state == Call::State::kInflight && call->deadline_ms <= now_ms) {
      expired.push_back(call.get());
    }
  }
  for (Call* call : expired) AbandonLocked(call, "no response", work);
}

void ShardRouter::AbandonLocked(Call* call, const char* waited_for,
                                Work* work) {
  const size_t shard = call->shard;
  call->state = Call::State::kIdle;
  if (m_timeouts_ != nullptr) m_timeouts_->Increment();
  RecordOutcomeLocked(shards_[shard], false);
  AdvanceLocked(call,
                Status::DeadlineExceeded(StrFormat(
                    "shard %s: %s within %.0f ms",
                    channels_[shard]->name().c_str(), waited_for,
                    options_.attempt_timeout_ms)),
                work);
}

double ShardRouter::NextDeadlineLocked() const {
  double next = kNoDeadline;
  for (const auto& [id, call] : live_) {
    if (call->state == Call::State::kWaitingCredit ||
        call->state == Call::State::kInflight) {
      next = std::min(next, call->deadline_ms);
    }
  }
  return next;
}

void ShardRouter::RunWork(Work work) {
  // A `done` only hands the answer back to its caller: it touches no
  // router state and submits nothing, so it may run anywhere, nested or
  // not.
  for (auto& call : work.retired) call->done(std::move(call->result));
  // An in-process Submit completes on this thread, and its completion can
  // make the next attempt ready (a requeue, or the FIFO head its credit
  // freed). Such launches join the loop already running here instead of
  // recursing into a new one, so a thread serving a chain of credit
  // waiters keeps a flat stack.
  static thread_local const ShardRouter* loop_owner = nullptr;
  static thread_local std::vector<Launch>* loop = nullptr;
  std::vector<Launch>& launches = work.launches;
  if (loop_owner == this) {
    loop->insert(loop->end(), launches.begin(), launches.end());
    return;
  }
  const ShardRouter* outer_owner = loop_owner;
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
    channels_[launch.shard]->Submit(
        *launch.what_if,
        [this, launch, clock,
         started_ms](Result<server::Server::WhatIfResult> result) {
          OnCompletion(launch, clock->NowMs() - started_ms,
                       std::move(result));
        });
    Work retired;
    {
      MutexLock lock(mu_);
      Call* call = live_.at(launch.call_id).get();
      if (--call->launching == 0 && call->state == Call::State::kFinished) {
        RetireLocked(call, &retired);
      }
    }
    for (auto& call : retired.retired) call->done(std::move(call->result));
  }
  loop_owner = outer_owner;
  loop = outer_loop;
}

size_t ShardRouter::successes() const {
  MutexLock lock(mu_);
  return successes_;
}

size_t ShardRouter::failovers() const {
  MutexLock lock(mu_);
  return failovers_;
}

size_t ShardRouter::exhausted() const {
  MutexLock lock(mu_);
  return exhausted_;
}

size_t ShardRouter::slow_demotions() const {
  MutexLock lock(mu_);
  return slow_demotions_;
}

size_t ShardRouter::calls(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].calls;
}

size_t ShardRouter::failures(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].failures;
}

size_t ShardRouter::queue_peak(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].queue_peak;
}

size_t ShardRouter::inflight_peak(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].inflight_peak;
}

bool ShardRouter::healthy(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].healthy;
}

bool ShardRouter::slow(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].slow;
}

double ShardRouter::latency_ewma_ms(size_t shard) const {
  MutexLock lock(mu_);
  return shards_[shard].latency_ewma;
}

void ShardRouter::RecordLatencyForTest(size_t shard, double latency_ms) {
  MutexLock lock(mu_);
  RecordLatencyLocked(shards_[shard], latency_ms);
}

}  // namespace dta::tuner
