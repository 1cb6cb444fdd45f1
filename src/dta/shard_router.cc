#include "dta/shard_router.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace dta::tuner {

namespace {

// splitmix64 avalanche: rendezvous scores must differ across shards even
// for call keys that differ in few bits.
uint64_t AvalancheMix(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

uint64_t RendezvousScore(uint64_t key, size_t shard) {
  return AvalancheMix(
      HashCombine(key, 0x7368617264ull + static_cast<uint64_t>(shard)));
}

// Smoothing factor for the per-shard latency EWMA: heavy enough that a
// latency spike registers within a few calls, light enough that one outlier
// does not demote a healthy shard.
constexpr double kEwmaAlpha = 0.25;

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
    // Strict index parse: plain digits only (strtol alone would accept
    // leading whitespace or a '+' sign and mask a typo'd spec).
    const std::string index_text = part.substr(0, colon);
    bool digits = !index_text.empty();
    for (char c : index_text) {
      if (c < '0' || c > '9') digits = false;
    }
    char* end = nullptr;
    const long index =
        digits ? std::strtol(index_text.c_str(), &end, 10) : -1;
    if (!digits || end != index_text.c_str() + index_text.size() ||
        index < 0) {
      return Status::InvalidArgument(
          "shard fault spec has a bad shard index: " + part);
    }
    auto spec = FaultSpec::Parse(part.substr(colon + 1));
    if (!spec.ok()) return spec.status();
    if (!out.per_shard.emplace(static_cast<int>(index), *spec).second) {
      return Status::InvalidArgument(StrFormat(
          "shard fault spec targets shard %ld twice", index));
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
  std::vector<rpc::ShardChannel*> raw;
  raw.reserve(channels_.size());
  shards_.reserve(channels_.size());
  for (size_t i = 0; i < channels_.size(); ++i) {
    raw.push_back(channels_[i].get());
    auto shard = std::make_unique<Shard>();
    if (options_.metrics != nullptr) {
      shard->m_calls =
          options_.metrics->GetCounter(StrFormat("shard.%zu.calls", i));
      shard->m_failures =
          options_.metrics->GetCounter(StrFormat("shard.%zu.failures", i));
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.metrics != nullptr) {
    m_failovers_ = options_.metrics->GetCounter("shard.router.failovers");
    m_exhausted_ = options_.metrics->GetCounter("shard.router.exhausted");
    m_slow_demotions_ =
        options_.metrics->GetCounter("shard.router.slow_demotions");
  }
  rpc::CompletionQueueOptions queue_options;
  queue_options.max_inflight_per_shard = options_.max_inflight_per_shard;
  queue_options.attempt_timeout_ms = options_.attempt_timeout_ms;
  // Latency on the router's clock: under a FakeClock every sample is 0 and
  // the slowness detector stays silent, whatever the transport.
  queue_options.clock = options_.clock;
  queue_options.metrics = options_.metrics;
  rpc::CompletionQueueHooks hooks;
  hooks.admit = [this](size_t shard) { return AdmitForPass(*shards_[shard]); };
  hooks.outcome = [this](size_t shard, bool ok) {
    RecordOutcome(*shards_[shard], ok);
  };
  hooks.latency = [this](size_t shard, double latency_ms) {
    RecordLatency(*shards_[shard], latency_ms);
  };
  queue_ = std::make_unique<rpc::CompletionQueue>(std::move(raw),
                                                  std::move(hooks),
                                                  queue_options);
}

Status ShardRouter::MirrorStatistics(const stats::Statistics& stat) {
  for (const auto& channel : channels_) {
    DTA_RETURN_IF_ERROR(channel->MirrorStatistics(stat));
  }
  return Status::Ok();
}

std::vector<size_t> ShardRouter::RankShards(uint64_t key) const {
  std::vector<std::pair<uint64_t, size_t>> scored;
  scored.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
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

bool ShardRouter::AdmitForPass(Shard& shard) {
  MutexLock shard_lock(shard.mu);
  // A shard demoted for slowness is routed around exactly like an unhealthy
  // one: same skip counter, same probe cadence, same recovery path.
  if (shard.healthy && !shard.slow) return true;
  if (++shard.skipped_since_down >= options_.probe_interval) {
    shard.skipped_since_down = 0;
    return true;  // recovery probe
  }
  return false;
}

void ShardRouter::RecordOutcome(Shard& shard, bool ok) {
  MutexLock shard_lock(shard.mu);
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

double ShardRouter::FleetMedianEwma() {
  std::vector<double> ewmas;
  ewmas.reserve(shards_.size());
  for (const auto& s : shards_) {
    MutexLock shard_lock(s->mu);
    if (s->latency_samples >=
        static_cast<size_t>(options_.slow_min_samples)) {
      ewmas.push_back(s->latency_ewma);
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

void ShardRouter::RecordLatency(Shard& shard, double latency_ms) {
  if (options_.slow_threshold <= 0) return;
  {
    MutexLock shard_lock(shard.mu);
    shard.latency_ewma =
        shard.latency_samples == 0
            ? latency_ms
            : kEwmaAlpha * latency_ms +
                  (1.0 - kEwmaAlpha) * shard.latency_ewma;
    ++shard.latency_samples;
    if (shard.latency_samples <
        static_cast<size_t>(options_.slow_min_samples)) {
      return;
    }
  }
  // Judged against the fleet, one shard lock at a time (never two at once).
  // The verdict can race with concurrent updates, but demotion is
  // routing-only, so a late or spurious flip costs latency, never
  // correctness.
  const double median = FleetMedianEwma();
  if (median <= 0) return;
  const double limit =
      std::max(options_.slow_threshold * median, options_.slow_floor_ms);
  MutexLock shard_lock(shard.mu);
  const bool is_slow = shard.latency_ewma > limit;
  if (is_slow && !shard.slow) {
    shard.slow = true;
    shard.skipped_since_down = 0;
    slow_demotions_.fetch_add(1, std::memory_order_relaxed);
    if (m_slow_demotions_ != nullptr) m_slow_demotions_->Increment();
  } else if (!is_slow && shard.slow) {
    shard.slow = false;  // probes brought the EWMA back under the limit
  }
}

Result<server::Server::WhatIfResult> ShardRouter::WhatIfCost(
    const WhatIfCall& call) {
  // The completion queue walks the ranking in two passes (pass 0 healthy
  // shards plus due probes, pass 1 whatever pass 0 routed around), owns
  // per-shard credits and deadlines, and reports how many shards it tried.
  size_t attempts = 1;
  auto r = queue_->Execute(call, RankShards(call.call_key), &attempts);
  // Every attempt but the last moved the call on to another shard.
  if (attempts > 1) {
    failovers_.fetch_add(attempts - 1, std::memory_order_relaxed);
    if (m_failovers_ != nullptr) m_failovers_->Increment(attempts - 1);
  }
  if (r.ok()) {
    successes_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Every shard failed this call; the last failure surfaces.
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    if (m_exhausted_ != nullptr) m_exhausted_->Increment();
  }
  return r;
}

size_t ShardRouter::calls(size_t shard) const {
  MutexLock shard_lock(shards_[shard]->mu);
  return shards_[shard]->calls;
}

size_t ShardRouter::failures(size_t shard) const {
  MutexLock shard_lock(shards_[shard]->mu);
  return shards_[shard]->failures;
}

bool ShardRouter::healthy(size_t shard) const {
  MutexLock shard_lock(shards_[shard]->mu);
  return shards_[shard]->healthy;
}

bool ShardRouter::slow(size_t shard) const {
  MutexLock shard_lock(shards_[shard]->mu);
  return shards_[shard]->slow;
}

double ShardRouter::latency_ewma_ms(size_t shard) const {
  MutexLock shard_lock(shards_[shard]->mu);
  return shards_[shard]->latency_ewma;
}

}  // namespace dta::tuner
