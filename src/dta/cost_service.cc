#include "dta/cost_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

#include "common/hash.h"
#include "common/strings.h"
#include "optimizer/heuristic_cost.h"

namespace dta::tuner {

namespace {

// [-1, 1) from a 64-bit hash, for deterministic backoff jitter.
double HashToSignedUnit(uint64_t h) {
  return static_cast<double>(Mix64(h) >> 11) * (2.0 / 9007199254740992.0) -
         1.0;
}

}  // namespace

Result<CostCache::Shard*> CostCache::Bind(uint64_t id,
                                          const std::string& text) {
  Shard& shard = shards_[id];
  if (shard.text.empty()) {
    shard.text = text;
  } else if (shard.text != text) {
    return Status::AlreadyExists(StrFormat(
        "statement id %llu is already bound to another statement's text",
        static_cast<unsigned long long>(id)));
  }
  return &shard;
}

size_t CostCache::size() const {
  size_t n = 0;
  for (const auto& kv : shards_) {
    const Shard& shard = kv.second;
    MutexLock lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

void CostCache::Clear() {
  for (auto& kv : shards_) {
    Shard& shard = kv.second;
    MutexLock lock(shard.mu);
    shard.entries.clear();
    shard.fresh.clear();
  }
}

void CostCache::Retain(const std::set<uint64_t>& ids) {
  for (auto it = shards_.begin(); it != shards_.end();) {
    it = ids.count(it->first) != 0 ? std::next(it) : shards_.erase(it);
  }
}

void CostCache::Restore(uint64_t id, const std::string& fingerprint,
                        const Entry& entry) {
  Shard& shard = shards_[id];
  MutexLock lock(shard.mu);
  shard.entries.insert_or_assign(fingerprint, entry);
}

void CostCache::ForEach(const EntryVisitor& fn) const {
  for (const auto& kv : shards_) {
    const Shard& shard = kv.second;
    MutexLock lock(shard.mu);
    for (const auto& [fp, entry] : shard.entries) fn(kv.first, fp, entry);
  }
}

void CostCache::TakeNew(const EntryVisitor& fn) {
  lists_new_ = true;
  for (auto& kv : shards_) {
    Shard& shard = kv.second;
    MutexLock lock(shard.mu);
    if (fn != nullptr) {
      // Publication order depends on thread scheduling; fingerprint order
      // does not.
      std::sort(shard.fresh.begin(), shard.fresh.end(),
                [](const auto& a, const auto& b) {
                  return a->first < b->first;
                });
      for (const auto& it : shard.fresh) fn(kv.first, it->first, it->second);
    }
    shard.fresh.clear();
  }
}

CostService::CostService(server::Server* server,
                         const optimizer::HardwareParams* simulate_hardware,
                         const workload::Workload* workload, Config config)
    : owned_backend_(std::make_unique<SingleServerBackend>(server)),
      backend_(owned_backend_.get()),
      simulate_hardware_(simulate_hardware),
      workload_(workload),
      config_(std::move(config)) {
  Init(nullptr);
}

CostService::CostService(CostBackend* backend,
                         const optimizer::HardwareParams* simulate_hardware,
                         const workload::Workload* workload, Config config,
                         CostCache* cache)
    : backend_(backend),
      simulate_hardware_(simulate_hardware),
      workload_(workload),
      config_(std::move(config)) {
  Init(cache);
}

void CostService::Init(CostCache* cache) {
  clock_ = config_.clock != nullptr ? config_.clock
                                    : MonotonicClock::Instance();
  if (config_.metrics != nullptr) {
    MetricsRegistry* m = config_.metrics;
    m_lookups_ = m->GetCounter("whatif.lookups");
    m_hits_ = m->GetCounter("whatif.cache_hits");
    m_calls_ = m->GetCounter("whatif.calls");
    m_retries_ = m->GetCounter("whatif.retries");
    m_degraded_ = m->GetCounter("whatif.degraded_calls");
    m_latency_ = m->GetHistogram("whatif.latency_ms");
    m_simulated_ = m->GetHistogram("whatif.simulated_ms");
    m_attempts_ = m->GetHistogram("whatif.attempts");
    if (config_.derived.enabled) {
      m_derived_ = m->GetCounter("whatif.derived_answers");
      m_fallbacks_ = m->GetCounter("whatif.derivation_fallbacks");
      m_saved_ = m->GetCounter("whatif.calls_saved");
      if (config_.derived.exact) {
        m_derivation_error_ = m->GetHistogram("derivation.error_pct");
      }
    }
  }
  cache_ = cache != nullptr ? cache : &owned_cache_;
  statement_tables_.reserve(workload_->size());
  for (const auto& ws : workload_->statements()) {
    statement_tables_.push_back(sql::ReferencedTables(ws.stmt));
  }
  // A separate pass: interleaving the session-long table sets with the
  // shards and their texts fragments the heap (higher peak RSS).
  shards_.reserve(workload_->size());
  std::set<uint64_t> seen;
  for (const auto& ws : workload_->statements()) {
    auto bound = cache_->Bind(ws.id, ws.text);
    if (!bound.ok() && bind_status_.ok()) bind_status_ = bound.status();
    shards_.push_back(bound.ok() ? *bound : nullptr);
    if (bound.ok() && seen.insert(ws.id).second) {
      CostCache::Shard& shard = **bound;
      MutexLock lock(shard.mu);
      seeded_entries_ += shard.entries.size();
    }
  }
}

void CostService::RecordAttempts(int attempts) {
  size_t bucket = std::min<size_t>(static_cast<size_t>(attempts),
                                   kRetryHistogramBuckets) -
                  1;
  attempt_histogram_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (m_attempts_ != nullptr) {
    m_attempts_->Observe(static_cast<double>(attempts));
  }
}

Result<CostService::Entry> CostService::PriceWithRetries(
    size_t index, const catalog::Configuration& config,
    const std::string& fingerprint) {
  const workload::WorkloadStatement& ws = workload_->statements()[index];
  const sql::Statement& stmt = ws.stmt;
  // The fault key identifies the *logical* call — statement plus relevant
  // fingerprint — so injected outcomes are independent of which full
  // configuration races a given shard entry first and of the thread count.
  uint64_t fault_key = HashCombine(ws.id, HashBytes(fingerprint));
  if (fault_key == 0) fault_key = 1;

  const RetryPolicy& retry = config_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (m_calls_ != nullptr) m_calls_->Increment();
  WhatIfCall call;
  call.stmt = &stmt;
  call.text = &ws.text;
  call.config = &config;
  call.simulate_hardware = simulate_hardware_;
  call.call_key = fault_key;
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    auto r = backend_->WhatIfCost(call);
    if (r.ok()) {
      RecordAttempts(attempt);
      // The server's simulated optimization duration is deterministic in
      // the statement and configuration, so this histogram is identical
      // run-to-run even under a real wall clock.
      if (m_simulated_ != nullptr) m_simulated_->Observe(r->simulated_ms);
      if (!r->missing_stats.empty()) {
        MutexLock lock(missing_mu_);
        for (const auto& key : r->missing_stats) missing_.insert(key);
      }
      return Entry{r->cost, false};
    }
    last = r.status();
    if (!IsTransientCode(last.code())) {
      // Permanent: retrying is futile.
      RecordAttempts(attempt);
      break;
    }
    if (attempt == max_attempts) {
      RecordAttempts(attempt);
      break;
    }
    double backoff =
        std::min(retry.max_backoff_ms,
                 retry.initial_backoff_ms *
                     std::pow(retry.backoff_multiplier, attempt - 1));
    backoff *= 1.0 + retry.jitter_fraction *
                         HashToSignedUnit(HashCombine(
                             fault_key, static_cast<uint64_t>(attempt)));
    backoff = std::max(0.0, backoff);
    if (config_.remaining_ms != nullptr) {
      // Deadline-capped retries: never sleep past the session budget — a
      // retry we cannot afford is treated as exhausted.
      double remaining = config_.remaining_ms();
      if (remaining <= backoff) {
        RecordAttempts(attempt);
        last = Status::DeadlineExceeded(
            "session time budget exhausted while retrying what-if call");
        break;
      }
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (m_retries_ != nullptr) m_retries_->Increment();
  }

  if (!config_.degrade_on_failure) return last;
  // Graceful degradation: a configuration-independent heuristic estimate
  // stands in, and the statement is flagged for the report.
  degraded_.fetch_add(1, std::memory_order_relaxed);
  if (m_degraded_ != nullptr) m_degraded_->Increment();
  {
    MutexLock lock(degraded_mu_);
    degraded_ids_.insert(ws.id);
  }
  const optimizer::HardwareParams& hw =
      simulate_hardware_ != nullptr ? *simulate_hardware_
                                    : backend_->primary()->hardware();
  double cost = optimizer::HeuristicStatementCost(
      stmt, backend_->primary()->catalog(), optimizer::CostModel(hw));
  return Entry{cost, true};
}

template <typename PriceFn>
Result<CostService::Entry> CostService::CachedEntry(
    size_t index, const std::string& fingerprint, const PriceFn& price) {
  if (m_lookups_ != nullptr) m_lookups_->Increment();
  CostCache::Shard& shard = *shards_[index];
  {
    MutexLock lock(shard.mu);
    bool waited = false;
    for (;;) {
      auto it = shard.entries.find(fingerprint);
      if (it != shard.entries.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (m_hits_ != nullptr) m_hits_->Increment();
        if (waited) dedup_waits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      // First thread to miss claims the pricing; later arrivals wait for
      // the result instead of duplicating the what-if call, which keeps
      // whatif_calls() exact at any thread count.
      if (shard.inflight.insert(fingerprint).second) break;
      waited = true;
      shard.cv.Wait(shard.mu);
    }
  }
  // Price outside the lock (the what-if call dominates; holding the shard
  // lock across it would serialize enumeration — and the derived path
  // re-enters CachedEntry for its atoms).
  const double t0 = clock_->NowMs();
  Result<Entry> priced = price();
  if (m_latency_ != nullptr) m_latency_->Observe(clock_->NowMs() - t0);
  {
    MutexLock lock(shard.mu);
    shard.inflight.erase(fingerprint);
    if (priced.ok()) {
      const auto it = shard.entries.emplace(fingerprint, *priced).first;
      if (cache_->lists_new()) shard.fresh.push_back(it);
    }
    shard.cv.NotifyAll();
  }
  return priced;
}

Result<double> CostService::StatementCost(
    size_t index, const catalog::Configuration& config) {
  if (shards_[index] == nullptr) return bind_status_;
  // The one relevance walk of this lookup: its fingerprint is the cache key,
  // and a miss hands the same set to derivation.
  const RelevantSet relevant =
      CollectRelevant(statement_tables_[index], config);
  auto entry = CachedEntry(index, relevant.fingerprint, [&] {
    return PriceOrDerive(index, config, relevant);
  });
  if (!entry.ok()) return entry.status();
  if (entry->degraded) {  // hits too: a copy or an earlier round priced it
    MutexLock lock(degraded_mu_);
    degraded_ids_.insert(workload_->statements()[index].id);
  }
  return entry->cost;
}

Result<CostService::Entry> CostService::PriceOrDerive(
    size_t index, const catalog::Configuration& config,
    const RelevantSet& relevant) {
  if (config_.derived.enabled) {
    const sql::Statement& stmt = workload_->statements()[index].stmt;
    Decomposition decomp = DecomposeConfiguration(
        stmt.kind(), relevant, config_.derived.max_atoms);
    // The bounded singleton approximation is only worth pricing atoms for
    // when a nonzero error bound can admit its answer.
    const bool derivable =
        decomp.outcome == Decomposition::Outcome::kDerivable ||
        (decomp.outcome == Decomposition::Outcome::kTooManyAtoms &&
         config_.derived.error_bound_pct > 0);
    if (derivable) {
      // Price the atoms through the normal cached path, each keyed by its
      // own fingerprint. An atom's configuration is built only on a miss
      // and priced by a real call (atoms decompose trivially), so every
      // atom lands in the cache priced exactly once per session.
      std::vector<double> atom_costs;
      atom_costs.reserve(decomp.atoms.size());
      bool degraded_atom = false;
      for (const auto& atom : decomp.atoms) {
        auto atom_entry = CachedEntry(index, atom.fingerprint, [&] {
          return PriceWithRetries(index, BuildAtom(relevant, atom),
                                  atom.fingerprint);
        });
        if (!atom_entry.ok()) return atom_entry.status();
        degraded_atom |= atom_entry->degraded;
        atom_costs.push_back(atom_entry->cost);
      }
      bool usable = !degraded_atom;
      if (usable && decomp.outcome == Decomposition::Outcome::kTooManyAtoms) {
        // Bounded singleton approximation: only admitted when its a-priori
        // error estimate fits under the configured bound.
        const double estimate = BoundedErrorEstimatePct(decomp, atom_costs);
        usable = estimate <= config_.derived.error_bound_pct;
      }
      if (usable) {
        const double derived_cost = CombineAtomCosts(atom_costs);
        derived_answers_.fetch_add(1, std::memory_order_relaxed);
        if (m_derived_ != nullptr) m_derived_->Increment();
        if (!config_.derived.exact) {
          calls_saved_.fetch_add(1, std::memory_order_relaxed);
          if (m_saved_ != nullptr) m_saved_->Increment();
          return Entry{derived_cost, false, true};
        }
        // Exact mode: make the real call anyway, record the derivation
        // error, and publish the real cost (the derivation is the thing
        // under test, not the answer).
        auto real = PriceWithRetries(index, config, relevant.fingerprint);
        if (!real.ok()) return real.status();
        double error_pct = 0;
        if (real->cost > 0) {
          error_pct = 100.0 * std::abs(derived_cost - real->cost) / real->cost;
        } else if (derived_cost != real->cost) {
          error_pct = 100.0;
        }
        if (m_derivation_error_ != nullptr) {
          m_derivation_error_->Observe(error_pct);
        }
        if (error_pct > config_.derived.error_bound_pct) {
          errors_exceeded_.fetch_add(1, std::memory_order_relaxed);
        }
        return *real;
      }
    }
    if (derivable ||
        decomp.outcome == Decomposition::Outcome::kTooManyAtoms ||
        decomp.outcome == Decomposition::Outcome::kUnsupportedStatement) {
      // A non-trivial variable set that derivation could not serve: the
      // real call below is a derivation fallback.
      derivation_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      if (m_fallbacks_ != nullptr) m_fallbacks_->Increment();
    }
  }
  return PriceWithRetries(index, config, relevant.fingerprint);
}

Result<double> CostService::WorkloadCost(const catalog::Configuration& config,
                                         ThreadPool* pool) {
  const size_t n = workload_->size();
  std::vector<double> costs(n, 0.0);
  std::vector<Status> statuses(n);
  ParallelFor(pool, n, [&](size_t i) {
    auto c = StatementCost(i, config);
    if (!c.ok()) {
      statuses[i] = c.status();
      return;
    }
    costs[i] = *c;
  });
  // Serial reduction in statement order: the total is bit-identical no
  // matter how many threads priced the statements.
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
    total += costs[i] * workload_->statements()[i].weight;
  }
  return total;
}

std::set<stats::StatsKey> CostService::missing_stats() const {
  MutexLock lock(missing_mu_);
  return missing_;
}

void CostService::ClearMissingStats() {
  MutexLock lock(missing_mu_);
  missing_.clear();
}

void CostService::SeedMissingStats(const std::set<stats::StatsKey>& keys) {
  MutexLock lock(missing_mu_);
  for (const auto& key : keys) missing_.insert(key);
}

std::set<size_t> CostService::degraded_statements() const {
  std::set<size_t> out;
  MutexLock lock(degraded_mu_);
  for (size_t i = 0; i < workload_->size(); ++i) {
    if (degraded_ids_.count(workload_->statements()[i].id) != 0) out.insert(i);
  }
  return out;
}

void CostService::SeedDegradedStatements(const std::set<size_t>& statements) {
  MutexLock lock(degraded_mu_);
  for (size_t i : statements) {
    if (i < workload_->size()) {
      degraded_ids_.insert(workload_->statements()[i].id);
    }
  }
}

std::array<size_t, kRetryHistogramBuckets> CostService::retry_histogram()
    const {
  std::array<size_t, kRetryHistogramBuckets> out{};
  for (size_t i = 0; i < kRetryHistogramBuckets; ++i) {
    out[i] = attempt_histogram_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace dta::tuner
