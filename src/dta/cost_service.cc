#include "dta/cost_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <thread>
#include <utility>

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

Result<server::Server::WhatIfResult> CostBackend::WhatIfCost(
    const WhatIfCall& call) {
  struct Answer {
    Mutex mu;
    CondVar cv;
    std::optional<Result<server::Server::WhatIfResult>> result GUARDED_BY(mu);
  };
  Answer answer;
  Submit(call, [&answer](Result<server::Server::WhatIfResult> r) {
    // Notified under the lock: once the caller sees the answer, the
    // completion no longer touches `answer`.
    MutexLock lock(answer.mu);
    answer.result = std::move(r);
    answer.cv.NotifyAll();
  });
  MutexLock lock(answer.mu);
  while (!answer.result.has_value()) answer.cv.Wait(answer.mu);
  return std::move(*answer.result);
}

WhatIfCall CostService::MakeCall(size_t index,
                                 const catalog::Configuration& config,
                                 const std::string& fingerprint) {
  const workload::WorkloadStatement& ws = workload_->statements()[index];
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (m_calls_ != nullptr) m_calls_->Increment();
  WhatIfCall call;
  call.stmt = &ws.stmt;
  call.text = &ws.text;
  call.config = &config;
  call.simulate_hardware = simulate_hardware_;
  // The key identifies the *logical* call — statement plus relevant
  // fingerprint — so injected outcomes are independent of which full
  // configuration claims a given pair first and of the thread count.
  call.call_key = HashCombine(ws.id, HashBytes(fingerprint));
  if (call.call_key == 0) call.call_key = 1;
  return call;
}

Result<CostService::Entry> CostService::SettleCall(
    size_t index, const WhatIfCall& call,
    Result<server::Server::WhatIfResult> first) {
  const RetryPolicy& retry = config_.retry;
  const int max_attempts = std::max(1, retry.max_attempts);
  Result<server::Server::WhatIfResult> r = std::move(first);
  Status last;
  for (int attempt = 1;; ++attempt) {
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
                             call.call_key, static_cast<uint64_t>(attempt)));
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
    r = backend_->WhatIfCost(call);
  }

  if (!config_.degrade_on_failure) return last;
  // Graceful degradation: a configuration-independent heuristic estimate
  // stands in, and the statement is flagged for the report.
  const workload::WorkloadStatement& ws = workload_->statements()[index];
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
      ws.stmt, backend_->primary()->catalog(), optimizer::CostModel(hw));
  return Entry{cost, true};
}

// ---------------------------------------------------------------- batches

// One StatementCosts call, on the calling thread's stack. Every member is
// the calling thread's alone except `landed_`, which backend completions
// append to from any thread.
class CostService::Batch {
 public:
  Batch(CostService* service, const Lookup* lookups, Result<double>* out,
        size_t n)
      : service_(*service), lookups_(lookups), out_(out), n_(n) {}
  // Backend completions hold its address.
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  // Prices every lookup; returns once each has its result and every pair
  // this batch claimed is published or released.
  void Run();

 private:
  static constexpr size_t kNoLookup = static_cast<size_t>(-1);
  using ClaimIt = std::map<std::string, CostCache::Claim>::iterator;
  struct Pair;

  // Who waits for a pair's entry: lookup `lookup`, or atom `atom` of the
  // derived pair `derived`.
  struct Need {
    size_t lookup = kNoLookup;
    Pair* derived = nullptr;
    size_t atom = 0;
  };

  // A claimed pair priced by derivation: its atoms' costs as they land.
  struct Derivation {
    const catalog::Configuration* config = nullptr;  // the lookup's
    RelevantSet relevant;
    Decomposition decomp;  // points into `relevant`
    std::vector<double> atom_costs;
    size_t open_atoms = 0;
    bool issuing = true;  // atoms still being claimed
    bool degraded_atom = false;
    // Exact mode: the derived cost the real call is checked against.
    bool checking = false;
    double derived_cost = 0;
  };

  // A (statement, fingerprint) pair this batch claimed, open until it is
  // published (priced) or released (failed).
  struct Pair {
    size_t statement = 0;
    CostCache::Shard* shard = nullptr;
    // The pair's claim in the shard's in-flight map; its key is the
    // fingerprint, which publication moves into the cache entry.
    ClaimIt claim;
    double claimed_ms = 0;
    bool open = true;
    // Who waits for the entry: the need that claimed the pair, then those
    // that found it open, in arrival order.
    Need need;
    std::vector<Need> later_needs;
    // The pair's real what-if call, while one is out; an atom owns the
    // configuration the call borrows.
    WhatIfCall call;
    std::optional<catalog::Configuration> atom_config;
    std::optional<Derivation> derivation;
  };

  // A need on a pair another batch claimed.
  struct Foreign {
    size_t statement = 0;
    std::string fingerprint;
    Need need;
  };

  using Landing = std::pair<Pair*, Result<server::Server::WhatIfResult>>;

  // Claims the lookup's pair, or records where its cost will come from.
  // `count` is false when a lookup is taken over from a failed owner: the
  // lookup was already counted.
  void StartLookup(size_t k, bool count);
  // Atom `atom` of `derived`, likewise.
  void StartAtom(Pair* derived, size_t atom, bool count);
  // Looks (statement, fingerprint) up for `need`. A published entry is
  // delivered at once, a pair this batch claimed gains the need, and a pair
  // another batch claimed becomes a foreign wait; each of those returns
  // null. A cold pair is claimed for this batch and returned.
  Pair* Acquire(size_t statement, const std::string& fingerprint,
                const Need& need, bool count);
  // Prices a lookup's freshly claimed pair: by derivation when enabled,
  // eligible and valid; by a real what-if call otherwise.
  void Price(Pair* pair, const catalog::Configuration* config,
             RelevantSet relevant);
  void AtomLanded(Pair* derived, size_t atom, const Result<Entry>& entry);
  void FinishDerivation(Pair* derived);
  // Hands the pair's real call to the backend. An in-process backend
  // answers inside Submit, and the answer is settled before this returns,
  // so such a batch prices in the one-at-a-time loop's order.
  void SubmitCall(Pair* pair, const catalog::Configuration& config);
  void Land(Pair* pair, Result<server::Server::WhatIfResult> result)
      EXCLUDES(mu_);
  // Settles every landed answer (a landing may submit further calls).
  void ProcessLanded() EXCLUDES(mu_);
  void CallLanded(Pair* pair, Result<server::Server::WhatIfResult> first);
  // Publishes (ok) or releases (error) the pair and delivers its needs.
  void Close(Pair* pair, const Result<Entry>& entry);
  void Deliver(const Need& need, const Result<Entry>& entry);
  void Hit(bool waited);
  // Waits for one foreign pair: a published entry is delivered as a hit; a
  // released pair is taken over.
  void AwaitForeign(Foreign foreign);

  CostService& service_;
  const Lookup* lookups_;
  Result<double>* out_;
  size_t n_;
  // unique_ptr: a Pair's address is its claim and its completions' target.
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::vector<Foreign> foreign_;
  size_t outstanding_ = 0;  // calls submitted and not yet settled
  Mutex mu_;
  // Landed answers in landing order; those before `settled_` are taken.
  std::vector<Landing> landed_ GUARDED_BY(mu_);
  size_t settled_ GUARDED_BY(mu_) = 0;
};

void CostService::Batch::Run() {
  for (size_t k = 0; k < n_; ++k) StartLookup(k, /*count=*/true);
  for (;;) {
    while (outstanding_ > 0) {
      {
        MutexLock lock(mu_);
        while (settled_ == landed_.size()) service_.landed_cv_.Wait(mu_);
      }
      ProcessLanded();
    }
    if (foreign_.empty()) break;
    // Every pair this batch prices by a real call is published now. An atom
    // is such a pair on every batch, so waiting on another batch's atom
    // cannot deadlock even while this batch's derived pairs stay open.
    // Another batch's lookup pair may itself be derived, so it is waited on
    // only once this batch has no pair open: its atoms have all landed.
    auto next = std::find_if(foreign_.begin(), foreign_.end(),
                             [](const Foreign& f) {
                               return f.need.derived != nullptr;
                             });
    if (next == foreign_.end()) next = foreign_.begin();
    Foreign foreign = std::move(*next);
    foreign_.erase(next);
    AwaitForeign(std::move(foreign));
  }
}

void CostService::Batch::StartLookup(size_t k, bool count) {
  const Lookup& lookup = lookups_[k];
  if (service_.shards_[lookup.statement] == nullptr) {
    out_[k] = service_.bind_status_;
    return;
  }
  // The one relevance walk of this lookup: its fingerprint is the cache
  // key, and a miss hands the same set to derivation.
  RelevantSet relevant = CollectRelevant(
      service_.statement_tables_[lookup.statement], *lookup.config);
  Need need;
  need.lookup = k;
  Pair* pair = Acquire(lookup.statement, relevant.fingerprint, need, count);
  if (pair != nullptr) Price(pair, lookup.config, std::move(relevant));
}

void CostService::Batch::StartAtom(Pair* derived, size_t atom, bool count) {
  Derivation& d = *derived->derivation;
  const Decomposition::Atom& a = d.decomp.atoms[atom];
  Need need;
  need.derived = derived;
  need.atom = atom;
  Pair* pair = Acquire(derived->statement, a.fingerprint, need, count);
  if (pair == nullptr) return;
  // Atoms decompose trivially, so an atom is always one real call; its
  // configuration is built only on this miss.
  pair->atom_config.emplace(BuildAtom(d.relevant, a));
  SubmitCall(pair, *pair->atom_config);
}

CostService::Batch::Pair* CostService::Batch::Acquire(
    size_t statement, const std::string& fingerprint, const Need& need,
    bool count) {
  if (count && service_.m_lookups_ != nullptr) {
    service_.m_lookups_->Increment();
  }
  CostCache::Shard& shard = *service_.shards_[statement];
  Entry hit;
  Pair* own = nullptr;
  bool claimed = false;
  ClaimIt claim;
  {
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(fingerprint);
    if (it != shard.entries.end()) {
      hit = it->second;
    } else {
      auto [at, inserted] = shard.inflight.try_emplace(fingerprint);
      if (inserted) {
        at->second = CostCache::Claim{this, pairs_.size()};
        claim = at;
        claimed = true;
      } else if (at->second.owner == this) {
        own = pairs_[at->second.pair].get();
      } else {
        foreign_.push_back(Foreign{statement, fingerprint, need});
        return nullptr;
      }
    }
  }
  if (own != nullptr) {
    // An earlier lookup of this batch is pricing the pair; one at a time,
    // this lookup would have found it published.
    Hit(false);
    own->later_needs.push_back(need);
    return nullptr;
  }
  if (!claimed) {
    Hit(false);
    Deliver(need, hit);
    return nullptr;
  }
  auto pair = std::make_unique<Pair>();
  pair->statement = statement;
  pair->shard = &shard;
  pair->claim = claim;
  pair->claimed_ms = service_.clock_->NowMs();
  pair->need = need;
  pairs_.push_back(std::move(pair));
  return pairs_.back().get();
}

void CostService::Batch::Hit(bool waited) {
  service_.hits_.fetch_add(1, std::memory_order_relaxed);
  if (service_.m_hits_ != nullptr) service_.m_hits_->Increment();
  if (waited) service_.dedup_waits_.fetch_add(1, std::memory_order_relaxed);
}

void CostService::Batch::Price(Pair* pair,
                               const catalog::Configuration* config,
                               RelevantSet relevant) {
  const DerivedCostOptions& opts = service_.config_.derived;
  if (opts.enabled) {
    const sql::Statement& stmt =
        service_.workload_->statements()[pair->statement].stmt;
    Decomposition decomp =
        DecomposeConfiguration(stmt.kind(), relevant, opts.max_atoms);
    // The bounded singleton approximation is only worth pricing atoms for
    // when a nonzero error bound can admit its answer.
    const bool derivable =
        decomp.outcome == Decomposition::Outcome::kDerivable ||
        (decomp.outcome == Decomposition::Outcome::kTooManyAtoms &&
         opts.error_bound_pct > 0);
    if (derivable) {
      // Moving the set keeps its elements, which the atoms point into.
      Derivation& d = pair->derivation.emplace();
      d.config = config;
      d.relevant = std::move(relevant);
      d.decomp = std::move(decomp);
      d.atom_costs.assign(d.decomp.atoms.size(), 0.0);
      // Price the atoms through the normal cached path, each keyed by its
      // own fingerprint, so every atom lands in the cache priced exactly
      // once per session. An atom that fails closes the pair (and frees its
      // derivation), which stops the claiming as it stops the derivation.
      const size_t atoms = pair->derivation->decomp.atoms.size();
      for (size_t a = 0; a < atoms; ++a) {
        ++pair->derivation->open_atoms;
        StartAtom(pair, a, /*count=*/true);
        if (!pair->open) return;
      }
      pair->derivation->issuing = false;
      if (pair->derivation->open_atoms == 0) FinishDerivation(pair);
      return;
    }
    if (decomp.outcome == Decomposition::Outcome::kTooManyAtoms ||
        decomp.outcome == Decomposition::Outcome::kUnsupportedStatement) {
      // A non-trivial variable set that derivation could not serve: the
      // real call below is a derivation fallback.
      service_.CountFallback();
    }
  }
  SubmitCall(pair, *config);
}

void CostService::Batch::AtomLanded(Pair* derived, size_t atom,
                                    const Result<Entry>& entry) {
  if (!derived->open) return;  // an earlier atom already failed it
  if (!entry.ok()) {
    Close(derived, entry.status());
    return;
  }
  Derivation& d = *derived->derivation;
  d.degraded_atom |= entry->degraded;
  d.atom_costs[atom] = entry->cost;
  if (--d.open_atoms == 0 && !d.issuing) FinishDerivation(derived);
}

void CostService::Batch::FinishDerivation(Pair* derived) {
  Derivation& d = *derived->derivation;
  const DerivedCostOptions& opts = service_.config_.derived;
  bool usable = !d.degraded_atom;
  if (usable && d.decomp.outcome == Decomposition::Outcome::kTooManyAtoms) {
    // Bounded singleton approximation: only admitted when its a-priori
    // error estimate fits under the configured bound.
    usable = BoundedErrorEstimatePct(d.decomp, d.atom_costs) <=
             opts.error_bound_pct;
  }
  if (!usable) {
    service_.CountFallback();
    SubmitCall(derived, *d.config);
    return;
  }
  d.derived_cost = CombineAtomCosts(d.atom_costs);
  service_.derived_answers_.fetch_add(1, std::memory_order_relaxed);
  if (service_.m_derived_ != nullptr) service_.m_derived_->Increment();
  if (!opts.exact) {
    service_.calls_saved_.fetch_add(1, std::memory_order_relaxed);
    if (service_.m_saved_ != nullptr) service_.m_saved_->Increment();
    Close(derived, Entry{d.derived_cost, false, true});
    return;
  }
  // Exact mode: make the real call anyway, record the derivation error,
  // and publish the real cost (the derivation is the thing under test, not
  // the answer).
  d.checking = true;
  SubmitCall(derived, *d.config);
}

void CostService::Batch::SubmitCall(Pair* pair,
                                    const catalog::Configuration& config) {
  pair->call = service_.MakeCall(pair->statement, config, pair->claim->first);
  ++outstanding_;
  service_.backend_->Submit(
      pair->call, [this, pair](Result<server::Server::WhatIfResult> r) {
        Land(pair, std::move(r));
      });
  ProcessLanded();
}

void CostService::Batch::Land(Pair* pair,
                              Result<server::Server::WhatIfResult> result) {
  // Notified under the lock: once Run sees the landing, the completion no
  // longer touches this batch.
  MutexLock lock(mu_);
  landed_.emplace_back(pair, std::move(result));
  service_.landed_cv_.NotifyAll();
}

void CostService::Batch::ProcessLanded() {
  for (;;) {
    Pair* pair = nullptr;
    std::optional<Result<server::Server::WhatIfResult>> answer;
    {
      MutexLock lock(mu_);
      if (settled_ == landed_.size()) {
        landed_.clear();  // keeps its capacity for the next landing
        settled_ = 0;
        return;
      }
      Landing& landing = landed_[settled_++];
      pair = landing.first;
      answer.emplace(std::move(landing.second));
    }
    --outstanding_;
    CallLanded(pair, std::move(*answer));
  }
}

void CostService::Batch::CallLanded(
    Pair* pair, Result<server::Server::WhatIfResult> first) {
  Result<Entry> real =
      service_.SettleCall(pair->statement, pair->call, std::move(first));
  const Derivation* d = pair->derivation ? &*pair->derivation : nullptr;
  if (d != nullptr && d->checking && real.ok()) {
    double error_pct = 0;
    if (real->cost > 0) {
      error_pct = 100.0 * std::abs(d->derived_cost - real->cost) / real->cost;
    } else if (d->derived_cost != real->cost) {
      error_pct = 100.0;
    }
    if (service_.m_derivation_error_ != nullptr) {
      service_.m_derivation_error_->Observe(error_pct);
    }
    if (error_pct > service_.config_.derived.error_bound_pct) {
      service_.errors_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Close(pair, real);
}

void CostService::Batch::Close(Pair* pair, const Result<Entry>& entry) {
  if (service_.m_latency_ != nullptr) {
    service_.m_latency_->Observe(service_.clock_->NowMs() - pair->claimed_ms);
  }
  CostCache::Shard& shard = *pair->shard;
  {
    MutexLock lock(shard.mu);
    auto claim = shard.inflight.extract(pair->claim);
    if (entry.ok()) {
      const auto it =
          shard.entries.emplace(std::move(claim.key()), *entry).first;
      if (service_.cache_->lists_new()) shard.fresh.push_back(it);
    }
    shard.cv.NotifyAll();
  }
  pair->open = false;
  pair->atom_config.reset();
  pair->derivation.reset();
  const Need need = pair->need;
  std::vector<Need> later = std::move(pair->later_needs);
  Deliver(need, entry);
  for (const Need& waiting : later) Deliver(waiting, entry);
}

void CostService::Batch::Deliver(const Need& need,
                                 const Result<Entry>& entry) {
  if (need.derived != nullptr) {
    AtomLanded(need.derived, need.atom, entry);
    return;
  }
  if (!entry.ok()) {
    out_[need.lookup] = entry.status();
    return;
  }
  if (entry->degraded) {  // hits too: a copy or an earlier round priced it
    const size_t statement = lookups_[need.lookup].statement;
    MutexLock lock(service_.degraded_mu_);
    service_.degraded_ids_.insert(
        service_.workload_->statements()[statement].id);
  }
  out_[need.lookup] = entry->cost;
}

void CostService::Batch::AwaitForeign(Foreign foreign) {
  CostCache::Shard& shard = *service_.shards_[foreign.statement];
  Entry hit;
  Pair* own = nullptr;
  bool published = false;
  {
    MutexLock lock(shard.mu);
    for (;;) {
      auto it = shard.entries.find(foreign.fingerprint);
      if (it != shard.entries.end()) {
        hit = it->second;
        published = true;
        break;
      }
      auto claim = shard.inflight.find(foreign.fingerprint);
      if (claim == shard.inflight.end()) break;  // released unpriced
      if (claim->second.owner == this) {
        // Taken over by another of this batch's needs.
        own = pairs_[claim->second.pair].get();
        break;
      }
      shard.cv.Wait(shard.mu);
    }
  }
  if (published) {
    Hit(true);
    Deliver(foreign.need, hit);
  } else if (own != nullptr) {
    Hit(false);
    own->later_needs.push_back(foreign.need);
  } else if (foreign.need.derived != nullptr) {
    // The owner's pricing failed: claim and price the pair here, as the
    // lookup one at a time would have after waking.
    if (foreign.need.derived->open) {
      StartAtom(foreign.need.derived, foreign.need.atom, /*count=*/false);
    }
  } else {
    StartLookup(foreign.need.lookup, /*count=*/false);
  }
}

void CostService::CountFallback() {
  derivation_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  if (m_fallbacks_ != nullptr) m_fallbacks_->Increment();
}

std::vector<Result<double>> CostService::StatementCosts(
    const std::vector<Lookup>& lookups) {
  std::vector<Result<double>> out(lookups.size(), Status::Internal("unpriced"));
  Batch(this, lookups.data(), out.data(), lookups.size()).Run();
  return out;
}

Result<double> CostService::StatementCost(
    size_t index, const catalog::Configuration& config) {
  const Lookup lookup{index, &config};
  Result<double> out = Status::Internal("unpriced");
  Batch(this, &lookup, &out, 1).Run();
  return out;
}

Result<double> CostService::WorkloadCost(const catalog::Configuration& config) {
  const size_t n = workload_->size();
  std::vector<Lookup> lookups(n);
  for (size_t i = 0; i < n; ++i) lookups[i] = Lookup{i, &config};
  const std::vector<Result<double>> costs = StatementCosts(lookups);
  // Serial reduction in statement order: the total is bit-identical no
  // matter how the statements were priced.
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!costs[i].ok()) return costs[i].status();
    total += *costs[i] * workload_->statements()[i].weight;
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
