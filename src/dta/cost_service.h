// Cached, fault-tolerant what-if costing of a workload against a tuning
// server.
//
// DTA makes thousands of what-if calls during search; most configurations
// differ from previously priced ones only in structures irrelevant to a
// given statement. The cost cache keys each statement's cached cost by its
// id (the hash of its text) and the fingerprint of the *relevant* subset of
// the configuration (structures touching the statement's tables), so adding
// a candidate re-prices only affected statements.
//
// The service is thread-safe: the cache is sharded per statement id with a
// per-shard mutex, counters are atomic, and the missing-statistics set is
// mutex-guarded, so the tuner's worker pool can hammer StatementCost
// concurrently. What-if calls run outside any lock; a cold (statement,
// fingerprint) pair is priced exactly once — the first thread to miss marks
// the pair in-flight and later arrivals block on the shard's condition
// variable until the price lands, so whatif_calls() is identical at any
// thread count. Statements repeated verbatim share an id, hence a shard.
//
// Robustness (production servers fail): each what-if call runs under a
// retry policy — transient failures (Unavailable/DeadlineExceeded) retry
// with exponential backoff and deterministic jitter, bounded by the policy's
// attempt cap and the remaining session time budget. Permanent failures, or
// exhausted retries, degrade gracefully: the statement's cost falls back to
// the catalog-only heuristic estimate, the cache entry is marked degraded,
// and counters (retry histogram, degraded calls/statements) feed the report
// instead of the whole session aborting.

#ifndef DTA_DTA_COST_SERVICE_H_
#define DTA_DTA_COST_SERVICE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/physical_design.h"
#include "common/clock.h"
#include "dta/derived_cost.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "dta/tuning_options.h"
#include "optimizer/hardware.h"
#include "server/server.h"
#include "stats/statistics.h"
#include "workload/workload.h"

namespace dta::tuner {

// Calls that took N attempts land in bucket N - 1; the last bucket also
// absorbs anything beyond the histogram size.
inline constexpr size_t kRetryHistogramBuckets = 8;

// One logical what-if call as it crosses the backend seam. In-process
// backends cost `*stmt` directly; a socket transport sends `*text` (the
// statement's original SQL, which the worker parses with the same parser)
// so the AST never needs a wire encoding. All pointers are borrowed and
// must outlive the call.
struct WhatIfCall {
  const sql::Statement* stmt = nullptr;
  // Original SQL text of the statement; null only on internal call sites
  // that are guaranteed to stay in-process (tests driving a router
  // directly). The socket transport keys its connection-local statement
  // ids on it and sends it to a worker once per connection (rpc/wire.h).
  const std::string* text = nullptr;
  // The socket transport names each structure by an id keyed on its
  // stored name, so equal names must mean interchangeable structures.
  const catalog::Configuration* config = nullptr;
  const optimizer::HardwareParams* simulate_hardware = nullptr;
  // Identifies the logical call (hash of statement text + relevant
  // fingerprint, never 0): fault injectors key their deterministic
  // decisions on it and routers hash it for shard placement.
  uint64_t call_key = 0;
};

// Where what-if calls physically execute. CostService is written against
// this seam, so pricing can run on one server (SingleServerBackend below),
// fan out across a fleet of in-process test-server replicas, or cross
// sockets to cost_server worker processes (ShardRouter, dta/shard_router.h)
// without the caching, dedup, or retry layers knowing the difference.
// Backends must be deterministic — the same (statement, configuration) call
// returns the same cost wherever it executes — which is what keeps
// recommendations bit-identical across backend topologies.
class CostBackend {
 public:
  virtual ~CostBackend() = default;

  // Mirrors server::Server::WhatIfCost. Must be safe for concurrent calls.
  virtual Result<server::Server::WhatIfResult> WhatIfCost(
      const WhatIfCall& call) = 0;

  // The server whose catalog and hardware stand in for the backend's shared
  // state: heuristic degradation, plan reports, and catalog resolution all
  // read from it. Every replica behind a backend is a clone of it.
  virtual server::Server* primary() const = 0;
};

// Default backend: every call prices on one server.
class SingleServerBackend : public CostBackend {
 public:
  explicit SingleServerBackend(server::Server* server) : server_(server) {}

  Result<server::Server::WhatIfResult> WhatIfCost(
      const WhatIfCall& call) override {
    return server_->WhatIfCost(*call.stmt, *call.config,
                               call.simulate_hardware, call.call_key);
  }

  server::Server* primary() const override { return server_; }

 private:
  server::Server* server_;
};

// Priced what-if costs keyed by (statement id, relevant fingerprint), one
// shard per id. A one-shot session prices into a private cache; the
// continuous tuner lends one long-lived cache to every round's session. An
// id is bound to the first text bound under it; binding another text (a
// hash collision) fails instead of handing one statement the other's costs.
// The id -> shard map changes only in Bind, Retain and Restore, which must
// not run concurrently with pricing; a shard stays valid until Retain drops
// it.
class CostCache {
 public:
  struct Entry {
    double cost = 0;
    bool degraded = false;
    // Cost was derived from atomic-configuration results instead of a real
    // what-if call (the atoms themselves are ordinary entries).
    bool derived = false;
  };

  // Selection work for a statement stays on one thread, so per-statement
  // shards confine lock contention to enumeration, where different subsets
  // price the same statement concurrently.
  //
  // Protocol (statically checked under clang -Wthread-safety): `entries`
  // and `inflight` are only touched under `mu`; the first thread to miss a
  // (statement, fingerprint) pair inserts it into `inflight`, prices it
  // *outside* the lock, then re-locks to publish the entry, clear the
  // in-flight mark, and NotifyAll the waiters parked on `cv`.
  struct Shard {
    mutable Mutex mu;
    CondVar cv;
    std::map<std::string, Entry> entries GUARDED_BY(mu);
    std::set<std::string> inflight GUARDED_BY(mu);
    // Entries published since the last TakeNew, in publication order;
    // listed only once a log has taken from the cache (lists_new()).
    std::vector<std::map<std::string, Entry>::const_iterator> fresh
        GUARDED_BY(mu);
    std::string text;  // bound statement text; empty until Bind
  };

  // The shard for `id`, created on first use and bound to `text`. Fails
  // with AlreadyExists when `id` is bound to another text. A shard that
  // Restore created binds to the first text asked.
  Result<Shard*> Bind(uint64_t id, const std::string& text);

  // Entries across all shards.
  size_t size() const;
  // Drops every entry (statistics changed). Shards and bindings stay, so
  // pointers returned by Bind remain valid.
  void Clear();
  // Drops every shard, binding included, whose id is not in `ids`.
  void Retain(const std::set<uint64_t>& ids);
  // Upserts one entry (checkpoint restore).
  void Restore(uint64_t id, const std::string& fingerprint,
               const Entry& entry);
  // Visits every entry in (id, fingerprint) order.
  using EntryVisitor =
      std::function<void(uint64_t id, const std::string& fp, const Entry&)>;
  void ForEach(const EntryVisitor& fn) const;
  // Visits the entries priced since the previous TakeNew, in (id,
  // fingerprint) order, and forgets them; null `fn` only forgets. This is
  // how a checkpoint log writes O(new work) without walking the cache.
  // Restored entries are not new. Must not run concurrently with pricing.
  // The first call starts the listing: a log's first record is a base
  // that walks every entry, and a cache no log takes from lists nothing
  // (per-shard lists grown under concurrent pricing cost peak memory).
  void TakeNew(const EntryVisitor& fn);
  bool lists_new() const { return lists_new_; }

 private:
  // Map nodes never move, so a Shard* stays valid until its erase.
  std::map<uint64_t, Shard> shards_;
  bool lists_new_ = false;
};

class CostService {
 public:
  // Fault-tolerance knobs; the default is retry-with-degradation and no
  // session deadline.
  struct Config {
    RetryPolicy retry;
    bool degrade_on_failure = true;
    // Remaining session time budget (ms); bounds per-call retry backoff.
    // Null means unbounded.
    std::function<double()> remaining_ms;
    // Observability (optional). When `metrics` is set, every pricing feeds
    // the what-if latency/attempt histograms and the lookup/hit/call
    // counters; all registered quantities are thread-count invariant, so a
    // metrics export is byte-identical at any concurrency. `clock` times
    // the pricings (null means the real monotonic clock) — tests inject a
    // FakeClock for deterministic latency output.
    MetricsRegistry* metrics = nullptr;
    const Clock* clock = nullptr;
    // Derived costing (dta/derived_cost.h): answer cache misses from
    // memoized atomic-configuration costs via the CoPhy combine rule when
    // the decomposition is valid, falling back to a real what-if call
    // otherwise. Derivation decisions are a pure function of the
    // (statement, fingerprint) pair — atoms are priced through the normal
    // cached/deduplicated path — so enabling it preserves the bit-identical
    // recommendation contract at any (threads × shards) combination.
    DerivedCostOptions derived;
  };

  // `server` performs the what-if calls (the test server in §5.3 mode).
  // When `simulate_hardware` is set, its parameters are simulated in every
  // call (the production server's hardware). The workload must outlive the
  // service.
  CostService(server::Server* server,
              const optimizer::HardwareParams* simulate_hardware,
              const workload::Workload* workload, Config config);
  CostService(server::Server* server,
              const optimizer::HardwareParams* simulate_hardware,
              const workload::Workload* workload)
      : CostService(server, simulate_hardware, workload, Config()) {}
  // Pluggable-backend form: what-if calls go wherever `backend` routes them
  // (e.g. a ShardRouter fleet). The backend must outlive the service. When
  // `cache` is set, the service prices into that borrowed cache instead of
  // a private one; it must outlive the service.
  CostService(CostBackend* backend,
              const optimizer::HardwareParams* simulate_hardware,
              const workload::Workload* workload, Config config,
              CostCache* cache = nullptr);

  // Optimizer-estimated cost of statement i under the configuration
  // (cached; weight NOT applied). Safe to call from many threads. Fails for
  // a statement whose id the cache has bound to another text.
  Result<double> StatementCost(size_t index,
                               const catalog::Configuration& config)
      EXCLUDES(missing_mu_, degraded_mu_);

  // Sum over statements of weight * cost. When `pool` is given, statements
  // are priced in parallel; the reduction is performed serially in
  // statement order, so the total is bit-identical to the serial sum.
  Result<double> WorkloadCost(const catalog::Configuration& config,
                              ThreadPool* pool = nullptr);

  // Statistics the optimizer wanted but could not find, accumulated across
  // all calls (drives reduced statistics creation and test-server import).
  // Returns a snapshot; safe to call concurrently with StatementCost.
  std::set<stats::StatsKey> missing_stats() const EXCLUDES(missing_mu_);
  void ClearMissingStats() EXCLUDES(missing_mu_);
  // Pre-populates the missing-statistics set (checkpoint resume).
  void SeedMissingStats(const std::set<stats::StatsKey>& keys)
      EXCLUDES(missing_mu_);

  // Number of logical what-if pricings (cache misses). Exact at any thread
  // count: racing threads on a cold pair block instead of double-pricing.
  size_t whatif_calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  size_t cache_hits() const { return hits_.load(std::memory_order_relaxed); }

  // Lookups that found the (statement, fingerprint) pair already being
  // priced by another thread and blocked for its result. Scheduling
  // dependent (always 0 when serial), so it is surfaced here and in
  // TuningResult but deliberately NOT registered as a metric — the metrics
  // export stays identical at any thread count.
  size_t dedup_waits() const {
    return dedup_waits_.load(std::memory_order_relaxed);
  }

  // ---- Derived-costing accounting ----------------------------------------
  // Cache misses answered by the CoPhy combine rule (exact mode included,
  // where the derivation is checked against a real call). Like
  // whatif_calls(), a pure function of the lookup set: identical at any
  // thread or shard count.
  size_t derived_answers() const {
    return derived_answers_.load(std::memory_order_relaxed);
  }
  // Misses whose decomposition was non-trivial but could not be used (DML
  // maintenance costs, too many atoms, error bound exceeded, or a degraded
  // atom): they were priced by a real what-if call instead.
  size_t derivation_fallbacks() const {
    return derivation_fallbacks_.load(std::memory_order_relaxed);
  }
  // Real what-if calls avoided: one per derived answer outside exact mode
  // (in exact mode the real call is made anyway, so nothing is saved).
  size_t whatif_calls_saved() const {
    return calls_saved_.load(std::memory_order_relaxed);
  }
  // Exact mode only: derivations whose measured error exceeded
  // Config::derived.error_bound_pct.
  size_t derivation_errors_exceeded() const {
    return errors_exceeded_.load(std::memory_order_relaxed);
  }

  // Clock used for pricing latency (the injected one, or the real
  // monotonic clock). Phase code shares it so all timings in one session
  // come from one source.
  const Clock* clock() const { return clock_; }

  // ---- Fault-tolerance accounting ---------------------------------------
  // Failed attempts that were retried.
  size_t whatif_retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  // Pricings that fell back to the heuristic estimate.
  size_t degraded_calls() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  // Statement indexes whose cost came from a degraded entry (snapshot). The
  // flag follows the statement id, so it covers every copy of a repeated
  // statement.
  std::set<size_t> degraded_statements() const EXCLUDES(degraded_mu_);
  // Pre-populates the degraded-statement set (checkpoint resume). Needed
  // because the flag outlives the cache entries that caused it: ClearCache
  // drops degraded entries from earlier phases, and a resumed session may
  // answer the same misses by derivation without re-firing the fault.
  void SeedDegradedStatements(const std::set<size_t>& statements)
      EXCLUDES(degraded_mu_);
  // Entries the cache held for this workload's statements when the service
  // was built (what earlier stream rounds priced).
  size_t seeded_entries() const { return seeded_entries_; }
  // retry_histogram()[n] = pricings that needed n + 1 attempts.
  std::array<size_t, kRetryHistogramBuckets> retry_histogram() const;

  // Invalidate everything (e.g. after statistics changed), a borrowed
  // cache's other statements included. Must not run concurrently with
  // StatementCost.
  void ClearCache() { cache_->Clear(); }
  // The cache this service prices into (its own, or the borrowed one).
  CostCache& cache() { return *cache_; }

  server::Server* server() { return backend_->primary(); }

 private:
  using Entry = CostCache::Entry;

  // The cached-entry protocol behind StatementCost: look up / claim
  // in-flight / price by calling `price()` (on a miss only) / publish,
  // returning the full entry. Derivation re-enters it per atom, so atoms
  // land in the ordinary cache, memoized and checkpointed like any entry.
  template <typename PriceFn>
  Result<Entry> CachedEntry(size_t index, const std::string& fingerprint,
                            const PriceFn& price)
      EXCLUDES(missing_mu_, degraded_mu_);
  // Prices one claimed (statement, fingerprint) pair: by derivation when
  // enabled, eligible, and valid; by a real what-if call otherwise.
  Result<Entry> PriceOrDerive(size_t index,
                              const catalog::Configuration& config,
                              const RelevantSet& relevant)
      EXCLUDES(missing_mu_, degraded_mu_);
  // Prices one cold (statement, fingerprint) pair: what-if call with
  // retry/backoff/deadline, falling back to the heuristic estimate when the
  // failure is persistent and degradation is enabled. Runs outside any
  // shard lock (the what-if call dominates; holding a shard lock across it
  // would serialize enumeration and deadlock the in-flight protocol).
  Result<Entry> PriceWithRetries(size_t index,
                                 const catalog::Configuration& config,
                                 const std::string& fingerprint)
      EXCLUDES(missing_mu_, degraded_mu_);
  void RecordAttempts(int attempts);
  void Init(CostCache* cache);

  // Declared before backend_ so the Server* constructors can point backend_
  // at the owned wrapper in the member-init list.
  std::unique_ptr<SingleServerBackend> owned_backend_;
  CostBackend* backend_;
  const optimizer::HardwareParams* simulate_hardware_;
  const workload::Workload* workload_;
  Config config_;

  // Lower-cased table names referenced by each statement.
  std::vector<std::set<std::string>> statement_tables_;
  CostCache owned_cache_;  // unless one is borrowed
  CostCache* cache_ = nullptr;
  // Each statement's shard in cache_; null when its id is bound to another
  // text, and bind_status_ says so.
  std::vector<CostCache::Shard*> shards_;
  Status bind_status_;
  size_t seeded_entries_ = 0;
  mutable Mutex missing_mu_;
  std::set<stats::StatsKey> missing_ GUARDED_BY(missing_mu_);
  mutable Mutex degraded_mu_;
  std::set<uint64_t> degraded_ids_ GUARDED_BY(degraded_mu_);
  std::atomic<size_t> calls_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> dedup_waits_{0};
  std::atomic<size_t> retries_{0};
  std::atomic<size_t> degraded_{0};
  std::atomic<size_t> derived_answers_{0};
  std::atomic<size_t> derivation_fallbacks_{0};
  std::atomic<size_t> calls_saved_{0};
  std::atomic<size_t> errors_exceeded_{0};
  std::array<std::atomic<size_t>, kRetryHistogramBuckets> attempt_histogram_{};

  // Metrics handles (null when Config::metrics is unset); resolved once in
  // the constructor so the hot path never locks the registry.
  const Clock* clock_;
  Counter* m_lookups_ = nullptr;
  Counter* m_hits_ = nullptr;
  Counter* m_calls_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_degraded_ = nullptr;
  Counter* m_derived_ = nullptr;
  Counter* m_fallbacks_ = nullptr;
  Counter* m_saved_ = nullptr;
  Histogram* m_latency_ = nullptr;
  Histogram* m_simulated_ = nullptr;
  Histogram* m_attempts_ = nullptr;
  Histogram* m_derivation_error_ = nullptr;
};

}  // namespace dta::tuner

#endif  // DTA_DTA_COST_SERVICE_H_
