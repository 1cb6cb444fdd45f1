// End-to-end tuning driver: the orchestration of Figure 1 of the paper.
//
//   workload -> [compression §5.1] -> current-cost pass -> column-group
//   restriction -> candidate generation + reduced statistics creation §5.2
//   -> per-statement candidate selection (Greedy(m,k)) -> merging ->
//   enumeration (Greedy(m,k), storage bound, alignment §4) -> recommendation
//   + report.
//
// When a test server is supplied (§5.3), metadata is imported from the
// production server, statistics are created on production and imported, and
// every what-if call runs on the test server while simulating the
// production server's hardware. Only statistics creation then loads the
// production server.

#ifndef DTA_DTA_TUNING_SESSION_H_
#define DTA_DTA_TUNING_SESSION_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/physical_design.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "dta/cost_service.h"
#include "dta/report.h"
#include "dta/tuning_options.h"
#include "server/server.h"
#include "stats/statistics.h"
#include "workload/compression.h"
#include "workload/workload.h"

namespace dta::tuner {

class AdmissionController;
class ShardRouter;
struct SessionCheckpoint;

// Identity a session carries when it runs as one tenant of a multi-tenant
// fleet (dta/tenant_driver.h): its name and the shared admission controller
// every real what-if call must pass through. Default-constructed (null
// admission) means single-tenant — no admission, no behavioral change.
struct TenantContext {
  std::string name;
  AdmissionController* admission = nullptr;
  int tenant_id = 0;
};

struct TuningResult {
  catalog::Configuration recommendation;

  double current_cost = 0;      // workload cost under the current design
  double recommended_cost = 0;  // workload cost under the recommendation
  double ImprovementPercent() const {
    if (current_cost <= 0) return 0;
    return 100.0 * (current_cost - recommended_cost) / current_cost;
  }

  size_t events_total = 0;  // statements before compression
  size_t events_tuned = 0;  // statements actually tuned
  double tuning_time_ms = 0;
  bool hit_time_limit = false;

  size_t whatif_calls = 0;
  size_t enumeration_evaluations = 0;
  size_t candidates_generated = 0;

  // Fault-tolerance accounting (robustness layer): retried what-if
  // attempts, pricings degraded to the heuristic estimate, and — when a
  // fault injector was active — the faults it injected.
  size_t whatif_retries = 0;
  size_t degraded_calls = 0;
  size_t injected_transient_faults = 0;
  size_t injected_permanent_faults = 0;
  // Outage faults (node death / burst windows) across every attached
  // injector, shard injectors included.
  size_t injected_outage_faults = 0;
  // True when this run restored a checkpoint and skipped completed phases.
  bool resumed = false;

  // Observability accounting: cache efficacy of the what-if cost service,
  // cross-thread pricing deduplication (scheduling dependent — surfaced
  // here, never exported as a metric), and checkpoint I/O cost.
  size_t whatif_cache_hits = 0;
  size_t whatif_dedup_waits = 0;
  size_t checkpoint_writes = 0;
  size_t checkpoint_bytes = 0;  // record bytes the checkpoint log wrote
  double checkpoint_ms = 0;

  // Derived costing accounting (CoPhy combine rule, dta/derived_cost.h):
  // misses answered by derivation, misses that fell back to a real call
  // despite a non-trivial decomposition, real calls avoided (0 in exact
  // mode, where the real call is made to measure the derivation error), and
  // exact-mode derivations whose error exceeded the configured bound. All
  // pure functions of the lookup set: byte-identical at any thread or shard
  // count.
  size_t derived_answers = 0;
  size_t derivation_fallbacks = 0;
  size_t whatif_calls_saved = 0;
  size_t derivation_errors_exceeded = 0;

  // Distributed costing accounting (shards > 1): the router's view of the
  // session. shard_successes equals whatif_calls minus degraded pricings —
  // every logical pricing is answered by exactly one shard or degrades; no
  // call is lost or double-priced. shard_calls[i] counts the attempts
  // routed to shard i (failed attempts included).
  int shards_used = 1;
  size_t shard_successes = 0;
  size_t shard_failovers = 0;   // failed attempts rescued by another shard
  size_t shard_exhausted = 0;   // calls that failed on every shard
  size_t shard_queue_peak = 0;  // deepest per-shard (in-flight + waiting)
  // Times the fail-slow detector demoted a shard to probe-only routing
  // (0 unless shard_slow_threshold was set). Timing dependent, like the
  // failover counter: surfaced in the report, never in gated exports.
  size_t shard_slow_demotions = 0;
  std::vector<size_t> shard_calls;

  // Parallel costing accounting: threads applied to the fan-out phases,
  // their combined wall-clock, and the work they retired (summed per-task
  // time). work / wall ~ achieved parallel speedup of the costing phases.
  int threads_used = 1;
  double parallel_wall_ms = 0;
  double parallel_work_ms = 0;
  double ParallelSpeedup() const {
    return parallel_wall_ms > 0 ? parallel_work_ms / parallel_wall_ms : 1.0;
  }

  // Statistics creation accounting (experiment 7.5).
  size_t stats_requested = 0;  // what the naive strategy would create
  size_t stats_created = 0;
  double stats_creation_ms = 0;

  // Continuous-service accounting. seeded_cache_entries counts the entries a
  // borrowed cost cache (SetCostCache) held for this workload's statements
  // when costing started; quarantined_candidates counts pool candidates
  // removed by options.quarantined_structures. Both pure functions of the
  // inputs — byte-identical at any thread/shard count.
  size_t seeded_cache_entries = 0;
  size_t quarantined_candidates = 0;
  // Keys of every statistic this run created (a resumed run's include the
  // interrupted run's), in creation order.
  std::vector<stats::StatsKey> created_stats;

  workload::CompressionStats compression;
  Report report;
};

struct EvaluationResult {
  double current_cost = 0;
  double evaluated_cost = 0;
  double ChangePercent() const {
    if (current_cost <= 0) return 0;
    return 100.0 * (current_cost - evaluated_cost) / current_cost;
  }
  Report report;
};

class TuningSession {
 public:
  TuningSession(server::Server* production, TuningOptions options);

  // Enables the production/test server scenario. The test server must be
  // metadata-compatible; when its catalog is empty, metadata is imported
  // from the production server automatically.
  Status UseTestServer(server::Server* test);

  // Runs the full tuning pipeline; with options().resume_path set, from
  // where that checkpoint log stops.
  Result<TuningResult> Tune(const workload::Workload& workload);

  // Exploratory analysis (paper §6.3): costs the workload under a
  // user-provided configuration vs. the current one, without tuning. Prices
  // through the same kind of run as Tune (threads, shards, transport,
  // faults), and the report carries the same costing summary.
  Result<EvaluationResult> EvaluateConfiguration(
      const workload::Workload& workload,
      const catalog::Configuration& config);

  const TuningOptions& options() const { return options_; }

  // Observability hookup (all optional, all nullable). When `metrics` is
  // set, the session registers pipeline counters there, attaches it to the
  // tuning server/optimizer/cost service for per-call profiling, and
  // detaches it from the server on every exit path. When `tracer` is set,
  // each pipeline phase runs under a DTA_TRACE_PHASE span (opened and
  // closed only from the session thread, so the span tree is deterministic
  // at any thread count). `clock` times phases and pricings; null means the
  // real monotonic clock — tests inject a FakeClock so every exported
  // duration is exactly zero and the observability JSON is byte-stable.
  struct Observability {
    MetricsRegistry* metrics = nullptr;
    Tracer* tracer = nullptr;
    const Clock* clock = nullptr;
  };
  void SetObservability(Observability obs) { obs_ = obs; }

  // Multi-tenant hookup: when a context with a non-null admission
  // controller is set, every real what-if call this session's cost backend
  // makes first acquires an admission slot (and releases it after).
  // Admission only delays calls — it never changes what any call returns —
  // so tenancy preserves the session's determinism contract.
  void SetTenantContext(TenantContext tenant) {
    tenant_ = std::move(tenant);
  }

  // Test hook: invoked after every successful checkpoint write with the
  // write's 1-based ordinal. A non-ok return aborts tuning with that status,
  // simulating a crash immediately after the checkpoint landed on disk —
  // the kill-at-every-checkpoint resume tests are built on this.
  using CheckpointProbe = std::function<Status(int ordinal)>;
  void SetCheckpointProbe(CheckpointProbe probe) {
    checkpoint_probe_ = std::move(probe);
  }

  // Continuous-service hookup: price into `cache` (borrowed; it must outlive
  // every Tune/EvaluateConfiguration call) instead of a private one. Costs
  // an earlier session priced for the same statement text are hits, and
  // this session's pricings stay in the cache after it ends. Such a session
  // must not checkpoint: its log would take the cache's new entries
  // (CostCache::TakeNew), which belong to the cache's owner's log
  // (ContinuousTuner clears the paths).
  void SetCostCache(CostCache* cache) { cache_ = cache; }

 private:
  // One Tune or EvaluateConfiguration call: its costing and, for Tune, its
  // progress record (tuning_session.cc).
  struct Run;

  server::Server* TuningServer() {
    return test_ != nullptr ? test_ : production_;
  }
  const Clock* clock() const {  // the injected clock or the monotonic one
    return obs_.clock != nullptr ? obs_.clock : MonotonicClock::Instance();
  }
  // Validates the costing options and builds a run over `workload` (which
  // must outlive it) for a call that started at `t_start`.
  Result<std::unique_ptr<Run>> NewRun(const workload::Workload& workload,
                                      double t_start);

  // Tune's phases over the run's progress record. Start sets it to phase 0
  // or to the log at resume_path; the next two run only while the phase is
  // below their marker, so a fresh and a resumed run take one path.
  Status Start(Run* run);
  Status PriceCurrentCosts(Run* run);   // up to kCheckpointCurrentCosts
  Status BuildCandidatePool(Run* run);  // up to kCheckpointPoolReady
  Status Enumerate(Run* run);           // from the progress's greedy state
  Status Finish(Run* run);              // final costs and the report
  // Writes the progress, as it stands, as the next checkpoint record.
  Status WriteCheckpoint(Run* run);

  // Creates statistics on the production server and brings the test
  // server (in test-server mode) and every shard of `fleet` (null without
  // one) up to each of them, so every shard prices with identical
  // information. A non-null `progress` counts and logs each one created.
  Status CreateAndImportStats(const std::vector<stats::StatsKey>& keys,
                              ShardRouter* fleet, SessionCheckpoint* progress);
  // Base configuration: constraint-enforcing indexes of the current design
  // plus the user-specified configuration.
  Result<catalog::Configuration> BaseConfiguration() const;

  server::Server* production_;
  server::Server* test_ = nullptr;
  TuningOptions options_;
  CheckpointProbe checkpoint_probe_;
  Observability obs_;
  TenantContext tenant_;
  CostCache* cache_ = nullptr;
};

}  // namespace dta::tuner

#endif  // DTA_DTA_TUNING_SESSION_H_
