// Inputs that control a tuning session (paper §2.1): the feature set to
// tune, manageability (alignment) and storage constraints, an optional time
// bound, a user-specified partial configuration, and the scalability knobs
// (workload compression §5.1, reduced statistics §5.2).

#ifndef DTA_DTA_TUNING_OPTIONS_H_
#define DTA_DTA_TUNING_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/physical_design.h"

namespace dta::tuner {

// Retry policy for what-if optimizer calls (robustness layer). A transient
// failure (Unavailable/DeadlineExceeded) is retried with exponential backoff
// and deterministic jitter, capped by `max_attempts` and by the remaining
// session time budget; any other failure — or exhausting the retries — makes
// the cost service degrade to the heuristic estimate instead of aborting the
// session.
struct RetryPolicy {
  int max_attempts = 4;           // total attempts, including the first
  double initial_backoff_ms = 1;  // sleep before the second attempt
  double backoff_multiplier = 2;
  double max_backoff_ms = 64;
  double jitter_fraction = 0.5;  // +/- fraction of the backoff, hash-derived
};

struct TuningOptions {
  // ---- Feature set (paper §3: DBAs may restrict tuning to a subset).
  bool tune_indexes = true;
  bool tune_materialized_views = true;
  bool tune_partitioning = true;

  // ---- Manageability (paper §4): every table and all of its indexes must
  // be partitioned identically.
  bool require_alignment = false;

  // ---- Constraints.
  // Upper bound on total storage of the recommended physical design.
  std::optional<uint64_t> storage_bytes;
  // Upper bound on tuning wall-clock time (ms).
  std::optional<double> time_limit_ms;

  // ---- Customization (paper §6.2): structures that must be part of the
  // recommendation (evaluated, never dropped).
  catalog::Configuration user_specified;

  // When true, existing non-constraint structures of the current design are
  // kept unconditionally; when false (DTA's default behaviour), they become
  // ordinary candidates — re-recommended only when they pay for themselves,
  // so DTA effectively recommends DROPs of harmful structures.
  bool keep_existing_structures = false;

  // ---- DBA feedback (semi-automatic tuning; continuous service mode).
  // Canonical names of structures a DBA has rejected: candidates with these
  // names are removed from the enumeration pool before search, so they
  // cannot appear in the recommendation. The continuous tuner fills this
  // from `reject` feedback lines for the quarantine horizon. Included in
  // the options fingerprint — a different quarantine set legitimately
  // changes the recommendation.
  std::vector<std::string> quarantined_structures;

  // ---- Scalability features.
  bool workload_compression = true;
  bool reduced_statistics = true;
  // Worker threads for what-if costing fan-out (current-cost pass,
  // per-statement candidate selection, greedy-round evaluations). 0 means
  // "auto" (std::thread::hardware_concurrency()); 1 restores fully serial
  // tuning, bit-for-bit. Recommendations, costs, and the what-if call
  // counter are identical at any thread count (cold misses are deduplicated
  // in-flight, so a (statement, fingerprint) pair is priced exactly once);
  // only wall-clock time varies.
  int num_threads = 0;
  int ResolvedNumThreads() const {
    if (num_threads > 0) return num_threads;
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }

  // ---- Distributed costing (sharded what-if backend).
  // Number of costing shards. 1 prices every what-if call on the tuning
  // server alone; N > 1 clones the tuning server into N - 1 deep replicas
  // and fans calls across all N via rendezvous hashing on the call key
  // (dta/shard_router.h), with failover between shards on node failure.
  // Recommendations, costs, and whatif_calls are byte-identical at any
  // shard count — only wall-clock and per-shard load vary — so `shards` is
  // excluded from the checkpoint options fingerprint and a checkpoint
  // written under one topology resumes under another.
  int shards = 1;
  // Per-shard fault injection: ";"-separated "<shard>:<FaultSpec>" entries,
  // e.g. "1:down_after=30;2:transient=0.2,seed=9". Shard 0 is the tuning
  // server itself (targeting it here conflicts with `fault_spec` below).
  // Empty disables per-shard injection.
  std::string shard_fault_spec;
  // Latency-based fail-slow isolation: a shard whose successful-call latency
  // EWMA exceeds this multiple of the fleet-median EWMA is demoted to
  // probe-only routing until it recovers (dta/shard_router.h). 0 (default)
  // disables the detector. Demotion is routing-only — recommendations stay
  // byte-identical with the detector on or off — so, like `shards`, this is
  // excluded from the checkpoint options fingerprint.
  double shard_slow_threshold = 0;

  // ---- Costing transport.
  // kInproc prices what-if calls on in-process server replicas; kSocket
  // connects every shard to a cost_server worker process over a Unix
  // socket (dta/rpc/transport.h). Either way ShardRouter dispatches a
  // sharded fleet's calls — timeouts and shard failures requeue the
  // statement on another shard instead of parking a worker thread in
  // backoff.
  // Transport is pure topology: recommendations are byte-identical under
  // either value (and across transport switches on resume), so, like
  // `shards`, everything in this section is excluded from the checkpoint
  // options fingerprint.
  enum class Transport { kInproc, kSocket };
  Transport transport = Transport::kInproc;
  // Socket transport only: one worker socket path per shard. Size must
  // equal `shards`; validated by the session.
  std::vector<std::string> socket_endpoints;
  // Socket transport only: per-attempt budget (ms) before the completion
  // queue abandons an in-flight request and requeues the call elsewhere.
  // 0 means the router default.
  double rpc_attempt_timeout_ms = 0;

  // ---- Derived costing (CoPhy-style atomic-configuration derivation).
  // When true (default), cache misses whose configuration decomposes into
  // per-access-path atomic configurations are answered by the combine rule
  // over memoized atom costs instead of a real what-if call
  // (dta/derived_cost.h). Derivation decisions are a pure function of the
  // (statement, fingerprint) pair, so recommendations and all derived
  // counters stay byte-identical at any (threads × shards) combination.
  bool derived_costing = true;
  // Exactness gate: price every derivable miss both ways, record the
  // derivation error distribution (derivation.error_pct histogram), and use
  // the real cost. Verifies the combine rule; saves nothing.
  bool exact_costing = false;
  // Maximum tolerated derivation error, percent. 0 (default) demands exact
  // derivations: only full decompositions are used and, in exact mode, any
  // measured error counts as exceeded. A nonzero bound additionally admits
  // the bounded singleton approximation for decompositions with too many
  // atoms when its a-priori error estimate fits under the bound.
  double derivation_error_bound_pct = 0;

  // ---- Robustness (fault tolerance of the what-if costing path).
  // Fault injection scenario for the tuning server's what-if interface, as a
  // FaultSpec string ("seed=42,transient=0.1,permanent=0.01,latency_ms=0.5");
  // empty disables injection. Used by tests, benches, and the CI fault
  // profile to script optimizer-call failures.
  std::string fault_spec;
  // Retry/backoff/deadline policy for transient what-if failures.
  RetryPolicy retry;
  // When true (default), statements whose what-if calls fail persistently
  // fall back to the catalog-only heuristic estimate and are marked degraded
  // in the report; when false, the first persistent failure aborts tuning.
  bool degrade_on_failure = true;

  // ---- Crash safety (checkpoint/resume).
  // When set, the session records its progress in a checkpoint log at this
  // path (dta/checkpoint.h, format v3) after every phase and every
  // enumeration round: a base record first, then one appended segment per
  // write carrying only what changed since the previous one.
  std::string checkpoint_path;
  // When set, the session restores the checkpoint log at this path before
  // tuning and skips completed work; the final recommendation is
  // bit-identical to an uninterrupted run.
  std::string resume_path;

  // ---- Search parameters.
  // Greedy(m,k) for per-query candidate selection.
  int candidate_selection_m = 2;
  int candidate_selection_k = 3;
  int max_candidates_per_statement = 12;
  // Greedy(m,k) for final enumeration.
  int enumeration_m = 1;
  int enumeration_k = 20;
  // Enumeration stops when a greedy round improves workload cost by less
  // than this fraction (a structure with negligible benefit is not worth
  // its storage, maintenance, or the what-if calls to keep considering it).
  double min_improvement_fraction = 0.004;
  // The global candidate pool entering enumeration is capped to the best
  // candidates by per-query benefit (keeps what-if call volume bounded on
  // large workloads).
  int max_enumeration_candidates = 40;
  // Column-group restriction: groups below this fraction of total workload
  // cost are pruned (§2.2); <= 0 disables the restriction.
  double column_group_cost_fraction = 0.005;
  int max_column_group_size = 3;
  // Merging step on/off (§2.2).
  bool enable_merging = true;
  // Lazy (vs eager) introduction of aligned candidate variants (§4).
  bool lazy_alignment = true;
  // Range partitioning fan-out for proposed schemes.
  int max_partition_boundaries = 8;

  // Convenience presets ---------------------------------------------------
  static TuningOptions IndexesOnly() {
    TuningOptions o;
    o.tune_materialized_views = false;
    o.tune_partitioning = false;
    return o;
  }
  static TuningOptions IndexesAndViews() {
    TuningOptions o;
    o.tune_partitioning = false;
    return o;
  }
};

}  // namespace dta::tuner

#endif  // DTA_DTA_TUNING_OPTIONS_H_
