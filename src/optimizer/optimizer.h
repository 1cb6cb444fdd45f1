// The cost-based query optimizer with a what-if interface.
//
// Given a statement and a (possibly hypothetical) Configuration, produces a
// physical plan and its estimated cost. This is the component DTA is
// "in-sync" with (paper §2.2): every candidate configuration is priced by
// the same cost model that would execute it, so recommendations, if
// implemented, are actually used.
//
// The optimizer supports:
//   - access-path selection: heap/clustered scans, clustered seeks,
//     covering/non-covering nonclustered index seeks and scans,
//     single-column range partition elimination on tables and indexes;
//   - left-deep join-order search (dynamic programming up to 12 relations,
//     greedy beyond) with hash, merge, and index-nested-loop joins;
//   - materialized-view matching with residual predicates and
//     re-aggregation;
//   - stream/hash aggregation, DISTINCT, ORDER BY, TOP;
//   - maintenance costing of INSERT/UPDATE/DELETE against every index and
//     materialized view the statement affects.

#ifndef DTA_OPTIMIZER_OPTIMIZER_H_
#define DTA_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "catalog/physical_design.h"
#include "catalog/schema.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "optimizer/bound_query.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/hardware.h"
#include "optimizer/plan.h"
#include "optimizer/stats_provider.h"

namespace dta::optimizer {

class Optimizer {
 public:
  Optimizer(const catalog::Catalog& catalog, const StatsProvider& stats,
            const HardwareParams& hardware)
      : catalog_(catalog), stats_(stats), cm_(hardware) {}

  struct QueryPlan {
    // Bound form of the statement (plans point into it). The statement
    // itself is owned by the caller and must outlive this object, as must
    // the Configuration optimized against.
    BoundQuery bound;
    PlanNodePtr root;
    double cost = 0;
  };

  // Each entry point below records, when `missing` is set, every statistic
  // the call wanted and did not find: the per-call set that drives
  // statistics creation (paper §5.2).

  // Optimizes a SELECT against the configuration.
  Result<QueryPlan> OptimizeSelect(
      const sql::SelectStatement& stmt, const catalog::Configuration& config,
      std::set<stats::StatsKey>* missing = nullptr) const;

  // Estimated cost of any statement (SELECT or DML) under the configuration.
  Result<double> CostStatement(
      const sql::Statement& stmt, const catalog::Configuration& config,
      std::set<stats::StatsKey>* missing = nullptr) const;

  // Estimated cost of INSERT/UPDATE/DELETE: row location plus maintenance of
  // every affected index and materialized view.
  Result<double> CostDml(const sql::Statement& stmt,
                         const catalog::Configuration& config,
                         std::set<stats::StatsKey>* missing = nullptr) const;

  const CostModel& cost_model() const { return cm_; }
  const catalog::Catalog& catalog() const { return catalog_; }

  // Attaches (or clears, with nullptr) profiling counters: statements
  // costed, access paths considered and the estimator's requests to the
  // statistics. Counts only — never timings — so they are deterministic at
  // any thread count. Must not race concurrent costing; the server attaches
  // metrics before the tuner fans out.
  void set_metrics(MetricsRegistry* metrics) {
    m_statements_ = metrics != nullptr
                        ? metrics->GetCounter("optimizer.statements_costed")
                        : nullptr;
    m_access_paths_ = metrics != nullptr
                          ? metrics->GetCounter("optimizer.access_paths")
                          : nullptr;
    m_stats_lookups_ = metrics != nullptr
                           ? metrics->GetCounter("optimizer.stats_lookups")
                           : nullptr;
  }

 private:
  struct AccessPath {
    PlanNodePtr node;
    double rows = 0;    // output rows (after filters)
    double cost = 0;
    // Output ordering: column ordinals of the scanned table (empty if
    // unordered / order destroyed).
    std::vector<int> order_cols;
  };

  // All viable access paths for table `t` of the bound query.
  std::vector<AccessPath> BuildAccessPaths(
      const BoundQuery& q, const CardinalityEstimator& est,
      const catalog::Configuration& config, int t) const;

  // Cheapest inner-side seek path for an index-nested-loop join into table
  // `t` on the join atom; returns nullopt when no usable index exists. It
  // does not depend on the outer input, so PlanQueryBlock builds it once
  // per (table, atom).
  std::optional<AccessPath> InnerSeekPath(const BoundQuery& q,
                                          const CardinalityEstimator& est,
                                          const catalog::Configuration& config,
                                          int t, int join_atom) const;

  // Joins, aggregation, ordering on top of base paths.
  Result<QueryPlan> PlanQueryBlock(BoundQuery q,
                                   const catalog::Configuration& config,
                                   std::set<stats::StatsKey>* missing) const;

  // Best whole-query replacement using a materialized view, if any.
  std::optional<AccessPath> BestViewPlan(
      const BoundQuery& q, const CardinalityEstimator& est,
      const catalog::Configuration& config) const;

  // Binds a view definition, cached by `name`: the view's canonical name as
  // the configuration stored it.
  const BoundQuery* BoundView(const catalog::ViewDef& view,
                              const std::string& name) const
      EXCLUDES(view_bind_mu_);

  const catalog::Catalog& catalog_;
  const StatsProvider& stats_;
  CostModel cm_;

  // Guarded by view_bind_mu_: costing is const and runs concurrently from
  // the tuner's worker pool; map values are unique_ptrs, so pointers handed
  // out remain stable after the lock is released.
  mutable Mutex view_bind_mu_;
  mutable std::map<std::string, std::unique_ptr<BoundQuery>> view_bind_cache_
      GUARDED_BY(view_bind_mu_);

  // Profiling counters (null when no registry is attached). The Counter
  // objects are atomic, so const costing paths may increment through them
  // concurrently.
  Counter* m_statements_ = nullptr;
  Counter* m_access_paths_ = nullptr;
  Counter* m_stats_lookups_ = nullptr;
};

}  // namespace dta::optimizer

#endif  // DTA_OPTIMIZER_OPTIMIZER_H_
