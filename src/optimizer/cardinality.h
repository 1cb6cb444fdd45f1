// Cardinality and selectivity estimation over bound queries, using
// histograms and density information with standard independence /
// containment assumptions.

#ifndef DTA_OPTIMIZER_CARDINALITY_H_
#define DTA_OPTIMIZER_CARDINALITY_H_

#include <cstdint>
#include <set>
#include <vector>

#include "catalog/physical_design.h"
#include "common/metrics.h"
#include "optimizer/bound_query.h"
#include "optimizer/stats_provider.h"

namespace dta::optimizer {

// Default selectivities when no statistics apply (SQL Server-inspired magic
// numbers).
struct DefaultSelectivity {
  static constexpr double kEquality = 0.05;
  static constexpr double kRange = 0.30;
  static constexpr double kLike = 0.10;
  static constexpr double kNotEqual = 0.90;
};

// Estimates for one query block. An estimator lives for one plan, during
// which neither the query, the statistics nor the configuration change, so
// it computes each column's distinct count and each atom's selectivity once
// and answers repeats from its memo.
class CardinalityEstimator {
 public:
  // When `lookups` is set, the estimator adds the number of requests it made
  // to `stats` to it when destroyed. When `missing` is set, every lookup
  // that fell back to a heuristic records the statistic it wanted there.
  CardinalityEstimator(const BoundQuery& query, const StatsProvider& stats,
                       Counter* lookups = nullptr,
                       std::set<stats::StatsKey>* missing = nullptr);
  ~CardinalityEstimator();
  CardinalityEstimator(const CardinalityEstimator&) = delete;
  CardinalityEstimator& operator=(const CardinalityEstimator&) = delete;

  double TableRows(int table) const;

  // Selectivity of one non-join atom against its table.
  double AtomSelectivity(int atom_index) const;

  // Combined selectivity of a set of filter atoms on one table
  // (independence with exponential backoff on the 3rd+ predicate).
  double FilterSelectivity(const std::vector<int>& atom_indexes) const;

  // Join selectivity of an equality join atom: 1/max(d_left, d_right).
  double JoinSelectivity(int atom_index) const;

  // Distinct count of a set of (table, column) pairs, capped by input_rows.
  // Uses multi-column density when available, else combines per-column
  // distincts with exponential backoff.
  double GroupCardinality(const std::vector<std::pair<int, int>>& cols,
                          double input_rows) const;

  // Fraction of partitions a set of filter atoms touches under `scheme` on
  // `table`, and the number touched.
  double PartitionFraction(int table, const catalog::PartitionScheme& scheme,
                           const std::vector<int>& atom_indexes,
                           int* partitions_touched) const;

  // Distinct values of a single column.
  double ColumnDistinct(int table, int column) const;

 private:
  double ComputeAtomSelectivity(int atom_index) const;

  const BoundQuery& q_;
  const StatsProvider& stats_;
  Counter* const lookups_counter_;
  std::set<stats::StatsKey>* const missing_;
  mutable uint64_t lookups_ = 0;
  // Memo: negative until computed. Distinct counts are indexed by
  // column_base_[table] + column ordinal, selectivities by atom.
  std::vector<size_t> column_base_;
  mutable std::vector<double> distinct_;
  mutable std::vector<double> atom_selectivity_;
};

}  // namespace dta::optimizer

#endif  // DTA_OPTIMIZER_CARDINALITY_H_
