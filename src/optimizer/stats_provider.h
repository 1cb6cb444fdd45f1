// Statistics access layer for the optimizer.
//
// Wraps a StatsManager and (a) serves histogram / distinct-count lookups,
// (b) records every *missing* statistic that the optimizer would have wanted
// into the set its caller passes with the lookup — the "required statistics"
// discovery that drives both reduced statistics creation (paper §5.2) and
// statistics import in the production/test-server scenario (§5.3).

#ifndef DTA_OPTIMIZER_STATS_PROVIDER_H_
#define DTA_OPTIMIZER_STATS_PROVIDER_H_

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "stats/statistics.h"

namespace dta::optimizer {

class StatsProvider {
 public:
  explicit StatsProvider(const stats::StatsManager* manager)
      : manager_(manager) {}

  // Histogram describing `column` (leading column of some statistic), or
  // nullptr with the miss recorded in `missing` when it is set.
  const stats::Statistics* Histogram(const std::string& database,
                                     const catalog::TableSchema& table,
                                     const std::string& column,
                                     std::set<stats::StatsKey>* missing) const {
    const stats::Statistics* s =
        manager_ != nullptr
            ? manager_->FindHistogram(database, table.name(), column)
            : nullptr;
    if (s == nullptr && missing != nullptr) {
      missing->insert(stats::StatsKey(database, table.name(), {column}));
    }
    return s;
  }

  // Distinct-count estimate for a column group; falls back to a heuristic
  // when no density information exists (and records the miss in `missing`
  // when it is set).
  double DistinctCount(const std::string& database,
                       const catalog::TableSchema& table,
                       const std::vector<std::string>& columns,
                       std::set<stats::StatsKey>* missing) const {
    if (manager_ != nullptr) {
      auto d = manager_->DistinctCount(database, table.name(), columns);
      if (d.has_value()) return std::max(1.0, *d);
    }
    if (missing != nullptr) {
      missing->insert(stats::StatsKey(database, table.name(), columns));
    }
    return FallbackDistinct(table, columns);
  }

  // Heuristic used when no statistics exist: primary keys are unique,
  // everything else gets a sublinear guess.
  static double FallbackDistinct(const catalog::TableSchema& table,
                                 const std::vector<std::string>& columns) {
    double rows = static_cast<double>(table.row_count());
    if (rows < 1) return 1;
    if (columns.size() == 1 && table.primary_key().size() == 1) {
      int pk = table.primary_key()[0];
      if (table.ColumnIndex(columns[0]) == pk) return rows;
    }
    double guess = std::pow(rows, 0.6);
    // Wider groups are more distinct.
    guess *= std::pow(2.0, static_cast<double>(columns.size()) - 1);
    return std::min(rows, std::max(10.0, guess));
  }

  const stats::StatsManager* manager() const { return manager_; }

 private:
  const stats::StatsManager* manager_;
};

}  // namespace dta::optimizer

#endif  // DTA_OPTIMIZER_STATS_PROVIDER_H_
