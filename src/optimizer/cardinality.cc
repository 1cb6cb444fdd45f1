#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

namespace dta::optimizer {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

CardinalityEstimator::CardinalityEstimator(const BoundQuery& query,
                                           const StatsProvider& stats,
                                           Counter* lookups,
                                           std::set<stats::StatsKey>* missing)
    : q_(query),
      stats_(stats),
      lookups_counter_(lookups),
      missing_(missing),
      atom_selectivity_(query.atoms.size(), -1.0) {
  column_base_.reserve(q_.tables.size());
  size_t columns = 0;
  for (const BoundTable& bt : q_.tables) {
    column_base_.push_back(columns);
    columns += bt.schema->columns().size();
  }
  distinct_.assign(columns, -1.0);
}

CardinalityEstimator::~CardinalityEstimator() {
  if (lookups_counter_ != nullptr) lookups_counter_->Increment(lookups_);
}

double CardinalityEstimator::TableRows(int table) const {
  return std::max<double>(
      1.0, static_cast<double>(
               q_.tables[static_cast<size_t>(table)].schema->row_count()));
}

double CardinalityEstimator::ColumnDistinct(int table, int column) const {
  double& d = distinct_[column_base_[static_cast<size_t>(table)] +
                        static_cast<size_t>(column)];
  if (d < 0) {
    const BoundTable& bt = q_.tables[static_cast<size_t>(table)];
    ++lookups_;
    d = std::max(1.0, stats_.DistinctCount(bt.database->name(), *bt.schema,
                                           {bt.schema->column(column).name},
                                           missing_));
  }
  return d;
}

double CardinalityEstimator::AtomSelectivity(int atom_index) const {
  double& s = atom_selectivity_[static_cast<size_t>(atom_index)];
  if (s < 0) s = ComputeAtomSelectivity(atom_index);
  return s;
}

double CardinalityEstimator::ComputeAtomSelectivity(int atom_index) const {
  const BoundAtom& atom = q_.atoms[static_cast<size_t>(atom_index)];
  const sql::Predicate& p = *atom.pred;
  const BoundTable& bt = q_.tables[static_cast<size_t>(atom.table)];
  double rows = TableRows(atom.table);
  const std::string& col_name = bt.schema->column(atom.column).name;

  if (p.kind == sql::Predicate::Kind::kColumnCompare) {
    if (atom.rhs_table == atom.table) {
      // Same-table column comparison (e.g. a < b): fixed guess.
      return p.op == sql::CompareOp::kEq ? 0.05 : 0.30;
    }
    // Cross-table comparisons are handled by JoinSelectivity.
    return 1.0;
  }

  ++lookups_;
  const stats::Statistics* s =
      stats_.Histogram(bt.database->name(), *bt.schema, col_name, missing_);
  const stats::Histogram* h =
      (s != nullptr && !s->histogram.empty()) ? &s->histogram : nullptr;
  // Histograms can be stale relative to the logical row count; normalize by
  // the histogram's own total.
  double h_rows = h != nullptr ? std::max(1.0, h->total_rows()) : rows;

  switch (p.kind) {
    case sql::Predicate::Kind::kCompare: {
      switch (p.op) {
        case sql::CompareOp::kEq:
          if (h != nullptr) return Clamp01(h->EstimateEquals(p.value) / h_rows);
          return 1.0 / std::max(1.0, ColumnDistinct(atom.table, atom.column));
        case sql::CompareOp::kNe:
          if (h != nullptr) {
            return Clamp01(1.0 - h->EstimateEquals(p.value) / h_rows);
          }
          return DefaultSelectivity::kNotEqual;
        case sql::CompareOp::kLt:
          if (h != nullptr) {
            return Clamp01(
                h->EstimateRange(std::nullopt, false, p.value, false) /
                h_rows);
          }
          return DefaultSelectivity::kRange;
        case sql::CompareOp::kLe:
          if (h != nullptr) {
            return Clamp01(
                h->EstimateRange(std::nullopt, false, p.value, true) / h_rows);
          }
          return DefaultSelectivity::kRange;
        case sql::CompareOp::kGt:
          if (h != nullptr) {
            return Clamp01(
                h->EstimateRange(p.value, false, std::nullopt, false) /
                h_rows);
          }
          return DefaultSelectivity::kRange;
        case sql::CompareOp::kGe:
          if (h != nullptr) {
            return Clamp01(
                h->EstimateRange(p.value, true, std::nullopt, false) / h_rows);
          }
          return DefaultSelectivity::kRange;
      }
      return DefaultSelectivity::kRange;
    }
    case sql::Predicate::Kind::kBetween:
      if (h != nullptr) {
        return Clamp01(h->EstimateRange(p.low, true, p.high, true) / h_rows);
      }
      return DefaultSelectivity::kRange * 0.5;
    case sql::Predicate::Kind::kIn: {
      if (h != nullptr) {
        double acc = 0;
        for (const auto& v : p.in_list) acc += h->EstimateEquals(v);
        return Clamp01(acc / h_rows);
      }
      double eq =
          1.0 / std::max(1.0, ColumnDistinct(atom.table, atom.column));
      return Clamp01(eq * static_cast<double>(p.in_list.size()));
    }
    case sql::Predicate::Kind::kLike: {
      // Prefix patterns translate to ranges; others get the default guess.
      size_t wild = p.like_pattern.find_first_of("%_");
      if (wild == std::string::npos) {
        // Exact match.
        if (h != nullptr) {
          return Clamp01(
              h->EstimateEquals(sql::Value::String(p.like_pattern)) / h_rows);
        }
        return 1.0 / std::max(1.0, ColumnDistinct(atom.table, atom.column));
      }
      if (wild > 0 && h != nullptr) {
        return Clamp01(
            h->EstimateLikePrefix(p.like_pattern.substr(0, wild)) / h_rows);
      }
      return DefaultSelectivity::kLike;
    }
    case sql::Predicate::Kind::kColumnCompare:
      return 1.0;  // unreachable
  }
  return 1.0;
}

double CardinalityEstimator::FilterSelectivity(
    const std::vector<int>& atom_indexes) const {
  // Independence with exponential backoff: the most selective predicate
  // applies fully, the next at sqrt, the next at 4th root, ... (guards
  // against correlated predicates crushing the estimate).
  std::vector<double> sels;
  sels.reserve(atom_indexes.size());
  for (int idx : atom_indexes) sels.push_back(AtomSelectivity(idx));
  std::sort(sels.begin(), sels.end());
  double result = 1.0;
  double exponent = 1.0;
  for (double s : sels) {
    result *= std::pow(s, exponent);
    exponent *= 0.5;
  }
  return Clamp01(result);
}

double CardinalityEstimator::JoinSelectivity(int atom_index) const {
  const BoundAtom& atom = q_.atoms[static_cast<size_t>(atom_index)];
  double dl = ColumnDistinct(atom.table, atom.column);
  double dr = ColumnDistinct(atom.rhs_table, atom.rhs_column);
  return 1.0 / std::max(1.0, std::max(dl, dr));
}

double CardinalityEstimator::GroupCardinality(
    const std::vector<std::pair<int, int>>& cols, double input_rows) const {
  if (cols.empty()) return 1.0;
  // Group columns by table: multi-column density is per-table.
  double total = 1.0;
  for (size_t t = 0; t < q_.tables.size(); ++t) {
    std::vector<std::string> names;
    for (const auto& [tab, col] : cols) {
      if (tab == static_cast<int>(t)) {
        names.push_back(q_.tables[t].schema->column(col).name);
      }
    }
    if (names.empty()) continue;
    const BoundTable& bt = q_.tables[t];
    ++lookups_;
    double d = stats_.DistinctCount(bt.database->name(), *bt.schema, names,
                                    missing_);
    total *= std::max(1.0, d);
  }
  return std::min(total, std::max(1.0, input_rows));
}

double CardinalityEstimator::PartitionFraction(
    int table, const catalog::PartitionScheme& scheme,
    const std::vector<int>& atom_indexes, int* partitions_touched) const {
  const BoundTable& bt = q_.tables[static_cast<size_t>(table)];
  int part_col = bt.schema->ColumnIndex(scheme.column);
  int total = scheme.PartitionCount();
  int touched = total;
  for (int idx : atom_indexes) {
    const BoundAtom& atom = q_.atoms[static_cast<size_t>(idx)];
    if (atom.column != part_col || atom.rhs_table >= 0) continue;
    const sql::Predicate& p = *atom.pred;
    int t = total;
    switch (p.kind) {
      case sql::Predicate::Kind::kCompare:
        switch (p.op) {
          case sql::CompareOp::kEq:
            t = 1;
            break;
          case sql::CompareOp::kLt:
          case sql::CompareOp::kLe:
            t = scheme.PartitionFor(p.value) + 1;
            break;
          case sql::CompareOp::kGt:
          case sql::CompareOp::kGe:
            t = total - scheme.PartitionFor(p.value);
            break;
          default:
            break;
        }
        break;
      case sql::Predicate::Kind::kBetween:
        t = scheme.PartitionFor(p.high) - scheme.PartitionFor(p.low) + 1;
        break;
      case sql::Predicate::Kind::kIn: {
        std::vector<int> parts;
        for (const auto& v : p.in_list) parts.push_back(scheme.PartitionFor(v));
        std::sort(parts.begin(), parts.end());
        parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
        t = static_cast<int>(parts.size());
        break;
      }
      case sql::Predicate::Kind::kLike: {
        size_t wild = p.like_pattern.find_first_of("%_");
        if (wild > 0) {
          std::string prefix = p.like_pattern.substr(
              0, wild == std::string::npos ? p.like_pattern.size() : wild);
          std::string hi = prefix;
          hi.push_back('\x7f');
          t = scheme.PartitionFor(sql::Value::String(hi)) -
              scheme.PartitionFor(sql::Value::String(prefix)) + 1;
        }
        break;
      }
      case sql::Predicate::Kind::kColumnCompare:
        break;
    }
    touched = std::min(touched, std::max(1, t));
  }
  if (partitions_touched != nullptr) *partitions_touched = touched;
  return static_cast<double>(touched) / static_cast<double>(total);
}

}  // namespace dta::optimizer
