#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "optimizer/view_matching.h"

namespace dta::optimizer {

namespace {

constexpr double kPostJoinCompareSelectivity = 0.30;
constexpr double kPerPartitionOverheadMs = 0.05;
constexpr int kDpTableLimit = 12;

double PageBytes() { return catalog::TableSchema::kPageBytes; }

// Ordered column prefix check: true when `prefix` (ordinals) appears at the
// start of `order` in the same sequence.
bool IsOrderedPrefix(const std::vector<int>& order,
                     const std::vector<int>& prefix) {
  if (prefix.size() > order.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (order[i] != prefix[i]) return false;
  }
  return true;
}

// True when the first prefix.size() columns of `order` form the same *set*
// as `prefix` (sufficient for stream aggregation).
bool CoversAsSetPrefix(const std::vector<int>& order,
                       const std::vector<int>& group_cols) {
  if (group_cols.size() > order.size()) return false;
  std::vector<int> a(order.begin(),
                     order.begin() + static_cast<long>(group_cols.size()));
  std::vector<int> b = group_cols;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

// --------------------------------------------------------------------------
// Access paths
// --------------------------------------------------------------------------

namespace {

struct SargResult {
  std::vector<int> seek_atoms;
  double selectivity = 1.0;
};

// Walks the index key columns left to right, consuming one predicate per
// column: equality predicates allow continuing to the next key column; a
// range / IN / LIKE-prefix predicate is consumed and terminates the walk.
SargResult SargablePrefix(const catalog::TableSchema& schema,
                          const std::vector<std::string>& key_columns,
                          const BoundQuery& q, const CardinalityEstimator& est,
                          const std::vector<int>& filter_atoms) {
  SargResult out;
  for (const std::string& key_col : key_columns) {
    int ci = schema.ColumnIndex(key_col);
    if (ci < 0) break;
    int chosen = -1;
    bool is_equality = false;
    for (int a : filter_atoms) {
      const BoundAtom& atom = q.atoms[static_cast<size_t>(a)];
      if (atom.column != ci || atom.rhs_table >= 0) continue;
      const sql::Predicate& p = *atom.pred;
      if (p.IsEquality()) {
        chosen = a;
        is_equality = true;
        break;  // equality is the best option for this column
      }
      bool seekable =
          p.IsRange() || p.kind == sql::Predicate::Kind::kIn ||
          (p.kind == sql::Predicate::Kind::kLike &&
           p.like_pattern.find_first_of("%_") != 0);
      if (seekable && chosen < 0) chosen = a;
    }
    if (chosen < 0) break;
    out.seek_atoms.push_back(chosen);
    out.selectivity *= est.AtomSelectivity(chosen);
    if (!is_equality) break;
  }
  return out;
}

std::vector<int> RemoveAtoms(const std::vector<int>& all,
                             const std::vector<int>& remove) {
  std::vector<int> out;
  for (int a : all) {
    if (std::find(remove.begin(), remove.end(), a) == remove.end()) {
      out.push_back(a);
    }
  }
  return out;
}

std::vector<int> KeyOrdinals(const catalog::TableSchema& schema,
                             const std::vector<std::string>& cols) {
  std::vector<int> out;
  for (const auto& c : cols) {
    int ci = schema.ColumnIndex(c);
    if (ci < 0) break;
    out.push_back(ci);
  }
  return out;
}

// True when the index (plus the clustering key available as row locator)
// contains every referenced column of the table.
bool Covers(const catalog::IndexDef& ix, const catalog::IndexDef* clustered,
            const catalog::TableSchema& schema,
            const std::vector<int>& need_cols) {
  for (int c : need_cols) {
    const std::string& name = schema.column(c).name;
    if (ix.ContainsColumn(name)) continue;
    if (clustered != nullptr && clustered != &ix) {
      bool in_locator = false;
      for (const auto& kc : clustered->key_columns) {
        if (EqualsIgnoreCase(kc, name)) {
          in_locator = true;
          break;
        }
      }
      if (in_locator) continue;
    }
    return false;
  }
  return true;
}

// True when any filter atom references `column_name` of the table but is not
// among `seek_atoms` (partition elimination still applies to it).
bool HasNonSeekPredOn(const catalog::TableSchema& schema,
                      const std::string& column_name, const BoundQuery& q,
                      const std::vector<int>& filters,
                      const std::vector<int>& seek_atoms) {
  int ci = schema.ColumnIndex(column_name);
  if (ci < 0) return false;
  for (int a : filters) {
    if (std::find(seek_atoms.begin(), seek_atoms.end(), a) !=
        seek_atoms.end()) {
      continue;
    }
    if (q.atoms[static_cast<size_t>(a)].column == ci &&
        q.atoms[static_cast<size_t>(a)].rhs_table < 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<Optimizer::AccessPath> Optimizer::BuildAccessPaths(
    const BoundQuery& q, const CardinalityEstimator& est,
    const catalog::Configuration& config, int t) const {
  std::vector<AccessPath> paths;
  const BoundTable& bt = q.tables[static_cast<size_t>(t)];
  const catalog::TableSchema& schema = *bt.schema;
  const std::vector<int>& filters =
      q.filters_by_table[static_cast<size_t>(t)];
  const std::vector<int>& need_cols =
      q.referenced_columns[static_cast<size_t>(t)];

  const double rows = est.TableRows(t);
  const double filter_sel = est.FilterSelectivity(filters);
  const double out_rows = std::max(0.01, rows * filter_sel);
  const double data_pages = static_cast<double>(schema.DataPages());
  const double data_bytes = static_cast<double>(schema.DataBytes());

  const catalog::IndexDef* clustered =
      config.FindClusteredIndex(schema.name());
  const catalog::PartitionScheme* tpart =
      config.FindTablePartitioning(schema.name());

  // ---- Path 1: base scan (heap or clustered index), with partition
  // elimination when the table is range partitioned.
  {
    int parts = 1;
    double pfrac = 1.0;
    if (tpart != nullptr) {
      pfrac = est.PartitionFraction(t, *tpart, filters, &parts);
    }
    AccessPath p;
    p.node = std::make_unique<PlanNode>();
    p.node->op = PlanOp::kTableScan;
    p.node->table = t;
    p.node->atoms = filters;
    p.node->partitions_touched = tpart != nullptr ? parts : -1;
    p.rows = out_rows;
    p.cost = cm_.ScanCost(data_pages * pfrac, rows * pfrac, data_bytes) +
             cm_.FilterCost(rows * pfrac) +
             (parts - 1) * kPerPartitionOverheadMs;
    if (clustered != nullptr) {
      p.order_cols = KeyOrdinals(schema, clustered->key_columns);
      if (parts > 1) {
        // Per-partition sorted runs must be merged to present a global
        // order.
        p.cost += rows * pfrac * cm_.hardware().cmp_row_ms *
                  std::log2(static_cast<double>(parts) + 1);
      }
    }
    p.node->est_rows = p.rows;
    p.node->est_cost = p.cost;
    paths.push_back(std::move(p));
  }

  // ---- Path 2: clustered index seek.
  if (clustered != nullptr) {
    SargResult sarg =
        SargablePrefix(schema, clustered->key_columns, q, est, filters);
    if (!sarg.seek_atoms.empty()) {
      int parts = 1;
      const catalog::PartitionScheme* scheme =
          clustered->partitioning.has_value() ? &*clustered->partitioning
                                              : tpart;
      double extra_frac = 1.0;
      if (scheme != nullptr) {
        extra_frac =
            est.PartitionFraction(t, *scheme, filters, &parts);
        if (!HasNonSeekPredOn(schema, scheme->column, q, filters,
                              sarg.seek_atoms)) {
          // Elimination already subsumed by the seek (or no predicate on
          // the partitioning column at all).
          extra_frac = 1.0;
        }
      }
      double matched = std::max(0.01, rows * sarg.selectivity * extra_frac);
      double leaf_pages =
          std::max(1.0, data_pages * sarg.selectivity * extra_frac);
      AccessPath p;
      p.node = std::make_unique<PlanNode>();
      p.node->op = PlanOp::kIndexSeek;
      p.node->table = t;
      p.node->index = clustered;
      p.node->seek_atoms = sarg.seek_atoms;
      p.node->atoms = RemoveAtoms(filters, sarg.seek_atoms);
      p.node->partitions_touched = scheme != nullptr ? parts : -1;
      p.rows = out_rows * extra_frac;
      p.cost = cm_.SeekCost(leaf_pages, matched, 0, data_bytes, data_bytes,
                            parts) +
               cm_.FilterCost(matched);
      p.order_cols = KeyOrdinals(schema, clustered->key_columns);
      p.node->est_rows = p.rows;
      p.node->est_cost = p.cost;
      paths.push_back(std::move(p));
    }
  }

  // ---- Path 3: nonclustered indexes.
  for (const catalog::IndexDef* ix : config.IndexesOnTable(schema.name())) {
    if (ix->clustered) continue;
    bool covering = Covers(*ix, clustered, schema, need_cols);
    SargResult sarg =
        SargablePrefix(schema, ix->key_columns, q, est, filters);
    double leaf_total = static_cast<double>(ix->LeafPages(schema));
    double obj_bytes = leaf_total * PageBytes();

    int parts = 1;
    double pfrac = 1.0;
    if (ix->partitioning.has_value()) {
      pfrac = est.PartitionFraction(t, *ix->partitioning, filters, &parts);
      if (!sarg.seek_atoms.empty() &&
          !HasNonSeekPredOn(schema, ix->partitioning->column, q, filters,
                            sarg.seek_atoms)) {
        pfrac = 1.0;
      }
    }

    if (!sarg.seek_atoms.empty()) {
      double matched = std::max(0.01, rows * sarg.selectivity * pfrac);
      double leaf_pages =
          std::max(1.0, leaf_total * sarg.selectivity * pfrac);
      AccessPath p;
      p.node = std::make_unique<PlanNode>();
      p.node->op = PlanOp::kIndexSeek;
      p.node->table = t;
      p.node->index = ix;
      p.node->seek_atoms = sarg.seek_atoms;
      p.node->atoms = RemoveAtoms(filters, sarg.seek_atoms);
      p.node->partitions_touched =
          ix->partitioning.has_value() ? parts : -1;
      p.node->needs_lookup = !covering;
      p.rows = out_rows * pfrac;
      double lookups = covering ? 0 : matched;
      p.cost = cm_.SeekCost(leaf_pages, matched, lookups, obj_bytes,
                            data_bytes, parts) +
               cm_.FilterCost(matched);
      p.order_cols = KeyOrdinals(schema, ix->key_columns);
      p.node->est_rows = p.rows;
      p.node->est_cost = p.cost;
      paths.push_back(std::move(p));
    } else if (covering && leaf_total < data_pages) {
      // Covering index scan: narrower than the base table.
      AccessPath p;
      p.node = std::make_unique<PlanNode>();
      p.node->op = PlanOp::kIndexScan;
      p.node->table = t;
      p.node->index = ix;
      p.node->atoms = filters;
      p.node->partitions_touched =
          ix->partitioning.has_value() ? parts : -1;
      p.rows = out_rows * pfrac;
      p.cost = cm_.ScanCost(leaf_total * pfrac, rows * pfrac, obj_bytes) +
               cm_.FilterCost(rows * pfrac) +
               (parts - 1) * kPerPartitionOverheadMs;
      p.order_cols = KeyOrdinals(schema, ix->key_columns);
      if (parts > 1) {
        p.cost += rows * pfrac * cm_.hardware().cmp_row_ms *
                  std::log2(static_cast<double>(parts) + 1);
      }
      p.node->est_rows = p.rows;
      p.node->est_cost = p.cost;
      paths.push_back(std::move(p));
    }
  }

  if (m_access_paths_ != nullptr) m_access_paths_->Increment(paths.size());
  return paths;
}

std::optional<Optimizer::AccessPath> Optimizer::InnerSeekPath(
    const BoundQuery& q, const CardinalityEstimator& est,
    const catalog::Configuration& config, int t, int join_atom) const {
  const BoundAtom& atom = q.atoms[static_cast<size_t>(join_atom)];
  int join_col = atom.table == t ? atom.column : atom.rhs_column;
  const BoundTable& bt = q.tables[static_cast<size_t>(t)];
  const catalog::TableSchema& schema = *bt.schema;
  const std::string& join_col_name = schema.column(join_col).name;
  const std::vector<int>& filters =
      q.filters_by_table[static_cast<size_t>(t)];
  const std::vector<int>& need_cols =
      q.referenced_columns[static_cast<size_t>(t)];

  const double rows = est.TableRows(t);
  const double d = std::max(1.0, est.ColumnDistinct(t, join_col));
  const double per_probe_rows = rows / d;
  const double data_bytes = static_cast<double>(schema.DataBytes());
  const catalog::IndexDef* clustered =
      config.FindClusteredIndex(schema.name());

  std::optional<AccessPath> best;
  auto consider = [&](const catalog::IndexDef* ix) {
    if (ix->key_columns.empty() ||
        !EqualsIgnoreCase(ix->key_columns[0], join_col_name)) {
      return;
    }
    bool covering =
        ix->clustered || Covers(*ix, clustered, schema, need_cols);
    double leaf_total = ix->clustered
                            ? static_cast<double>(schema.DataPages())
                            : static_cast<double>(ix->LeafPages(schema));
    double obj_bytes = leaf_total * PageBytes();
    double leaf_pages = std::max(0.05, leaf_total / d);
    double lookups = covering ? 0 : per_probe_rows;
    double cost = cm_.SeekCost(leaf_pages, per_probe_rows, lookups, obj_bytes,
                               data_bytes) +
                  cm_.FilterCost(per_probe_rows);
    if (!best.has_value() || cost < best->cost) {
      AccessPath p;
      p.node = std::make_unique<PlanNode>();
      p.node->op = PlanOp::kIndexSeek;
      p.node->table = t;
      p.node->index = ix;
      p.node->seek_atoms = {join_atom};
      p.node->atoms = filters;
      p.node->needs_lookup = !covering;
      p.rows = per_probe_rows * est.FilterSelectivity(filters);
      p.cost = cost;
      p.node->est_rows = p.rows;
      p.node->est_cost = p.cost;
      best = std::move(p);
    }
  };
  for (const catalog::IndexDef* ix : config.IndexesOnTable(schema.name())) {
    consider(ix);
  }
  return best;
}

// --------------------------------------------------------------------------
// View plans
// --------------------------------------------------------------------------

const BoundQuery* Optimizer::BoundView(const catalog::ViewDef& view,
                                       const std::string& name) const {
  MutexLock lock(view_bind_mu_);
  auto it = view_bind_cache_.find(name);
  if (it != view_bind_cache_.end()) return it->second.get();
  if (view.definition == nullptr) return nullptr;
  auto bound = BindSelect(*view.definition, catalog_);
  if (!bound.ok()) {
    view_bind_cache_[name] = nullptr;
    return nullptr;
  }
  auto owned = std::make_unique<BoundQuery>(std::move(bound).value());
  // The cache may outlive the ViewDef instance that was bound (a different
  // instance with the same canonical name can be queried later): keep the
  // definition alive.
  owned->owned_stmt = view.definition;
  const BoundQuery* out = owned.get();
  view_bind_cache_[name] = std::move(owned);
  return out;
}

std::optional<Optimizer::AccessPath> Optimizer::BestViewPlan(
    const BoundQuery& q, const CardinalityEstimator& est,
    const catalog::Configuration& config) const {
  std::optional<AccessPath> best;
  for (size_t i = 0; i < config.views().size(); ++i) {
    const catalog::ViewDef& view = config.views()[i];
    const BoundQuery* vq = BoundView(view, config.view_names()[i]);
    if (vq == nullptr) continue;
    auto match = MatchView(q, *vq, view);
    if (!match.has_value()) continue;

    double vrows = std::max(1.0, view.estimated_rows);
    double vpages =
        std::max(1.0, static_cast<double>(view.EstimateBytes()) / PageBytes());
    double residual_sel = est.FilterSelectivity(match->residual_atoms);
    double out_rows = std::max(0.01, vrows * residual_sel);

    // Indexed-view seek: a materialized aggregated view carries a unique
    // clustered index on its GROUP BY columns (as SQL Server requires for
    // indexed views), so residual predicates on a prefix of those columns
    // become seeks instead of a full view scan.
    double seek_fraction = 1.0;
    if (!vq->group_by.empty() && !match->residual_atoms.empty()) {
      // Output ordinals of the view's group-by columns, in key order.
      std::vector<int> key_ordinals;
      for (const auto& [vt, vc] : vq->group_by) {
        int ordinal = -1;
        for (size_t i = 0; i < vq->stmt->items.size(); ++i) {
          const sql::Expr* e = vq->stmt->items[i].expr.get();
          if (e == nullptr || e->kind != sql::Expr::Kind::kColumn) continue;
          auto rc = ResolveColumnRef(e->column, *vq);
          if (rc.ok() && rc->first == vt && rc->second == vc) {
            ordinal = static_cast<int>(i);
            break;
          }
        }
        if (ordinal < 0) break;
        key_ordinals.push_back(ordinal);
      }
      for (int key_ord : key_ordinals) {
        int chosen = -1;
        bool is_eq = false;
        for (int a : match->residual_atoms) {
          const BoundAtom& atom = q.atoms[static_cast<size_t>(a)];
          if (atom.rhs_table >= 0) continue;
          auto it = match->column_map.find({atom.table, atom.column});
          if (it == match->column_map.end() || it->second != key_ord) {
            continue;
          }
          if (atom.pred->IsEquality()) {
            chosen = a;
            is_eq = true;
            break;
          }
          if (atom.pred->IsRange() && chosen < 0) chosen = a;
        }
        if (chosen < 0) break;
        seek_fraction *= est.AtomSelectivity(chosen);
        if (!is_eq) break;
      }
      seek_fraction = std::clamp(seek_fraction, 0.0, 1.0);
    }

    AccessPath p;
    p.node = std::make_unique<PlanNode>();
    p.node->op = PlanOp::kViewScan;
    p.node->view = &view;
    p.node->atoms = match->residual_atoms;
    p.node->view_match = std::make_shared<ViewMatchInfo>(*match);
    p.rows = out_rows;
    if (seek_fraction < 1.0) {
      p.cost = cm_.SeekCost(std::max(1.0, vpages * seek_fraction),
                            vrows * seek_fraction, 0,
                            static_cast<double>(view.EstimateBytes()),
                            static_cast<double>(view.EstimateBytes())) +
               cm_.FilterCost(vrows * seek_fraction);
    } else {
      p.cost = cm_.ScanCost(vpages, vrows,
                            static_cast<double>(view.EstimateBytes())) +
               cm_.FilterCost(vrows);
    }
    p.node->est_rows = p.rows;
    p.node->est_cost = p.cost;

    if (match->reaggregate) {
      double groups =
          q.group_by.empty()
              ? 1.0
              : est.GroupCardinality(q.group_by, out_rows);
      auto agg = std::make_unique<PlanNode>();
      agg->op = PlanOp::kHashAggregate;
      agg->view_reaggregate = true;
      agg->view_match = p.node->view_match;
      agg->est_rows = groups;
      agg->est_cost = p.cost + cm_.HashAggCost(out_rows, groups);
      agg->children.push_back(std::move(p.node));
      p.node = std::move(agg);
      p.rows = groups;
      p.cost = p.node->est_cost;
    }
    if (!best.has_value() || p.cost < best->cost) best = std::move(p);
  }
  return best;
}

// --------------------------------------------------------------------------
// Join ordering and final assembly
// --------------------------------------------------------------------------

namespace {

// Average output row width of the referenced columns of tables in `mask`.
double RowBytesOf(const BoundQuery& q, uint32_t mask) {
  double bytes = 16;
  for (size_t t = 0; t < q.tables.size(); ++t) {
    if ((mask & (1u << t)) == 0) continue;
    for (int c : q.referenced_columns[t]) {
      bytes += q.tables[t].schema->column(c).width_bytes;
    }
  }
  return bytes;
}

}  // namespace

Result<Optimizer::QueryPlan> Optimizer::PlanQueryBlock(
    BoundQuery q, const catalog::Configuration& config,
    std::set<stats::StatsKey>* missing) const {
  CardinalityEstimator est(q, stats_, m_stats_lookups_, missing);
  const size_t n = q.tables.size();
  if (n > 31) return Status::InvalidArgument("too many tables in FROM");

  // Per-table access paths.
  std::vector<std::vector<AccessPath>> table_paths(n);
  for (size_t t = 0; t < n; ++t) {
    table_paths[t] =
        BuildAccessPaths(q, est, config, static_cast<int>(t));
    if (table_paths[t].empty()) {
      return Status::Internal("no access path for table");
    }
  }
  auto cheapest = [&](size_t t) -> const AccessPath& {
    const AccessPath* best = &table_paths[t][0];
    for (const auto& p : table_paths[t]) {
      if (p.cost < best->cost) best = &p;
    }
    return *best;
  };

  // Inner seek paths by (join atom, inner side): a path depends on its
  // table and atom, never on the outer input, so each is built once.
  struct InnerSeek {
    bool built = false;
    std::optional<AccessPath> path;
  };
  std::vector<InnerSeek> inner_seeks(2 * q.atoms.size());
  auto inner_seek = [&](size_t t, int a) -> const AccessPath* {
    const BoundAtom& atom = q.atoms[static_cast<size_t>(a)];
    InnerSeek& memo = inner_seeks[2 * static_cast<size_t>(a) +
                                  (atom.table == static_cast<int>(t) ? 0 : 1)];
    if (!memo.built) {
      memo.path = InnerSeekPath(q, est, config, static_cast<int>(t), a);
      memo.built = true;
    }
    return memo.path.has_value() ? &*memo.path : nullptr;
  };

  // Equality join atoms connecting the tables in `left_mask` to table `t`.
  auto connecting_atoms = [&](uint32_t left_mask, size_t t) {
    std::vector<int> connecting;
    for (int a : q.join_atoms) {
      const BoundAtom& atom = q.atoms[static_cast<size_t>(a)];
      uint32_t lbit = 1u << atom.table;
      uint32_t rbit = 1u << atom.rhs_table;
      uint32_t tbit = 1u << t;
      if (((left_mask & lbit) != 0 && rbit == tbit) ||
          ((left_mask & rbit) != 0 && lbit == tbit)) {
        connecting.push_back(a);
      }
    }
    return connecting;
  };
  // The one connectivity rule of both join searches: the tables they may
  // join to the tables in `mask`, as a mask. Those an equality join atom
  // connects to `mask`; every other table (a cartesian product) only when
  // none connects.
  const uint32_t all_tables = (1u << n) - 1;
  auto extensions = [&](uint32_t mask) {
    uint32_t connected = 0;
    for (int a : q.join_atoms) {
      const BoundAtom& atom = q.atoms[static_cast<size_t>(a)];
      const uint32_t lbit = 1u << atom.table;
      const uint32_t rbit = 1u << atom.rhs_table;
      if ((mask & lbit) != 0) connected |= rbit;
      if ((mask & rbit) != 0) connected |= lbit;
    }
    connected &= ~mask;
    return connected != 0 ? connected : all_tables & ~mask;
  };

  // A join-search entry keeps its cost, its rows and how it was built:
  // either the leaf access path `right` into `table` (no `left`), or `op`
  // joining the entry `left` (the tables of `left_mask`) with the path
  // `right` into `table`. Entries point into `dp`, `chain`, `table_paths`
  // and `inner_seeks`, none of which moves during the search, and only the
  // winning tree is built, once, at the end.
  struct JoinEntry {
    bool valid = false;
    double rows = 0;
    double cost = 0;
    PlanOp op = PlanOp::kTableScan;
    int table = -1;
    const JoinEntry* left = nullptr;
    uint32_t left_mask = 0;
    const AccessPath* right = nullptr;
    bool right_first = false;  // a hash join building on `right`
  };
  auto leaf = [&](size_t t) {
    const AccessPath& p = cheapest(t);
    JoinEntry e;
    e.valid = true;
    e.rows = p.rows;
    e.cost = p.cost;
    e.table = static_cast<int>(t);
    e.right = &p;
    return e;
  };

  std::vector<JoinEntry> dp;     // by table mask, up to kDpTableLimit
  std::vector<JoinEntry> chain;  // the greedy chain beyond it, by step
  const JoinEntry* final_entry = nullptr;
  const bool use_dp = n <= kDpTableLimit;
  if (use_dp) dp.resize(1u << n);

  auto join_step = [&](const JoinEntry& left, uint32_t left_mask, size_t t,
                       JoinEntry* out) {
    const std::vector<int> connecting = connecting_atoms(left_mask, t);
    double join_sel = 1.0;
    for (int a : connecting) join_sel *= est.JoinSelectivity(a);

    const AccessPath& right = cheapest(t);
    double out_rows = std::max(0.01, left.rows * right.rows * join_sel);
    auto consider = [&](PlanOp op, double cost, const AccessPath& path,
                        bool right_first) {
      if (out->valid && !(cost < out->cost)) return;
      out->valid = true;
      out->rows = out_rows;
      out->cost = cost;
      out->op = op;
      out->table = static_cast<int>(t);
      out->left = &left;
      out->left_mask = left_mask;
      out->right = &path;
      out->right_first = right_first;
    };

    // Hash join: build on the smaller input.
    {
      bool build_left = left.rows <= right.rows;
      double build_rows = build_left ? left.rows : right.rows;
      double probe_rows = build_left ? right.rows : left.rows;
      double build_bytes =
          build_left ? RowBytesOf(q, left_mask) : RowBytesOf(q, 1u << t);
      consider(PlanOp::kHashJoin,
               left.cost + right.cost +
                   cm_.HashJoinCost(build_rows, probe_rows, build_bytes),
               right, !build_left);
    }

    // Index nested-loop join (inner = new table) on one eq join atom.
    for (int a : connecting) {
      const AccessPath* inner = inner_seek(t, a);
      if (inner == nullptr) continue;
      consider(PlanOp::kNestLoopJoin,
               left.cost + cm_.NestLoopCost(left.rows, inner->cost), *inner,
               false);
    }

    // Merge join: both sides single-table paths already ordered on the
    // join columns.
    if (left.left == nullptr && connecting.size() == 1) {
      const BoundAtom& atom = q.atoms[static_cast<size_t>(connecting[0])];
      int lcol = atom.table == left.table ? atom.column : atom.rhs_column;
      int rcol =
          atom.table == static_cast<int>(t) ? atom.column : atom.rhs_column;
      const std::vector<int>& left_order = left.right->order_cols;
      if (!left_order.empty() && left_order[0] == lcol) {
        for (const AccessPath& rp : table_paths[t]) {
          if (rp.order_cols.empty() || rp.order_cols[0] != rcol) continue;
          consider(PlanOp::kMergeJoin,
                   left.cost + rp.cost + cm_.MergeJoinCost(left.rows, rp.rows),
                   rp, false);
        }
      }
    }
  };

  if (use_dp) {
    // A lone table ends as its cheapest path; aggregation below may still
    // switch to an ordered one from table_paths.
    for (size_t t = 0; t < n; ++t) dp[1u << t] = leaf(t);
    for (uint32_t mask = 1; mask <= all_tables; ++mask) {
      if (!dp[mask].valid) continue;
      const uint32_t allowed = extensions(mask);
      for (size_t t = 0; t < n; ++t) {
        if ((allowed & (1u << t)) != 0) {
          join_step(dp[mask], mask, t, &dp[mask | (1u << t)]);
        }
      }
    }
    final_entry = &dp[all_tables];
  } else {
    // Greedy left-deep chain: start from the smallest table, then join the
    // cheapest table the connectivity rule allows, so an unconnected table
    // joins only once no remaining table connects.
    chain.resize(n);
    size_t start = 0;
    for (size_t t = 1; t < n; ++t) {
      if (cheapest(t).rows < cheapest(start).rows) start = t;
    }
    chain[0] = leaf(start);
    uint32_t mask = 1u << start;
    for (size_t step = 1; step < n; ++step) {
      JoinEntry& next = chain[step];
      const uint32_t allowed = extensions(mask);
      size_t best_t = n;
      for (size_t t = 0; t < n; ++t) {
        if ((allowed & (1u << t)) == 0) continue;
        JoinEntry cand;
        join_step(chain[step - 1], mask, t, &cand);
        if (cand.valid && (best_t == n || cand.cost < next.cost)) {
          next = cand;
          best_t = t;
        }
      }
      if (best_t == n) {
        return Status::Internal("greedy join ordering failed");
      }
      mask |= 1u << best_t;
    }
    final_entry = &chain[n - 1];
  }

  if (!final_entry->valid) {
    return Status::Internal("join enumeration produced no plan");
  }

  // The winning tree; its leaves are copies of the chosen access paths.
  auto build = [&](auto&& self, const JoinEntry& e) -> PlanNodePtr {
    if (e.left == nullptr) return e.right->node->Clone();
    auto node = std::make_unique<PlanNode>();
    node->op = e.op;
    node->join_atoms =
        connecting_atoms(e.left_mask, static_cast<size_t>(e.table));
    node->est_rows = e.rows;
    node->est_cost = e.cost;
    PlanNodePtr left = self(self, *e.left);
    PlanNodePtr right = e.right->node->Clone();
    if (e.right_first) std::swap(left, right);
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return node;
  };
  double rows = final_entry->rows;
  double cost = final_entry->cost;
  PlanNodePtr root = build(build, *final_entry);

  // Post-join cross-table comparisons.
  if (!q.post_join_atoms.empty()) {
    for (int a : q.post_join_atoms) {
      root->atoms.push_back(a);
      rows *= kPostJoinCompareSelectivity;
    }
    cost += cm_.FilterCost(rows);
    root->est_rows = rows;
    root->est_cost = cost;
  }

  const sql::SelectStatement& stmt = *q.stmt;
  bool has_aggs = stmt.HasAggregates();
  // Ordering survives only for single-table plans.
  const bool single_path = final_entry->left == nullptr;
  std::vector<int> order_cols =
      single_path ? final_entry->right->order_cols : std::vector<int>();
  int single_table = single_path ? final_entry->table : -1;

  // Aggregation.
  if (!q.group_by.empty() || has_aggs) {
    double groups =
        q.group_by.empty() ? 1.0 : est.GroupCardinality(q.group_by, rows);
    bool stream = false;
    if (!q.group_by.empty() && single_table >= 0) {
      std::vector<int> gcols;
      bool all_single = true;
      for (const auto& [t, c] : q.group_by) {
        if (t != single_table) {
          all_single = false;
          break;
        }
        gcols.push_back(c);
      }
      stream = all_single && CoversAsSetPrefix(order_cols, gcols);
      // A better single-table path might enable streaming: revisit paths.
      if (!stream && all_single) {
        for (const AccessPath& p : table_paths[static_cast<size_t>(
                 single_table)]) {
          if (!CoversAsSetPrefix(p.order_cols, gcols)) continue;
          double stream_cost = p.cost + cm_.StreamAggCost(p.rows);
          double hash_cost = cost + cm_.HashAggCost(rows, groups);
          if (stream_cost < hash_cost) {
            root = p.node->Clone();
            rows = p.rows;
            cost = p.cost;
            order_cols = p.order_cols;
            stream = true;
          }
          break;
        }
      }
    } else if (q.group_by.empty()) {
      stream = true;  // scalar aggregate
    }
    auto agg = std::make_unique<PlanNode>();
    agg->op = stream ? PlanOp::kStreamAggregate : PlanOp::kHashAggregate;
    cost += stream ? cm_.StreamAggCost(rows) : cm_.HashAggCost(rows, groups);
    rows = groups;
    agg->est_rows = rows;
    agg->est_cost = cost;
    agg->children.push_back(std::move(root));
    root = std::move(agg);
    if (!stream) order_cols.clear();
    // Grouped output ordering: stream agg preserves it.
    if (stream && q.group_by.empty()) order_cols.clear();
  } else if (stmt.distinct) {
    // DISTINCT == grouping on the output columns.
    std::vector<std::pair<int, int>> cols;
    for (const auto& item : stmt.items) {
      if (item.expr == nullptr) continue;
      std::vector<sql::ColumnRef> refs;
      item.expr->CollectColumns(&refs);
      for (const auto& ref : refs) {
        auto rc = ResolveColumnRef(ref, q);
        if (rc.ok()) cols.push_back(*rc);
      }
    }
    double groups = est.GroupCardinality(cols, rows);
    auto agg = std::make_unique<PlanNode>();
    agg->op = PlanOp::kHashAggregate;
    cost += cm_.HashAggCost(rows, groups);
    rows = groups;
    agg->est_rows = rows;
    agg->est_cost = cost;
    agg->children.push_back(std::move(root));
    root = std::move(agg);
    order_cols.clear();
  }

  // ORDER BY.
  if (!stmt.order_by.empty()) {
    bool satisfied = false;
    if (single_table >= 0 && root->op != PlanOp::kHashAggregate) {
      std::vector<int> ocols;
      bool all_single = true;
      bool all_asc = true;
      for (const auto& o : q.order_by) {
        if (o.table != single_table) all_single = false;
        if (!o.ascending) all_asc = false;
        ocols.push_back(o.column);
      }
      satisfied = all_single && all_asc && IsOrderedPrefix(order_cols, ocols);
    }
    if (!satisfied) {
      auto sort = std::make_unique<PlanNode>();
      sort->op = PlanOp::kSort;
      cost += cm_.SortCost(rows, RowBytesOf(q, (1u << q.tables.size()) - 1));
      sort->est_rows = rows;
      sort->est_cost = cost;
      sort->children.push_back(std::move(root));
      root = std::move(sort);
    }
  }

  // TOP.
  if (stmt.top >= 0) {
    auto top = std::make_unique<PlanNode>();
    top->op = PlanOp::kTop;
    rows = std::min(rows, static_cast<double>(stmt.top));
    cost += 0.01;
    top->est_rows = rows;
    top->est_cost = cost;
    top->children.push_back(std::move(root));
    root = std::move(top);
  }

  // Materialized-view alternative: whole-query replacement.
  auto view_alt = BestViewPlan(q, est, config);
  if (view_alt.has_value()) {
    double vcost = view_alt->cost;
    double vrows = view_alt->rows;
    PlanNodePtr vroot = std::move(view_alt->node);
    if (!stmt.order_by.empty()) {
      auto sort = std::make_unique<PlanNode>();
      sort->op = PlanOp::kSort;
      vcost += cm_.SortCost(vrows, 64);
      sort->est_rows = vrows;
      sort->est_cost = vcost;
      sort->children.push_back(std::move(vroot));
      vroot = std::move(sort);
    }
    if (stmt.top >= 0) {
      auto top = std::make_unique<PlanNode>();
      top->op = PlanOp::kTop;
      vrows = std::min(vrows, static_cast<double>(stmt.top));
      vcost += 0.01;
      top->est_rows = vrows;
      top->est_cost = vcost;
      top->children.push_back(std::move(vroot));
      vroot = std::move(top);
    }
    if (vcost < cost) {
      root = std::move(vroot);
      cost = vcost;
      rows = vrows;
    }
  }

  QueryPlan out;
  out.bound = std::move(q);
  out.root = std::move(root);
  out.cost = cost;
  return out;
}

Result<Optimizer::QueryPlan> Optimizer::OptimizeSelect(
    const sql::SelectStatement& stmt, const catalog::Configuration& config,
    std::set<stats::StatsKey>* missing) const {
  auto bound = BindSelect(stmt, catalog_);
  if (!bound.ok()) return bound.status();
  return PlanQueryBlock(std::move(bound).value(), config, missing);
}

// --------------------------------------------------------------------------
// DML costing
// --------------------------------------------------------------------------

namespace {

// Columns of `table` referenced by a view definition (by bound analysis).
std::vector<int> ViewColumnsOfTable(const BoundQuery& vq,
                                    const catalog::TableSchema& table) {
  for (size_t t = 0; t < vq.tables.size(); ++t) {
    if (vq.tables[t].schema == &table ||
        vq.tables[t].schema->name() == table.name()) {
      return vq.referenced_columns[t];
    }
  }
  return {};
}

}  // namespace

Result<double> Optimizer::CostDml(const sql::Statement& stmt,
                                  const catalog::Configuration& config,
                                  std::set<stats::StatsKey>* missing) const {
  auto bound = BindDml(stmt, catalog_);
  if (!bound.ok()) return bound.status();
  const BoundDml& dml = *bound;
  const catalog::TableSchema& table = *dml.table;
  double table_bytes = static_cast<double>(table.DataBytes());

  double cost = 0;
  double affected = 0;

  if (dml.kind == sql::StatementKind::kInsert) {
    affected = static_cast<double>(std::max<size_t>(1, dml.rows_inserted));
    // Base row write (heap or clustered).
    cost += affected * cm_.IndexInsertCost(table_bytes);
  } else {
    // Locate the affected rows: optimize a synthetic single-table SELECT
    // with the same predicates (indexes get credit for cheap location).
    sql::SelectStatement locate;
    sql::TableRef tr;
    tr.table = table.name();
    locate.from.push_back(tr);
    for (const sql::Predicate* p : dml.filters) {
      locate.where.push_back(*p);
    }
    if (dml.filters.empty()) {
      locate.select_star = true;
    } else {
      for (const sql::Predicate* p : dml.filters) {
        sql::SelectItem item;
        item.expr = sql::Expr::Column(p->column);
        locate.items.push_back(std::move(item));
      }
    }
    auto plan = OptimizeSelect(locate, config, missing);
    if (!plan.ok()) return plan.status();
    affected = std::max(1.0, plan->root->est_rows);
    cost += plan->cost;
    // Touch each affected base row.
    cost += affected * cm_.hardware().rand_page_ms *
            cm_.IoDiscount(table_bytes);
  }

  // Index maintenance.
  for (const catalog::IndexDef* ix : config.IndexesOnTable(table.name())) {
    double ix_bytes = static_cast<double>(ix->LeafPages(table)) * PageBytes();
    switch (dml.kind) {
      case sql::StatementKind::kInsert:
        cost += affected * cm_.IndexInsertCost(ix_bytes);
        break;
      case sql::StatementKind::kDelete:
        cost += affected * cm_.IndexDeleteCost(ix_bytes);
        break;
      case sql::StatementKind::kUpdate: {
        bool touched = false;
        for (int c : dml.updated_columns) {
          if (ix->ContainsColumn(table.column(c).name)) {
            touched = true;
            break;
          }
        }
        // Updating the partitioning column moves rows across partitions.
        if (!touched && ix->partitioning.has_value()) {
          for (int c : dml.updated_columns) {
            if (EqualsIgnoreCase(ix->partitioning->column,
                                 table.column(c).name)) {
              touched = true;
              break;
            }
          }
        }
        if (touched) {
          cost += affected *
                  (cm_.IndexDeleteCost(ix_bytes) + cm_.IndexInsertCost(ix_bytes));
        }
        break;
      }
      case sql::StatementKind::kSelect:
        break;
    }
  }

  // Materialized-view maintenance.
  for (const catalog::ViewDef* v : config.ViewsReferencing(table.name())) {
    bool touched = true;
    if (dml.kind == sql::StatementKind::kUpdate) {
      touched = false;
      const BoundQuery* vq = BoundView(*v, config.NameOf(*v));
      if (vq != nullptr) {
        std::vector<int> vcols = ViewColumnsOfTable(*vq, table);
        for (int c : dml.updated_columns) {
          if (std::find(vcols.begin(), vcols.end(), c) != vcols.end()) {
            touched = true;
            break;
          }
        }
      } else {
        touched = true;  // unknown definition: be conservative
      }
    }
    if (touched) {
      cost += cm_.ViewMaintenanceCost(
          affected, std::max(1.0, v->estimated_rows),
          static_cast<int>(v->referenced_tables.size()));
    }
  }

  return cost;
}

Result<double> Optimizer::CostStatement(
    const sql::Statement& stmt, const catalog::Configuration& config,
    std::set<stats::StatsKey>* missing) const {
  if (m_statements_ != nullptr) m_statements_->Increment();
  if (stmt.is_select()) {
    auto plan = OptimizeSelect(stmt.select(), config, missing);
    if (!plan.ok()) return plan.status();
    return plan->cost;
  }
  return CostDml(stmt, config, missing);
}

}  // namespace dta::optimizer
