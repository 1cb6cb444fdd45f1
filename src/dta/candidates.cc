#include "dta/candidates.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.h"
#include "optimizer/bound_query.h"

namespace dta::tuner {

Candidate Candidate::MakeIndex(catalog::IndexDef index,
                               const catalog::Catalog& catalog) {
  Candidate c;
  c.kind = Kind::kIndex;
  c.index = std::move(index);
  c.name = c.index.CanonicalName();
  auto resolved = catalog.ResolveTable(c.index.database, c.index.table);
  if (resolved.ok()) {
    c.bytes = c.index.EstimateBytes(*resolved->table);
  }
  return c;
}

Candidate Candidate::MakeView(catalog::ViewDef view) {
  Candidate c;
  c.kind = Kind::kView;
  c.view = std::move(view);
  c.name = c.view.CanonicalName();
  c.bytes = c.view.EstimateBytes();
  return c;
}

Candidate Candidate::MakePartitioning(std::string database, std::string table,
                                      catalog::PartitionScheme scheme) {
  Candidate c;
  c.kind = Kind::kTablePartitioning;
  c.database = ToLower(database);
  c.table = ToLower(table);
  c.scheme = std::move(scheme);
  c.name = catalog::TablePartitioningName(c.table, c.scheme);
  c.bytes = 0;  // repartitioning is non-redundant
  return c;
}

const std::string& Candidate::TargetTable() const {
  switch (kind) {
    case Kind::kIndex:
      return index.table;
    case Kind::kTablePartitioning:
      return table;
    case Kind::kView: {
      static const std::string kEmpty;
      return view.referenced_tables.empty() ? kEmpty
                                            : view.referenced_tables[0];
    }
  }
  static const std::string kEmpty;
  return kEmpty;
}

Status Candidate::ApplyTo(catalog::Configuration* config,
                          bool aligned) const {
  switch (kind) {
    case Kind::kIndex: {
      if (!aligned) return config->AddIndex(index, name);
      catalog::IndexDef ix = index;
      const catalog::PartitionScheme* scheme =
          config->FindTablePartitioning(ix.table);
      // Lazy introduction of the aligned variant: the index inherits the
      // table's partitioning (or loses its own when the table has none),
      // which changes its name, so the configuration renders it.
      if (scheme != nullptr) {
        ix.partitioning = *scheme;
      } else {
        ix.partitioning.reset();
      }
      return config->AddIndex(std::move(ix));
    }
    case Kind::kView:
      return config->AddView(view, name);
    case Kind::kTablePartitioning: {
      const catalog::PartitionScheme* existing =
          config->FindTablePartitioning(table);
      if (existing != nullptr) {
        return Status::AlreadyExists("table already partitioned: " + table);
      }
      config->SetTablePartitioning(table, scheme);
      if (aligned) {
        // Re-partition the table's unpartitioned indexes already in the
        // configuration. An index with a scheme of its own stays until
        // BuildConfiguration's final alignment pass rewrites it.
        std::vector<std::pair<std::string, catalog::IndexDef>> updated;
        for (const catalog::IndexDef* ix : config->IndexesOnTable(table)) {
          catalog::IndexDef copy = *ix;
          copy.partitioning = scheme;
          updated.emplace_back(
              ix->partitioning.has_value() ? "" : config->NameOf(*ix),
              std::move(copy));
        }
        for (auto& [original, ix] : updated) {
          if (!original.empty()) config->RemoveStructure(original);
          // Re-add, ignoring duplicates (an identical aligned index may
          // already exist).
          Status s = config->AddIndex(std::move(ix));
          if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        }
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown candidate kind");
}

namespace {

using optimizer::BoundQuery;

// Collects per-table candidate ingredients from a bound query.
struct TableIngredients {
  std::string database;
  std::string table;
  std::vector<std::string> eq_cols;     // equality / IN predicate columns
  std::vector<std::string> range_cols;  // range / LIKE predicate columns
  std::vector<std::string> join_cols;
  std::vector<std::string> group_cols;  // this table's GROUP BY columns
  std::vector<std::string> order_cols;
  std::vector<std::string> output_cols;  // all referenced columns
  uint64_t row_count = 0;
};

void PushUnique(std::vector<std::string>* v, const std::string& s) {
  if (std::find(v->begin(), v->end(), s) == v->end()) v->push_back(s);
}

std::vector<TableIngredients> CollectIngredients(const BoundQuery& q) {
  std::vector<TableIngredients> out(q.tables.size());
  for (size_t t = 0; t < q.tables.size(); ++t) {
    out[t].database = q.tables[t].database->name();
    out[t].table = q.tables[t].schema->name();
    out[t].row_count = q.tables[t].schema->row_count();
    for (int c : q.referenced_columns[t]) {
      out[t].output_cols.push_back(q.ColumnName(static_cast<int>(t), c));
    }
  }
  for (const auto& atom : q.atoms) {
    const std::string& col = q.ColumnName(atom.table, atom.column);
    auto& ing = out[static_cast<size_t>(atom.table)];
    if (atom.IsJoin()) {
      PushUnique(&ing.join_cols, col);
      PushUnique(&out[static_cast<size_t>(atom.rhs_table)].join_cols,
                 q.ColumnName(atom.rhs_table, atom.rhs_column));
      continue;
    }
    if (atom.rhs_table >= 0) continue;  // cross-column compare
    const sql::Predicate& p = *atom.pred;
    if (p.IsEquality() || p.kind == sql::Predicate::Kind::kIn) {
      PushUnique(&ing.eq_cols, col);
    } else if (p.IsRange() || p.kind == sql::Predicate::Kind::kLike) {
      PushUnique(&ing.range_cols, col);
    }
  }
  for (const auto& [t, c] : q.group_by) {
    PushUnique(&out[static_cast<size_t>(t)].group_cols, q.ColumnName(t, c));
  }
  for (const auto& o : q.order_by) {
    PushUnique(&out[static_cast<size_t>(o.table)].order_cols,
               q.ColumnName(o.table, o.column));
  }
  return out;
}

// Builds an index candidate if its key passes the interesting-group filter.
void TryAddIndex(const TableIngredients& ing,
                 const std::vector<std::string>& key,
                 const std::vector<std::string>& includes, bool clustered,
                 const InterestingColumnGroups& groups,
                 const catalog::Catalog& catalog, std::set<std::string>* seen,
                 std::vector<Candidate>* out) {
  if (key.empty()) return;
  // Reject keys with repeated columns (composed variants can collide).
  for (size_t i = 0; i < key.size(); ++i) {
    for (size_t j = i + 1; j < key.size(); ++j) {
      if (EqualsIgnoreCase(key[i], key[j])) return;
    }
  }
  // Keys must form an interesting column-group.
  if (!groups.Contains(ing.database, ing.table, key)) return;
  catalog::IndexDef ix;
  ix.database = ing.database;
  ix.table = ing.table;
  ix.key_columns = key;
  ix.clustered = clustered;
  if (!clustered) {
    for (const auto& c : includes) {
      if (std::find(key.begin(), key.end(), c) == key.end()) {
        ix.included_columns.push_back(c);
      }
    }
  }
  Candidate cand = Candidate::MakeIndex(std::move(ix), catalog);
  if (seen->insert(cand.name).second) out->push_back(std::move(cand));
}

// Proposes a range-partitioning scheme over `column` using equi-fraction
// histogram boundaries.
std::optional<catalog::PartitionScheme> ProposeScheme(
    const StatsFetcher& fetch, const std::string& database,
    const std::string& table, const std::string& column, int max_boundaries) {
  auto stats = fetch(stats::StatsKey(database, table, {column}));
  if (!stats.ok()) return std::nullopt;
  const stats::Histogram& h = (*stats)->histogram;
  if (h.empty() || h.distinct_count() < 4) return std::nullopt;
  catalog::PartitionScheme scheme;
  scheme.column = column;
  int parts = std::min<int>(max_boundaries + 1,
                            static_cast<int>(h.distinct_count()));
  for (int i = 1; i < parts; ++i) {
    sql::Value b = h.ValueAtFraction(static_cast<double>(i) / parts);
    if (scheme.boundaries.empty() ||
        scheme.boundaries.back().Compare(b) < 0) {
      scheme.boundaries.push_back(std::move(b));
    }
  }
  if (scheme.boundaries.empty()) return std::nullopt;
  return scheme;
}

// Materialized-view candidates for a bound SELECT.
void AddViewCandidates(const sql::SelectStatement& stmt, const BoundQuery& q,
                       server::Server* server, bool prefer_general,
                       std::set<std::string>* seen,
                       std::vector<Candidate>* out) {
  if (stmt.select_star || stmt.distinct) return;
  bool has_group = !stmt.group_by.empty();
  bool has_aggs = stmt.HasAggregates();
  bool is_join = stmt.from.size() >= 2;
  if (!has_group && !has_aggs && !is_join) return;
  // Aggregates with DISTINCT cannot be folded from a view.
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr && item.expr->IsAggregate() &&
        item.expr->distinct) {
      return;
    }
  }

  auto estimate_and_emit = [&](sql::SelectStatement def) {
    catalog::ViewDef v;
    v.definition =
        std::make_shared<sql::SelectStatement>(std::move(def));
    for (const auto& tr : v.definition->from) {
      v.referenced_tables.push_back(ToLower(tr.table));
    }
    auto plan = server->WhatIfPlan(*v.definition, catalog::Configuration());
    if (!plan.ok()) return;
    v.estimated_rows = std::max(1.0, plan->root->est_rows);
    int bytes = 16;
    for (const auto& item : v.definition->items) {
      bytes += 12;
      (void)item;
    }
    v.estimated_row_bytes = bytes;
    Candidate cand = Candidate::MakeView(std::move(v));
    if (seen->insert(cand.name).second) out->push_back(std::move(cand));
  };

  // Does the statement carry single-table predicates whose constants would
  // be baked into an exact view?
  bool has_constant_preds = false;
  for (const auto& p : stmt.where) {
    if (p.kind != sql::Predicate::Kind::kColumnCompare) {
      has_constant_preds = true;
      break;
    }
  }

  // V1: the statement itself (minus ORDER BY / TOP). Skipped for
  // compression representatives whose constants would over-fit the view to
  // one cluster member.
  if (!(prefer_general && has_constant_preds)) {
    sql::SelectStatement def = stmt.Clone();
    def.order_by.clear();
    def.top = -1;
    estimate_and_emit(std::move(def));
  }

  // V2: generalized — drop single-table predicates, exposing their columns
  // through GROUP BY so queries with different constants match.
  if (has_group || has_aggs) {
    sql::SelectStatement def = stmt.Clone();
    def.order_by.clear();
    def.top = -1;
    std::vector<sql::Predicate> kept;
    std::vector<sql::ColumnRef> exposed;
    for (auto& p : def.where) {
      if (p.kind == sql::Predicate::Kind::kColumnCompare) {
        kept.push_back(std::move(p));
      } else {
        exposed.push_back(p.column);
      }
    }
    if (!exposed.empty()) {
      def.where = std::move(kept);
      for (const auto& col : exposed) {
        bool in_group = false;
        for (const auto& g : def.group_by) {
          if (EqualsIgnoreCase(g.column, col.column) &&
              EqualsIgnoreCase(g.table, col.table)) {
            in_group = true;
            break;
          }
        }
        if (!in_group) {
          def.group_by.push_back(col);
          sql::SelectItem item;
          item.expr = sql::Expr::Column(col);
          def.items.push_back(std::move(item));
        }
      }
      // A generalized view must aggregate (otherwise it is just the join).
      if (!def.group_by.empty()) {
        estimate_and_emit(std::move(def));
      }
    }
  }
  (void)q;
}

}  // namespace

Result<std::vector<Candidate>> GenerateCandidatesForStatement(
    const sql::Statement& stmt, server::Server* server,
    const InterestingColumnGroups& groups, const TuningOptions& options,
    const StatsFetcher& fetch_stats, double statement_weight) {
  std::vector<Candidate> out;
  std::set<std::string> seen;
  const catalog::Catalog& catalog = server->catalog();
  StatsFetcher fetch = fetch_stats;
  if (fetch == nullptr) {
    fetch = [server](const stats::StatsKey& key) {
      return server->GetOrCreateStatistics(key);
    };
  }

  if (!stmt.is_select()) {
    // DML: an index over the WHERE columns speeds up row location.
    if (!options.tune_indexes) return out;
    auto dml = optimizer::BindDml(stmt, catalog);
    if (!dml.ok()) return dml.status();
    if (dml->filter_columns.empty()) return out;
    TableIngredients ing;
    ing.database = dml->database->name();
    ing.table = dml->table->name();
    std::vector<std::string> key;
    for (size_t i = 0; i < dml->filters.size(); ++i) {
      const sql::Predicate& p = *dml->filters[i];
      const std::string& col =
          dml->table->column(dml->filter_columns[i]).name;
      if (p.IsEquality() || p.kind == sql::Predicate::Kind::kIn) {
        PushUnique(&key, col);
      }
    }
    for (size_t i = 0; i < dml->filters.size(); ++i) {
      const sql::Predicate& p = *dml->filters[i];
      if (p.IsRange() || p.kind == sql::Predicate::Kind::kLike) {
        PushUnique(&key,
                   dml->table->column(dml->filter_columns[i]).name);
        break;
      }
    }
    TryAddIndex(ing, key, {}, /*clustered=*/false, groups, catalog, &seen,
                &out);
    return out;
  }

  const sql::SelectStatement& sel = stmt.select();
  auto bound = optimizer::BindSelect(sel, catalog);
  if (!bound.ok()) return bound.status();
  const BoundQuery& q = *bound;
  std::vector<TableIngredients> ingredients = CollectIngredients(q);

  for (const TableIngredients& ing : ingredients) {
    if (!options.tune_indexes) break;
    // K1: equality columns + one range column.
    std::vector<std::string> k1 = ing.eq_cols;
    if (!ing.range_cols.empty()) k1.push_back(ing.range_cols[0]);
    TryAddIndex(ing, k1, {}, false, groups, catalog, &seen, &out);
    // K2: K1 covering.
    TryAddIndex(ing, k1, ing.output_cols, false, groups, catalog, &seen,
                &out);
    // K1 with the equality prefix reversed: a different index (leading
    // column changes seek opportunities) over the same column set — also
    // the source of the density overlap reduced statistics creation
    // exploits (paper §5.2, Example 3).
    if (ing.eq_cols.size() >= 2) {
      std::vector<std::string> k1r(ing.eq_cols.rbegin(),
                                   ing.eq_cols.rend());
      if (!ing.range_cols.empty()) k1r.push_back(ing.range_cols[0]);
      TryAddIndex(ing, k1r, {}, false, groups, catalog, &seen, &out);
    }
    // K1 extended with every range column (deep range keys let later key
    // columns filter within the leading range; also the overlap source for
    // reduced statistics on range-heavy workloads).
    if (ing.range_cols.size() >= 2) {
      std::vector<std::string> k1x = ing.eq_cols;
      for (size_t r = 0; r < ing.range_cols.size() && r < 3; ++r) {
        k1x.push_back(ing.range_cols[r]);
      }
      TryAddIndex(ing, k1x, ing.output_cols, false, groups, catalog, &seen,
                  &out);
    }
    // K3: group columns (covering) — enables stream aggregation.
    TryAddIndex(ing, ing.group_cols, ing.output_cols, false, groups, catalog,
                &seen, &out);
    // Group columns extended with the selection column: the grouped scan
    // can seek first.
    if (!ing.group_cols.empty() &&
        (!ing.eq_cols.empty() || !ing.range_cols.empty())) {
      std::vector<std::string> gk = ing.eq_cols;
      for (const auto& g : ing.group_cols) PushUnique(&gk, g);
      if (!ing.range_cols.empty()) gk.push_back(ing.range_cols[0]);
      TryAddIndex(ing, gk, ing.output_cols, false, groups, catalog, &seen,
                  &out);
    }
    // K4: order columns.
    if (ing.order_cols != ing.group_cols) {
      TryAddIndex(ing, ing.order_cols, ing.output_cols, false, groups,
                  catalog, &seen, &out);
    }
    // Join columns: one narrow index per join column (covering).
    for (const auto& jc : ing.join_cols) {
      TryAddIndex(ing, {jc}, ing.output_cols, false, groups, catalog, &seen,
                  &out);
    }
    // Clustered variants (non-redundant storage).
    if (!k1.empty()) {
      TryAddIndex(ing, k1, {}, true, groups, catalog, &seen, &out);
    }
    if (!ing.group_cols.empty()) {
      TryAddIndex(ing, ing.group_cols, {}, true, groups, catalog, &seen,
                  &out);
    }
  }

  // Range partitioning candidates.
  if (options.tune_partitioning) {
    for (const TableIngredients& ing : ingredients) {
      if (ing.row_count < 5000) continue;  // not worth partitioning
      std::vector<std::string> part_cols = ing.range_cols;
      for (const auto& c : ing.eq_cols) PushUnique(&part_cols, c);
      for (const auto& col : part_cols) {
        if (!groups.Contains(ing.database, ing.table, {col})) continue;
        auto scheme = ProposeScheme(fetch, ing.database, ing.table, col,
                                    options.max_partition_boundaries);
        if (!scheme.has_value()) continue;
        Candidate cand = Candidate::MakePartitioning(ing.database, ing.table,
                                                     std::move(*scheme));
        if (seen.insert(cand.name).second) out.push_back(std::move(cand));
      }
    }
  }

  // Materialized views.
  if (options.tune_materialized_views) {
    AddViewCandidates(sel, q, server, /*prefer_general=*/statement_weight > 1,
                      &seen, &out);
  }

  // Cap per-statement candidates. Indexes are generated first and are the
  // most numerous; truncate them while always keeping views and
  // partitionings (few, and qualitatively different options).
  const size_t cap = static_cast<size_t>(options.max_candidates_per_statement);
  if (out.size() > cap) {
    std::vector<Candidate> kept;
    size_t non_index = 0;
    for (const auto& c : out) {
      if (c.kind != Candidate::Kind::kIndex) ++non_index;
    }
    size_t index_budget = cap > non_index ? cap - non_index : 0;
    for (auto& c : out) {
      if (c.kind == Candidate::Kind::kIndex) {
        if (index_budget == 0) continue;
        --index_budget;
      }
      kept.push_back(std::move(c));
    }
    out = std::move(kept);
  }
  return out;
}

}  // namespace dta::tuner
