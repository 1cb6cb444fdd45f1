// Derived what-if costing tests: the pinned cache-key bytes, decomposition
// shape (per-table combination atoms, view atoms, DML exclusion, the bounded
// singleton form, atom fingerprints), the combine rule against
// brute-force what-if pricing, fallback when an atom degraded, checkpoint
// round-tripping of memoized atoms, and session-level invariance of the
// recommendation and of the derived counters across threads, shards, and
// exact mode.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dta/candidates.h"
#include "dta/checkpoint.h"
#include "dta/cost_service.h"
#include "dta/derived_cost.h"
#include "dta/enumeration.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "sql/parser.h"
#include "workload/workload.h"
#include "workloads/tpch.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::PartitionScheme;
using catalog::TableSchema;

// Same production fixture as dta_session_test: two joinable tables with
// real data and a constraint-enforcing PK index.
std::unique_ptr<server::Server> MakeProduction(uint64_t seed = 11) {
  auto s = std::make_unique<server::Server>(
      "prod", optimizer::HardwareParams());
  Random rng(seed);

  TableSchema orders("orders", {{"o_id", ColumnType::kInt, 8},
                                {"o_cust", ColumnType::kInt, 8},
                                {"o_date", ColumnType::kString, 10},
                                {"o_price", ColumnType::kDouble, 8}});
  orders.set_row_count(30000);
  orders.SetPrimaryKey({"o_id"});
  TableSchema items("items", {{"i_oid", ColumnType::kInt, 8},
                              {"i_part", ColumnType::kInt, 8},
                              {"i_qty", ColumnType::kDouble, 8}});
  items.set_row_count(120000);

  catalog::Database db("shop");
  EXPECT_TRUE(db.AddTable(orders).ok());
  EXPECT_TRUE(db.AddTable(items).ok());
  EXPECT_TRUE(s->AttachDatabase(std::move(db)).ok());

  storage::TableGenSpec ospec;
  ospec.schema = orders;
  ospec.column_specs = {storage::ColumnSpec::Sequential(),
                        storage::ColumnSpec::UniformInt(1, 3000),
                        storage::ColumnSpec::Date("1994-01-01", 1500),
                        storage::ColumnSpec::UniformReal(10, 10000)};
  ospec.rows = 30000;
  auto odata = storage::GenerateTable(ospec, &rng);
  EXPECT_TRUE(odata.ok());
  EXPECT_TRUE(s->AttachTableData("shop", std::move(odata).value()).ok());

  storage::TableGenSpec ispec;
  ispec.schema = items;
  ispec.column_specs = {storage::ColumnSpec::UniformInt(1, 30000),
                        storage::ColumnSpec::UniformInt(1, 2000),
                        storage::ColumnSpec::UniformReal(1, 100)};
  ispec.rows = 120000;
  auto idata = storage::GenerateTable(ispec, &rng);
  EXPECT_TRUE(idata.ok());
  EXPECT_TRUE(s->AttachTableData("shop", std::move(idata).value()).ok());

  Configuration raw;
  EXPECT_TRUE(raw.AddIndex(IndexDef{.table = "orders",
                                    .key_columns = {"o_id"},
                                    .constraint_enforcing = true})
                  .ok());
  EXPECT_TRUE(s->ImplementConfiguration(raw).ok());
  return s;
}

workload::Workload SelectWorkload() {
  const char* script =
      "SELECT o_price FROM orders WHERE o_id = 55;"
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "SELECT i_qty FROM items WHERE i_part = 77;";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

workload::Workload MixedWorkload() {
  const char* script =
      "SELECT o_price FROM orders WHERE o_id = 55;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "UPDATE items SET i_qty = 3 WHERE i_part = 9";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

IndexDef Ix(const std::string& table, std::vector<std::string> keys,
            std::vector<std::string> included = {}) {
  return IndexDef{.table = table,
                  .key_columns = std::move(keys),
                  .included_columns = std::move(included)};
}

// The candidate index pool the brute-force tests enumerate subsets of:
// two orders indexes and two items indexes.
std::vector<IndexDef> TestPool() {
  return {Ix("orders", {"o_id"}, {"o_price"}),
          Ix("orders", {"o_date"}, {"o_cust"}),
          Ix("items", {"i_part"}, {"i_qty"}),
          Ix("items", {"i_oid"}, {"i_qty"})};
}

catalog::ViewDef View(const char* text) {
  auto parsed = sql::ParseStatement(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  catalog::ViewDef v;
  v.definition = std::make_shared<sql::SelectStatement>(
      parsed->select().Clone());
  for (const auto& tr : v.definition->from) {
    v.referenced_tables.push_back(tr.table);
  }
  return v;
}

// Each atom's fingerprint must be the cache key a lookup of the atom's
// built configuration computes: the atom is cached under it, and a later
// lookup of that configuration must find it. BuildAtom stores the relevant
// set's names and CollectRelevant reads them back, so that comparison alone
// checks the name bytes only against themselves; the same configuration
// rebuilt through the rendering inserts is the independent witness.
void ExpectAtomFingerprintsMatch(const std::set<std::string>& tables,
                                 const RelevantSet& relevant,
                                 const Decomposition& d) {
  for (size_t a = 0; a < d.atoms.size(); ++a) {
    const Configuration built = BuildAtom(relevant, d.atoms[a]);
    EXPECT_EQ(d.atoms[a].fingerprint,
              CollectRelevant(tables, built).fingerprint)
        << "atom " << a;
    Configuration rendered;
    for (const IndexDef& ix : built.indexes()) {
      ASSERT_TRUE(rendered.AddIndex(ix).ok());
    }
    for (const catalog::ViewDef& v : built.views()) {
      ASSERT_TRUE(rendered.AddView(v).ok());
    }
    for (const auto& [table, scheme] : built.table_partitioning()) {
      rendered.SetTablePartitioning(table, scheme);
    }
    EXPECT_EQ(d.atoms[a].fingerprint,
              CollectRelevant(tables, rendered).fingerprint)
        << "atom " << a << " rebuilt by rendering";
  }
}

// ---------------------------------------------------------- cache keys

// Pins the cache-key bytes: checkpoints and the continuous tuner's memo
// embed them, so they must not drift. Index names sort before view names
// and view names before partitioning names; the partitioning names sort as
// strings ("tp:t1:" before "tp:t:"), not in table order. Structures on
// other tables are not relevant.
TEST(DerivedCostRelevanceTest, FingerprintBytesArePinned) {
  IndexDef clustered = Ix("t", {"a"});
  clustered.clustered = true;
  IndexDef constraint = Ix("T1", {"id"});
  constraint.constraint_enforcing = true;
  IndexDef covering = Ix("t", {"B", "a"}, {"z", "C"});
  covering.database = "Shop";
  Configuration config;
  for (const IndexDef& ix : {clustered, constraint, covering, Ix("u", {"x"})}) {
    ASSERT_TRUE(config.AddIndex(ix).ok());
  }
  const catalog::ViewDef view =
      View("SELECT a, COUNT(*) FROM t, t1 WHERE a = id GROUP BY a");
  ASSERT_TRUE(config.AddView(view).ok());
  PartitionScheme by_a;
  by_a.column = "a";
  by_a.boundaries = {sql::Value::Int(10), sql::Value::Int(20)};
  PartitionScheme by_id;
  by_id.column = "ID";
  by_id.boundaries = {sql::Value::Int(5)};
  config.SetTablePartitioning("t", by_a);
  config.SetTablePartitioning("t1", by_id);
  config.SetTablePartitioning("u", by_a);

  const RelevantSet relevant = CollectRelevant({"t", "t1"}, config);
  EXPECT_EQ(relevant.fingerprint,
            "cix:t:k=a|ix:shop.t:k=b,a:inc=c,z|ix:t1:k=id|"
            "mv:794eddd0dc515e76-dc515e76|tp:t1:p(id:[5])|tp:t:p(a:[10,20])");
  EXPECT_EQ(relevant.indexes.size(), 3u);
  EXPECT_EQ(relevant.views.size(), 1u);
  EXPECT_EQ(relevant.partitioning.size(), 2u);
}

// ---------------------------------------------------------- decomposition

TEST(DerivedCostDecompositionTest, SingletonConfigurationsAreTrivial) {
  Configuration config;
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_cust"})).ok());
  RelevantSet relevant = CollectRelevant({"orders"}, config);
  Decomposition d = DecomposeConfiguration(sql::StatementKind::kSelect,
                                           relevant, 64);
  EXPECT_EQ(d.outcome, Decomposition::Outcome::kTrivial);

  // The empty configuration is trivially its own atom too.
  const Configuration empty_config;
  Decomposition empty = DecomposeConfiguration(
      sql::StatementKind::kSelect, CollectRelevant({"orders"}, empty_config),
      64);
  EXPECT_EQ(empty.outcome, Decomposition::Outcome::kTrivial);
}

TEST(DerivedCostDecompositionTest, EnumeratesOneIndexPerTableCombinations) {
  // Two variable orders indexes, one variable items index, plus context
  // structures: a constraint-enforcing index and table partitioning.
  Configuration config;
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_cust"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_date"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("items", {"i_part"})).ok());
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_id"},
                                     .constraint_enforcing = true})
                  .ok());
  PartitionScheme scheme;
  scheme.column = "o_date";
  scheme.boundaries = {sql::Value::String("1995-01-01")};
  config.SetTablePartitioning("orders", scheme);

  RelevantSet relevant = CollectRelevant({"orders", "items"}, config);
  Decomposition d = DecomposeConfiguration(sql::StatementKind::kSelect,
                                           relevant, 64);
  ASSERT_EQ(d.outcome, Decomposition::Outcome::kDerivable);
  // (2 + 1) orders choices x (1 + 1) items choices.
  ASSERT_EQ(d.atoms.size(), 6u);
  ExpectAtomFingerprintsMatch({"orders", "items"}, relevant, d);
  for (const auto& described : d.atoms) {
    // Every atom carries the full context: the constraint index and the
    // partitioning, plus at most one variable index per table.
    const Configuration atom = BuildAtom(relevant, described);
    EXPECT_TRUE(atom.table_partitioning().count("orders"));
    size_t constraint = 0, orders_vars = 0, items_vars = 0;
    for (const auto& ix : atom.indexes()) {
      if (ix.constraint_enforcing) {
        ++constraint;
      } else if (ix.table == "orders") {
        ++orders_vars;
      } else {
        ++items_vars;
      }
    }
    EXPECT_EQ(constraint, 1u);
    EXPECT_LE(orders_vars, 1u);
    EXPECT_LE(items_vars, 1u);
  }
  // The first atom is the bare context.
  const Configuration context = BuildAtom(relevant, d.atoms[0]);
  EXPECT_EQ(context.indexes().size(), 1u);
  EXPECT_TRUE(context.indexes()[0].constraint_enforcing);
}

TEST(DerivedCostDecompositionTest, EachViewIsAnAtomOverTheContext) {
  Configuration config;
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_cust"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_date"})).ok());
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_id"},
                                     .constraint_enforcing = true})
                  .ok());
  const char* view_sql = "SELECT o_cust, COUNT(*) FROM orders GROUP BY o_cust";
  ASSERT_TRUE(config.AddView(View(view_sql)).ok());

  RelevantSet relevant = CollectRelevant({"orders"}, config);
  Decomposition d = DecomposeConfiguration(sql::StatementKind::kSelect,
                                           relevant, 64);
  ASSERT_EQ(d.outcome, Decomposition::Outcome::kDerivable);
  // Three one-index choices, then the view over the bare context.
  ASSERT_EQ(d.atoms.size(), 4u);
  ExpectAtomFingerprintsMatch({"orders"}, relevant, d);
  const Configuration view_atom = BuildAtom(relevant, d.atoms.back());
  ASSERT_EQ(view_atom.views().size(), 1u);
  EXPECT_EQ(view_atom.views()[0], config.views()[0]);
  ASSERT_EQ(view_atom.indexes().size(), 1u);
  EXPECT_TRUE(view_atom.indexes()[0].constraint_enforcing);

  // The bounded form keeps the view as its own singleton group.
  Decomposition bounded = DecomposeConfiguration(sql::StatementKind::kSelect,
                                                 relevant, 3);
  ASSERT_EQ(bounded.outcome, Decomposition::Outcome::kTooManyAtoms);
  ASSERT_EQ(bounded.atoms.size(), 4u);  // context + 2 indexes + the view
  ASSERT_EQ(bounded.variable_group_atoms.size(), 2u);
  EXPECT_EQ(bounded.variable_group_atoms[1], std::vector<size_t>{3});
  ExpectAtomFingerprintsMatch({"orders"}, relevant, bounded);
}

TEST(DerivedCostDecompositionTest, DmlWithVariableIndexesIsUnsupported) {
  Configuration config;
  ASSERT_TRUE(config.AddIndex(Ix("items", {"i_part"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("items", {"i_oid"})).ok());
  RelevantSet relevant = CollectRelevant({"items"}, config);
  Decomposition d = DecomposeConfiguration(sql::StatementKind::kUpdate,
                                           relevant, 64);
  EXPECT_EQ(d.outcome, Decomposition::Outcome::kUnsupportedStatement);
  EXPECT_TRUE(d.atoms.empty());
}

TEST(DerivedCostDecompositionTest, AtomBudgetYieldsBoundedSingletonForm) {
  Configuration config;
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_cust"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("orders", {"o_date"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("items", {"i_part"})).ok());
  ASSERT_TRUE(config.AddIndex(Ix("items", {"i_oid"})).ok());
  RelevantSet relevant = CollectRelevant({"orders", "items"}, config);

  // 3 x 3 = 9 combination atoms exceed a budget of 8: the decomposition
  // degrades to the singleton form — context plus one atom per variable.
  Decomposition d = DecomposeConfiguration(sql::StatementKind::kSelect,
                                           relevant, 8);
  ASSERT_EQ(d.outcome, Decomposition::Outcome::kTooManyAtoms);
  ASSERT_EQ(d.atoms.size(), 5u);  // context + 4 singletons
  ASSERT_EQ(d.variable_group_atoms.size(), 2u);  // one group per table
  for (const auto& group : d.variable_group_atoms) {
    EXPECT_EQ(group.size(), 2u);
  }
  ExpectAtomFingerprintsMatch({"orders", "items"}, relevant, d);
}

TEST(DerivedCostCombineTest, CombineIsMinOverAtoms) {
  EXPECT_EQ(CombineAtomCosts({4.0, 2.5, 9.0}), 2.5);
  EXPECT_EQ(CombineAtomCosts({7.0}), 7.0);
}

// ---------------------------------------------------- brute-force equality

// Prices every subset of the 4-index pool (and a partitioning variant) with
// a derived-enabled service and a plain one: the derived answers must equal
// the real what-if costs exactly, while making strictly fewer real calls.
TEST(DerivedCostServiceTest, DerivedCostsMatchBruteForceOnSelects) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();

  CostService::Config derived_config;
  derived_config.derived.enabled = true;
  CostService derived(prod.get(), nullptr, &w, derived_config);
  CostService plain(prod.get(), nullptr, &w);

  const std::vector<IndexDef> pool = TestPool();
  PartitionScheme scheme;
  scheme.column = "o_date";
  scheme.boundaries = {sql::Value::String("1995-01-01")};

  for (unsigned mask = 0; mask < (1u << pool.size()); ++mask) {
    for (bool partitioned : {false, true}) {
      Configuration config;
      for (size_t b = 0; b < pool.size(); ++b) {
        if (mask & (1u << b)) {
          ASSERT_TRUE(config.AddIndex(pool[b]).ok());
        }
      }
      if (partitioned) config.SetTablePartitioning("orders", scheme);
      for (size_t i = 0; i < w.size(); ++i) {
        auto got = derived.StatementCost(i, config);
        auto want = plain.StatementCost(i, config);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(*got, *want)
            << "statement " << i << " mask " << mask
            << (partitioned ? " partitioned" : "");
      }
    }
  }
  EXPECT_GT(derived.derived_answers(), 0u);
  EXPECT_EQ(derived.whatif_calls_saved(), derived.derived_answers());
  EXPECT_LT(derived.whatif_calls(), plain.whatif_calls());
}

TEST(DerivedCostServiceTest, DmlFallsBackToRealCalls) {
  auto prod = MakeProduction();
  workload::Workload w = MixedWorkload();

  CostService::Config config;
  config.derived.enabled = true;
  CostService derived(prod.get(), nullptr, &w, config);
  CostService plain(prod.get(), nullptr, &w);

  Configuration two_indexes;
  ASSERT_TRUE(two_indexes.AddIndex(Ix("items", {"i_part"})).ok());
  ASSERT_TRUE(two_indexes.AddIndex(Ix("items", {"i_oid"})).ok());

  const size_t update_stmt = 2;
  auto got = derived.StatementCost(update_stmt, two_indexes);
  auto want = plain.StatementCost(update_stmt, two_indexes);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(derived.derived_answers(), 0u);
  EXPECT_EQ(derived.derivation_fallbacks(), 1u);
}

// A backend that fails permanently whenever the priced configuration
// matches a predicate — lets a test degrade exactly one atom.
class SelectiveFaultBackend : public CostBackend {
 public:
  using Predicate = std::function<bool(const catalog::Configuration&)>;
  SelectiveFaultBackend(server::Server* server, Predicate fail_when)
      : server_(server), fail_when_(std::move(fail_when)) {}

  Result<server::Server::WhatIfResult> WhatIfCost(
      const WhatIfCall& call) override {
    if (fail_when_(*call.config)) {
      return Status::Internal("injected permanent fault");
    }
    return server_->WhatIfCost(*call.stmt, *call.config,
                               call.simulate_hardware, call.call_key);
  }

  server::Server* primary() const override { return server_; }

 private:
  server::Server* server_;
  Predicate fail_when_;
};

// One atom degrades (its pricing permanently fails and falls back to the
// heuristic estimate): the derivation must not combine the poisoned value —
// it falls back to a real what-if call for the full configuration.
TEST(DerivedCostServiceTest, DegradedAtomForcesFallback) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();

  // Fail exactly the atom {o_cust index alone}: one variable orders index
  // and no items index. The full two-index configuration and every other
  // atom price normally.
  auto only_ocust = [](const catalog::Configuration& config) {
    bool has_ocust = false;
    size_t variables = 0;
    for (const auto& ix : config.indexes()) {
      if (ix.constraint_enforcing) continue;
      ++variables;
      if (!ix.key_columns.empty() && ix.key_columns[0] == "o_cust") {
        has_ocust = true;
      }
    }
    return has_ocust && variables == 1;
  };
  SelectiveFaultBackend backend(prod.get(), only_ocust);

  CostService::Config config;
  config.derived.enabled = true;
  config.retry.max_attempts = 1;
  config.retry.initial_backoff_ms = 0;
  CostService derived(&backend, nullptr, &w, config);
  CostService plain(prod.get(), nullptr, &w);

  Configuration two;
  ASSERT_TRUE(two.AddIndex(Ix("orders", {"o_cust"})).ok());
  ASSERT_TRUE(two.AddIndex(Ix("orders", {"o_date"})).ok());

  auto got = derived.StatementCost(0, two);
  auto want = plain.StatementCost(0, two);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  // The full configuration does not match the predicate, so the fallback
  // call returns the true cost even though one atom degraded.
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(derived.derived_answers(), 0u);
  EXPECT_EQ(derived.derivation_fallbacks(), 1u);
  EXPECT_GT(derived.degraded_calls(), 0u);
}

// ------------------------------------------------------------- checkpoints

TEST(DerivedCostCheckpointTest, MemoizedAtomsRoundTripThroughCheckpoint) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();

  CostService::Config config;
  config.derived.enabled = true;
  CostService first(prod.get(), nullptr, &w, config);

  Configuration two;
  ASSERT_TRUE(two.AddIndex(Ix("orders", {"o_id"}, {"o_price"})).ok());
  ASSERT_TRUE(two.AddIndex(Ix("orders", {"o_date"}, {"o_cust"})).ok());
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_TRUE(first.StatementCost(i, two).ok());
  }
  ASSERT_GT(first.derived_answers(), 0u);

  // The cache carries the derived flag; a checkpoint record's round trip
  // preserves it.
  std::vector<CostLine> exported;
  first.cache().ForEach([&](uint64_t id, const std::string& fingerprint,
                            const CostCache::Entry& entry) {
    exported.push_back({id, fingerprint, entry});
  });
  SessionCheckpoint ckpt;
  ckpt.phase = kCheckpointCurrentCosts;
  ckpt.degraded_statements = {1, 3};
  bool any_derived = false;
  for (const auto& e : exported) any_derived |= e.entry.derived;
  EXPECT_TRUE(any_derived);

  SessionCheckpoint parsed;
  const Status applied = ApplySessionRecord(
      EncodeSessionRecord(ckpt, &first.cache(), /*base=*/true,
                          /*cleared=*/false),
      /*base=*/true, prod->catalog(), &parsed);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  ASSERT_EQ(parsed.cache.size(), exported.size());
  for (size_t i = 0; i < exported.size(); ++i) {
    EXPECT_EQ(parsed.cache[i].id, exported[i].id);
    EXPECT_EQ(parsed.cache[i].fingerprint, exported[i].fingerprint);
    EXPECT_EQ(parsed.cache[i].entry.cost, exported[i].entry.cost);
    EXPECT_EQ(parsed.cache[i].entry.degraded, exported[i].entry.degraded);
    EXPECT_EQ(parsed.cache[i].entry.derived, exported[i].entry.derived);
  }
  EXPECT_EQ(parsed.degraded_statements, ckpt.degraded_statements);

  // A fresh service resuming from the parsed cache answers everything from
  // memoized entries — atoms included — without a single real call.
  CostService second(prod.get(), nullptr, &w, config);
  for (const CostLine& line : parsed.cache) {
    second.cache().Restore(line.id, line.fingerprint, line.entry);
  }
  for (size_t i = 0; i < w.size(); ++i) {
    auto resumed = second.StatementCost(i, two);
    auto original = first.StatementCost(i, two);
    ASSERT_TRUE(resumed.ok());
    ASSERT_TRUE(original.ok());
    EXPECT_EQ(*resumed, *original);
  }
  EXPECT_EQ(second.whatif_calls(), 0u);
  EXPECT_EQ(second.derived_answers(), 0u);
}

// ------------------------------------------------------------ session level

std::string RecommendationXml(const TuningResult& r) {
  return ConfigurationToXml(r.recommendation)->ToString();
}

Result<TuningResult> TuneSeeded(TuningOptions opts) {
  auto prod = MakeProduction();
  TuningSession session(prod.get(), opts);
  auto w = workload::Workload::FromScript(
      "SELECT o_price FROM orders WHERE o_id = 55;"
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "SELECT i_qty FROM items WHERE i_part = 77;"
      "UPDATE items SET i_qty = 3 WHERE i_part = 9");
  EXPECT_TRUE(w.ok());
  return session.Tune(*w);
}

// Derivation must not change the recommendation, and its counters must be
// invariant across thread and shard topologies (they are pure functions of
// the lookup set, like whatif_calls).
TEST(DerivedCostSessionTest, RecommendationAndCountersInvariant) {
  TuningOptions base;

  TuningOptions underived = base;
  underived.derived_costing = false;
  auto want = TuneSeeded(underived);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->derived_answers, 0u);
  EXPECT_EQ(want->whatif_calls_saved, 0u);

  auto serial = TuneSeeded(base);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->derived_answers, 0u);
  EXPECT_GT(serial->whatif_calls_saved, 0u);
  EXPECT_LT(serial->whatif_calls, want->whatif_calls);
  EXPECT_EQ(RecommendationXml(*serial), RecommendationXml(*want));
  EXPECT_EQ(serial->recommended_cost, want->recommended_cost);

  for (auto [threads, shards] : {std::pair{4, 1}, {2, 2}}) {
    TuningOptions opts = base;
    opts.num_threads = threads;
    opts.shards = shards;
    auto got = TuneSeeded(opts);
    ASSERT_TRUE(got.ok()) << threads << "x" << shards;
    EXPECT_EQ(RecommendationXml(*got), RecommendationXml(*serial))
        << threads << "x" << shards;
    EXPECT_EQ(got->derived_answers, serial->derived_answers)
        << threads << "x" << shards;
    EXPECT_EQ(got->derivation_fallbacks, serial->derivation_fallbacks)
        << threads << "x" << shards;
    EXPECT_EQ(got->whatif_calls_saved, serial->whatif_calls_saved)
        << threads << "x" << shards;
    EXPECT_EQ(got->whatif_calls, serial->whatif_calls)
        << threads << "x" << shards;
  }
}

// Exact mode prices every derivable miss both ways: nothing is saved, the
// recommendation is identical, and on this workload the combine rule is
// exact — no derivation error exceeds the (zero) bound.
TEST(DerivedCostSessionTest, ExactModeVerifiesDerivationsWithoutSavings) {
  TuningOptions exact;
  exact.exact_costing = true;
  auto got = TuneSeeded(exact);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got->derived_answers, 0u);
  EXPECT_EQ(got->whatif_calls_saved, 0u);
  EXPECT_EQ(got->derivation_errors_exceeded, 0u);

  auto plain = TuneSeeded(TuningOptions());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(RecommendationXml(*got), RecommendationXml(*plain));
  EXPECT_EQ(got->derived_answers, plain->derived_answers);
}

// ------------------------------------------------------------ stored names

// A statistics-only TPC-H server with its raw design implemented.
std::unique_ptr<server::Server> MakeTpch() {
  auto s = std::make_unique<server::Server>(
      "prod", optimizer::HardwareParams());
  EXPECT_TRUE(workloads::AttachTpch(s.get(), 0.05, /*with_data=*/false, 7)
                  .ok());
  EXPECT_TRUE(
      s->ImplementConfiguration(workloads::TpchRawConfiguration()).ok());
  return s;
}

// One TPC-H join statement's generated views and indexes, plus its first
// partitioning candidate on orders (which also has index candidates, so
// aligned builds re-partition indexes).
std::vector<Candidate> TpchCandidatePool(server::Server* server) {
  auto stmt = sql::ParseStatement(
      "SELECT o_custkey, SUM(l_extendedprice * (1 - l_discount)) FROM "
      "customer, orders, lineitem WHERE c_custkey = o_custkey AND "
      "l_orderkey = o_orderkey AND o_orderdate < '1995-03-15' AND "
      "l_shipdate > '1995-03-15' GROUP BY o_custkey ORDER BY o_custkey");
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto generated = GenerateCandidatesForStatement(
      *stmt, server, InterestingColumnGroups::Unrestricted(), TuningOptions());
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  std::vector<Candidate> pool;
  bool partitioning = false;
  for (Candidate& c : *generated) {
    if (c.kind == Candidate::Kind::kTablePartitioning) {
      if (partitioning || c.table != "orders") continue;
      partitioning = true;
    }
    pool.push_back(std::move(c));
  }
  return pool;
}

// The whole pool as far as one configuration can hold it: the first
// clustered index candidate per table.
std::vector<const Candidate*> WholePool(const std::vector<Candidate>& pool) {
  std::vector<const Candidate*> out;
  std::set<std::string> clustered_tables;
  for (const Candidate& c : pool) {
    if (c.kind == Candidate::Kind::kIndex && c.index.clustered &&
        !clustered_tables.insert(c.index.table).second) {
      continue;
    }
    out.push_back(&c);
  }
  return out;
}

// Number of stored names that differ from a fresh render.
size_t StaleNames(const Configuration& c) {
  size_t stale = 0;
  for (size_t i = 0; i < c.indexes().size(); ++i) {
    if (c.index_names()[i] != c.indexes()[i].CanonicalName()) ++stale;
  }
  for (size_t i = 0; i < c.views().size(); ++i) {
    if (c.view_names()[i] != c.views()[i].CanonicalName()) ++stale;
  }
  return stale;
}

// Every configuration BuildConfiguration makes from the pool — each
// singleton, each pair and the whole pool, aligned and unaligned — stores
// names equal to fresh renders, including the aligned variants whose
// inherited partitioning changed their names.
TEST(StoredNameTest, TpchCandidateSweepStoresFreshNames) {
  auto server = MakeTpch();
  const std::vector<Candidate> pool = TpchCandidatePool(server.get());
  std::map<Candidate::Kind, size_t> kinds;
  for (const Candidate& c : pool) ++kinds[c.kind];
  ASSERT_GT(kinds[Candidate::Kind::kIndex], 0u);
  ASSERT_GT(kinds[Candidate::Kind::kView], 0u);
  ASSERT_EQ(kinds[Candidate::Kind::kTablePartitioning], 1u);

  std::vector<std::vector<const Candidate*>> subsets;
  for (size_t i = 0; i < pool.size(); ++i) {
    subsets.push_back({&pool[i]});
    for (size_t j = i + 1; j < pool.size(); ++j) {
      subsets.push_back({&pool[i], &pool[j]});
    }
  }
  subsets.push_back(WholePool(pool));

  const Configuration base = workloads::TpchRawConfiguration();
  size_t built = 0;
  size_t partitioned_indexes = 0;
  for (bool aligned : {false, true}) {
    for (const auto& chosen : subsets) {
      auto config = BuildConfiguration(base, chosen, aligned);
      // Two clustered candidates on one table conflict; nothing to check.
      if (!config.ok()) continue;
      ++built;
      std::string names;
      for (const Candidate* c : chosen) names += " " + c->name;
      EXPECT_EQ(StaleNames(*config), 0u)
          << (aligned ? "aligned:" : "unaligned:") << names;
      for (const IndexDef& ix : config->indexes()) {
        if (aligned && ix.partitioning.has_value()) ++partitioned_indexes;
      }
    }
  }
  EXPECT_EQ(StaleNames(base), 0u);
  EXPECT_GT(built, pool.size());
  // The aligned sweep re-partitioned indexes, the path that renders.
  EXPECT_GT(partitioned_indexes, 0u);
}

// ------------------------------------------------------ identity renders

// Nothing on the lookup path renders a name: the relevance walk, building
// atoms, copying, membership, removal, fingerprints and an unaligned build
// all read stored names.
TEST(IdentityRenderTest, LookupPathRendersNothing) {
  auto server = MakeTpch();
  const std::vector<Candidate> pool = TpchCandidatePool(server.get());
  const std::vector<const Candidate*> chosen = WholePool(pool);
  const Configuration base = workloads::TpchRawConfiguration();
  auto config = BuildConfiguration(base, chosen, /*aligned=*/false);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_FALSE(config->views().empty());
  const std::string index_name = config->index_names().back();
  const std::string view_name = config->view_names().front();

  const uint64_t before = catalog::IdentityRenders();
  const RelevantSet relevant =
      CollectRelevant({"customer", "orders", "lineitem"}, *config);
  const Decomposition d = DecomposeConfiguration(
      sql::StatementKind::kSelect, relevant, /*max_atoms=*/64);
  ASSERT_FALSE(d.atoms.empty());
  size_t atom_structures = 0;
  for (const auto& atom : d.atoms) {
    atom_structures += BuildAtom(relevant, atom).StructureCount();
  }
  Configuration copy = *config;
  EXPECT_TRUE(copy.ContainsStructure(index_name));
  EXPECT_TRUE(copy.RemoveStructure(index_name));
  EXPECT_TRUE(copy.RemoveStructure(view_name));
  EXPECT_FALSE(copy.ContainsStructure(view_name));
  EXPECT_NE(copy.Fingerprint(), config->Fingerprint());
  auto rebuilt = BuildConfiguration(base, chosen, /*aligned=*/false);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(catalog::IdentityRenders() - before, 0u);

  EXPECT_GT(atom_structures, 0u);
  EXPECT_EQ(rebuilt->Fingerprint(), config->Fingerprint());
}

// Renders follow the structures a session builds, not its lookups: with
// derived costing on and off a session looks up different configurations
// (and makes a different number of what-if calls), yet builds the same
// candidates and recommendation, so it renders the same number of names.
TEST(IdentityRenderTest, SessionRendersFollowStructuresNotLookups) {
  struct Run {
    uint64_t renders = 0;
    uint64_t lookups = 0;
    size_t whatif_calls = 0;
    std::string recommendation;
  };
  auto tune = [](bool derived) {
    auto server = MakeTpch();
    const workload::Workload w = workloads::TpchQueriesPrefix(8, 42);
    TuningOptions opts;
    opts.derived_costing = derived;
    TuningSession session(server.get(), opts);
    MetricsRegistry metrics;
    session.SetObservability({&metrics, nullptr, nullptr});
    Run run;
    const uint64_t before = catalog::IdentityRenders();
    auto r = session.Tune(w);
    run.renders = catalog::IdentityRenders() - before;
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return run;
    run.lookups = metrics.CounterValues().at("whatif.lookups");
    run.whatif_calls = r->whatif_calls;
    run.recommendation = RecommendationXml(*r);
    return run;
  };
  const Run derived = tune(true);
  const Run underived = tune(false);
  EXPECT_NE(derived.lookups, underived.lookups);
  EXPECT_LT(derived.whatif_calls, underived.whatif_calls);
  EXPECT_EQ(derived.recommendation, underived.recommendation);
  EXPECT_GT(derived.renders, 0u);
  EXPECT_EQ(derived.renders, underived.renders);
}

}  // namespace
}  // namespace dta::tuner
