#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "catalog/physical_design.h"
#include "common/hash.h"
#include "common/strings.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "stats/builder.h"
#include "storage/datagen.h"

namespace dta::optimizer {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::PartitionScheme;
using catalog::TableSchema;
using catalog::ViewDef;

// Test fixture: a small two-table schema with real generated data and real
// statistics, so estimates are grounded.
class OptimizerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kOrdersRows = 20000;
  static constexpr uint64_t kLineitemRows = 80000;

  static void SetUpTestSuite() {
    env_ = std::make_unique<Env>();
    Random rng(42);

    TableSchema orders("orders", {{"o_orderkey", ColumnType::kInt, 8},
                                  {"o_custkey", ColumnType::kInt, 8},
                                  {"o_orderdate", ColumnType::kString, 10},
                                  {"o_totalprice", ColumnType::kDouble, 8}});
    orders.set_row_count(kOrdersRows);
    orders.SetPrimaryKey({"o_orderkey"});
    storage::TableGenSpec ospec;
    ospec.schema = orders;
    ospec.column_specs = {storage::ColumnSpec::Sequential(),
                          storage::ColumnSpec::UniformInt(1, 2000),
                          storage::ColumnSpec::Date("1992-01-01", 2400),
                          storage::ColumnSpec::UniformReal(100, 500000)};
    ospec.rows = kOrdersRows;
    auto odata = storage::GenerateTable(ospec, &rng);
    ASSERT_TRUE(odata.ok());

    TableSchema lineitem("lineitem",
                         {{"l_orderkey", ColumnType::kInt, 8},
                          {"l_partkey", ColumnType::kInt, 8},
                          {"l_shipdate", ColumnType::kString, 10},
                          {"l_quantity", ColumnType::kDouble, 8},
                          {"l_extendedprice", ColumnType::kDouble, 8}});
    lineitem.set_row_count(kLineitemRows);
    storage::TableGenSpec lspec;
    lspec.schema = lineitem;
    lspec.column_specs = {
        storage::ColumnSpec::UniformInt(1, kOrdersRows),
        storage::ColumnSpec::UniformInt(1, 5000),
        storage::ColumnSpec::Date("1992-01-01", 2400),
        storage::ColumnSpec::UniformReal(1, 50),
        storage::ColumnSpec::UniformReal(100, 100000)};
    lspec.rows = kLineitemRows;
    auto ldata = storage::GenerateTable(lspec, &rng);
    ASSERT_TRUE(ldata.ok());

    catalog::Database db("db");
    ASSERT_TRUE(db.AddTable(orders).ok());
    ASSERT_TRUE(db.AddTable(lineitem).ok());
    ASSERT_TRUE(env_->catalog.AddDatabase(std::move(db)).ok());

    // Statistics on every column we predicate on.
    auto add_stats = [&](const TableSchema& schema,
                         const storage::TableData& data,
                         std::vector<std::string> cols) {
      auto s = stats::BuildFromData("db", schema, data, cols);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      env_->stats.Put(std::move(s).value());
    };
    add_stats(orders, *odata, {"o_orderkey"});
    add_stats(orders, *odata, {"o_custkey"});
    add_stats(orders, *odata, {"o_orderdate"});
    add_stats(lineitem, *ldata, {"l_orderkey"});
    add_stats(lineitem, *ldata, {"l_partkey"});
    add_stats(lineitem, *ldata, {"l_shipdate", "l_partkey"});
    add_stats(lineitem, *ldata, {"l_quantity"});
  }

  static void TearDownTestSuite() {
    env_.reset();
  }

  struct Env {
    catalog::Catalog catalog;
    stats::StatsManager stats;
  };
  static std::unique_ptr<Env> env_;

  Optimizer MakeOptimizer(const HardwareParams& hw = HardwareParams()) {
    provider_ = std::make_unique<StatsProvider>(&env_->stats);
    return Optimizer(env_->catalog, *provider_, hw);
  }

  static sql::Statement Parse(const std::string& text) {
    auto r = sql::ParseStatement(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    return std::move(r).value();
  }

  double Cost(const Optimizer& opt, const std::string& text,
              const Configuration& config) {
    sql::Statement stmt = Parse(text);
    auto c = opt.CostStatement(stmt, config);
    EXPECT_TRUE(c.ok()) << text << " -> " << c.status().ToString();
    return c.ok() ? *c : -1;
  }

  std::unique_ptr<StatsProvider> provider_;
};

std::unique_ptr<OptimizerTest::Env> OptimizerTest::env_;

TEST_F(OptimizerTest, BindResolvesTablesAndColumns) {
  Optimizer opt = MakeOptimizer();
  sql::Statement stmt = Parse(
      "SELECT o.o_orderkey, l_quantity FROM orders o, lineitem l WHERE "
      "o.o_orderkey = l.l_orderkey AND l_shipdate < '1995-01-01'");
  auto plan = opt.OptimizeSelect(stmt.select(), Configuration());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->bound.tables.size(), 2u);
  EXPECT_EQ(plan->bound.join_atoms.size(), 1u);
  EXPECT_EQ(plan->bound.filters_by_table[1].size(), 1u);
}

TEST_F(OptimizerTest, BindErrors) {
  Optimizer opt = MakeOptimizer();
  for (const char* q : {
           "SELECT x FROM nosuchtable",
           "SELECT nosuchcol FROM orders",
           "SELECT o_orderkey FROM orders, lineitem WHERE bogus = 1",
       }) {
    sql::Statement stmt = Parse(q);
    EXPECT_FALSE(opt.OptimizeSelect(stmt.select(), Configuration()).ok())
        << q;
  }
}

TEST_F(OptimizerTest, RawConfigurationUsesTableScan) {
  Optimizer opt = MakeOptimizer();
  sql::Statement stmt =
      Parse("SELECT o_totalprice FROM orders WHERE o_orderkey = 17");
  auto plan = opt.OptimizeSelect(stmt.select(), Configuration());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kTableScan);
}

TEST_F(OptimizerTest, SelectiveEqualityPrefersIndexSeek) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderkey"}})
                  .ok());
  sql::Statement stmt =
      Parse("SELECT o_totalprice FROM orders WHERE o_orderkey = 17");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kIndexSeek);
  EXPECT_TRUE(plan->root->needs_lookup);
  EXPECT_NEAR(plan->root->est_rows, 1.0, 2.0);

  double with_index = plan->cost;
  double without = Cost(opt, "SELECT o_totalprice FROM orders WHERE "
                             "o_orderkey = 17",
                        Configuration());
  EXPECT_LT(with_index, without * 0.2);
}

TEST_F(OptimizerTest, UnselectivePredicateKeepsScan) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_shipdate"}})
                  .ok());
  // ~100% of rows match: lookups would dwarf a scan.
  sql::Statement stmt = Parse(
      "SELECT l_quantity FROM lineitem WHERE l_shipdate >= '1990-01-01'");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kTableScan);
}

TEST_F(OptimizerTest, CoveringIndexBeatsNonCovering) {
  Optimizer opt = MakeOptimizer();
  Configuration narrow;
  ASSERT_TRUE(narrow
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_shipdate"}})
                  .ok());
  Configuration covering;
  ASSERT_TRUE(covering
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_shipdate"},
                                     .included_columns = {"l_quantity"}})
                  .ok());
  const char* q =
      "SELECT l_quantity FROM lineitem WHERE l_shipdate BETWEEN "
      "'1994-01-01' AND '1994-03-01'";
  double c_narrow = Cost(opt, q, narrow);
  double c_cover = Cost(opt, q, covering);
  EXPECT_LT(c_cover, c_narrow);
}

TEST_F(OptimizerTest, CoveringIndexScanForUnselectiveQuery) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_partkey"},
                                     .included_columns = {"l_quantity"}})
                  .ok());
  // No predicate on l_partkey: a narrow covering scan still beats the
  // full-width table scan.
  sql::Statement stmt =
      Parse("SELECT l_partkey, l_quantity FROM lineitem WHERE "
            "l_quantity < 100");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kIndexScan);
}

TEST_F(OptimizerTest, ClusteredIndexEnablesStreamAggregate) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_custkey"},
                                     .clustered = true})
                  .ok());
  sql::Statement stmt = Parse(
      "SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kStreamAggregate);

  auto hash_plan =
      opt.OptimizeSelect(stmt.select(), Configuration());
  ASSERT_TRUE(hash_plan.ok());
  EXPECT_EQ(hash_plan->root->op, PlanOp::kHashAggregate);
}

TEST_F(OptimizerTest, PartitionEliminationReducesScanCost) {
  Optimizer opt = MakeOptimizer();
  Configuration partitioned;
  PartitionScheme scheme;
  scheme.column = "l_shipdate";
  for (int y = 1993; y <= 1998; ++y) {
    scheme.boundaries.push_back(
        sql::Value::String(StrFormat("%d-01-01", y)));
  }
  partitioned.SetTablePartitioning("lineitem", scheme);
  const char* q =
      "SELECT SUM(l_quantity) FROM lineitem WHERE l_shipdate BETWEEN "
      "'1994-02-01' AND '1994-11-30'";
  double part_cost = Cost(opt, q, partitioned);
  double raw_cost = Cost(opt, q, Configuration());
  EXPECT_LT(part_cost, raw_cost * 0.6);

  sql::Statement stmt = Parse(q);
  auto plan = opt.OptimizeSelect(stmt.select(), partitioned);
  ASSERT_TRUE(plan.ok());
  // One partition touched (1994 falls inside [1994-01-01, 1995-01-01)).
  const PlanNode* scan = plan->root.get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  EXPECT_EQ(scan->partitions_touched, 1);
}

TEST_F(OptimizerTest, IntegratedExample2Shape) {
  // Paper §3 Example 2: clustered index on the grouping column plus range
  // partitioning on the selection column beats clustering on the selection
  // column alone.
  Optimizer opt = MakeOptimizer();
  const char* q =
      "SELECT o_custkey, COUNT(*) FROM orders WHERE o_orderdate BETWEEN "
      "'1995-06-01' AND '1996-05-31' GROUP BY o_custkey";

  Configuration staged;  // clustered on selection column only
  ASSERT_TRUE(staged
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderdate"},
                                     .clustered = true})
                  .ok());

  Configuration integrated;  // clustered on group col + partition on date
  PartitionScheme scheme;
  scheme.column = "o_orderdate";
  for (int y = 1992; y <= 1998; ++y) {
    scheme.boundaries.push_back(
        sql::Value::String(StrFormat("%d-06-01", y)));
  }
  integrated.SetTablePartitioning("orders", scheme);
  ASSERT_TRUE(integrated
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_custkey"},
                                     .clustered = true,
                                     .partitioning = scheme})
                  .ok());
  double c_staged = Cost(opt, q, staged);
  double c_integrated = Cost(opt, q, integrated);
  EXPECT_LT(c_integrated, c_staged * 1.05);
}

TEST_F(OptimizerTest, JoinPicksIndexNestedLoopWhenOuterIsSelective) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderkey"}})
                  .ok());
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_orderkey"}})
                  .ok());
  sql::Statement stmt = Parse(
      "SELECT l_quantity FROM orders o, lineitem l WHERE o.o_orderkey = "
      "l.l_orderkey AND o.o_orderkey = 123");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kNestLoopJoin);
}

TEST_F(OptimizerTest, JoinUsesHashJoinForLargeInputs) {
  Optimizer opt = MakeOptimizer();
  sql::Statement stmt = Parse(
      "SELECT o_custkey, SUM(l_quantity) FROM orders o, lineitem l WHERE "
      "o.o_orderkey = l.l_orderkey GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), Configuration());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->root->op, PlanOp::kHashAggregate);
  EXPECT_EQ(plan->root->children[0]->op, PlanOp::kHashJoin);
  // Join cardinality ~ lineitem rows (FK join).
  EXPECT_NEAR(plan->root->children[0]->est_rows, kLineitemRows,
              kLineitemRows * 0.5);
}

TEST_F(OptimizerTest, OrderByAddsSortUnlessIndexProvidesOrder) {
  Optimizer opt = MakeOptimizer();
  sql::Statement stmt =
      Parse("SELECT o_custkey FROM orders ORDER BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), Configuration());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->op, PlanOp::kSort);

  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_custkey"},
                                     .clustered = true})
                  .ok());
  auto plan2 = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->root->op, PlanOp::kSort);
}

TEST_F(OptimizerTest, HardwareParametersChangeCosts) {
  Optimizer fast = MakeOptimizer(HardwareParams::ProductionClass());
  auto p1 = std::move(provider_);  // keep alive for optimizer lifetime
  Optimizer slow = MakeOptimizer(HardwareParams::TestClass());
  const char* q =
      "SELECT o_custkey, COUNT(*) FROM orders o, lineitem l WHERE "
      "o.o_orderkey = l.l_orderkey GROUP BY o_custkey";
  double c_fast = Cost(fast, q, Configuration());
  double c_slow = Cost(slow, q, Configuration());
  EXPECT_LT(c_fast, c_slow);
}

// ---------------------------------------------------------------- views

std::shared_ptr<const sql::SelectStatement> ViewDefOf(const char* text) {
  auto r = sql::ParseStatement(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::make_shared<sql::SelectStatement>(r->select().Clone());
}

ViewDef MakeView(const char* text, double rows) {
  ViewDef v;
  v.definition = ViewDefOf(text);
  v.estimated_rows = rows;
  v.estimated_row_bytes = 40;
  for (const auto& tr : v.definition->from) {
    v.referenced_tables.push_back(tr.table);
  }
  return v;
}

TEST_F(OptimizerTest, ExactViewMatchReplacesQuery) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, COUNT(*) AS cnt, SUM(o_totalprice) "
                      "AS total FROM orders GROUP BY o_custkey",
                      2000))
                  .ok());
  sql::Statement stmt = Parse(
      "SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY "
      "o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  // The view plan must win: scanning 2000 pre-aggregated rows beats
  // aggregating 20000.
  bool uses_view = plan->root->UsesStructure(
      config.views()[0].CanonicalName());
  EXPECT_TRUE(uses_view) << plan->root->Describe(plan->bound);
}

TEST_F(OptimizerTest, ViewWithResidualPredicate) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, o_orderdate, COUNT(*) AS cnt FROM "
                      "orders GROUP BY o_custkey, o_orderdate",
                      15000))
                  .ok());
  // Query groups more coarsely and filters on a grouped column.
  sql::Statement stmt = Parse(
      "SELECT o_custkey, COUNT(*) FROM orders WHERE o_orderdate < "
      "'1992-03-01' GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  // Match is possible (residual on o_orderdate + re-aggregation); whether
  // the optimizer picks it depends on cost. Force the comparison:
  bool view_used =
      plan->root->UsesStructure(config.views()[0].CanonicalName());
  EXPECT_TRUE(view_used) << plan->root->Describe(plan->bound);
}

TEST_F(OptimizerTest, ViewRejectedWhenPredicateNotSubsumed) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  // View excludes rows before 1995; query wants everything.
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, COUNT(*) AS cnt FROM orders WHERE "
                      "o_orderdate >= '1995-01-01' GROUP BY o_custkey",
                      500))
                  .ok());
  sql::Statement stmt =
      Parse("SELECT o_custkey, COUNT(*) FROM orders GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(
      plan->root->UsesStructure(config.views()[0].CanonicalName()));
}

TEST_F(OptimizerTest, ViewRejectedWhenGroupingIncompatible) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  // View groups by custkey only; query needs per-date groups.
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, COUNT(*) AS cnt FROM orders GROUP "
                      "BY o_custkey",
                      2000))
                  .ok());
  sql::Statement stmt = Parse(
      "SELECT o_orderdate, COUNT(*) FROM orders GROUP BY o_orderdate");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(
      plan->root->UsesStructure(config.views()[0].CanonicalName()));
}

TEST_F(OptimizerTest, JoinViewAnswersJoinQuery) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(
      config
          .AddView(MakeView(
              "SELECT o.o_custkey, SUM(l.l_quantity) AS qty FROM orders o, "
              "lineitem l WHERE o.o_orderkey = l.l_orderkey GROUP BY "
              "o.o_custkey",
              2000))
          .ok());
  sql::Statement stmt = Parse(
      "SELECT o_custkey, SUM(l_quantity) FROM orders, lineitem WHERE "
      "o_orderkey = l_orderkey GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->root->UsesStructure(config.views()[0].CanonicalName()))
      << plan->root->Describe(plan->bound);
  // And it must be far cheaper than the base join.
  double base = Cost(opt,
                     "SELECT o_custkey, SUM(l_quantity) FROM orders, "
                     "lineitem WHERE o_orderkey = l_orderkey GROUP BY "
                     "o_custkey",
                     Configuration());
  EXPECT_LT(plan->cost, base * 0.5);
}

TEST_F(OptimizerTest, AvgFoldsFromSumAndCount) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, SUM(o_totalprice) AS s, COUNT(*) "
                      "AS c FROM orders GROUP BY o_custkey",
                      2000))
                  .ok());
  sql::Statement stmt = Parse(
      "SELECT o_custkey, AVG(o_totalprice) FROM orders GROUP BY o_custkey");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->root->UsesStructure(config.views()[0].CanonicalName()));
}

// ---------------------------------------------------------------- DML

TEST_F(OptimizerTest, UpdateCostGrowsWithAffectedIndexes) {
  Optimizer opt = MakeOptimizer();
  const char* upd = "UPDATE orders SET o_totalprice = 0 WHERE o_custkey = 5";

  Configuration none;
  Configuration unrelated;  // index not containing o_totalprice
  ASSERT_TRUE(unrelated
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderdate"}})
                  .ok());
  Configuration related;  // index containing the updated column
  ASSERT_TRUE(related
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_totalprice"}})
                  .ok());
  double c_none = Cost(opt, upd, none);
  double c_unrelated = Cost(opt, upd, unrelated);
  double c_related = Cost(opt, upd, related);
  EXPECT_GT(c_related, c_none);
  // The unrelated index costs nothing for maintenance (it may still speed
  // up or leave unchanged the locate step).
  EXPECT_LT(std::abs(c_unrelated - c_none), c_none * 0.5);
  EXPECT_GT(c_related, c_unrelated);
}

TEST_F(OptimizerTest, IndexOnFilterColumnSpeedsUpUpdateLocation) {
  Optimizer opt = MakeOptimizer();
  const char* upd =
      "UPDATE orders SET o_totalprice = 0 WHERE o_orderkey = 42";
  Configuration with_key_index;
  ASSERT_TRUE(with_key_index
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderkey"}})
                  .ok());
  double c_with = Cost(opt, upd, with_key_index);
  double c_without = Cost(opt, upd, Configuration());
  EXPECT_LT(c_with, c_without);
}

TEST_F(OptimizerTest, DeleteMaintainsAllIndexes) {
  Optimizer opt = MakeOptimizer();
  const char* del = "DELETE FROM lineitem WHERE l_partkey = 99";
  Configuration one, three;
  ASSERT_TRUE(one
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_partkey"}})
                  .ok());
  ASSERT_TRUE(three
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_partkey"}})
                  .ok());
  ASSERT_TRUE(three
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_shipdate"}})
                  .ok());
  ASSERT_TRUE(three
                  .AddIndex(IndexDef{.table = "lineitem",
                                     .key_columns = {"l_quantity"},
                                     .included_columns = {"l_extendedprice"}})
                  .ok());
  double c1 = Cost(opt, del, one);
  double c3 = Cost(opt, del, three);
  EXPECT_GT(c3, c1);
}

TEST_F(OptimizerTest, InsertPaysForEveryStructure) {
  Optimizer opt = MakeOptimizer();
  const char* ins =
      "INSERT INTO orders VALUES (999999, 5, '1997-01-01', 120.5)";
  Configuration heavy;
  ASSERT_TRUE(heavy
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_custkey"}})
                  .ok());
  ASSERT_TRUE(heavy
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderdate"}})
                  .ok());
  ASSERT_TRUE(heavy
                  .AddView(MakeView("SELECT o_custkey, COUNT(*) AS c FROM "
                                    "orders GROUP BY o_custkey",
                                    2000))
                  .ok());
  double c_raw = Cost(opt, ins, Configuration());
  double c_heavy = Cost(opt, ins, heavy);
  EXPECT_GT(c_heavy, c_raw * 2);
}

TEST_F(OptimizerTest, UpdateSkipsViewsNotReferencingUpdatedColumn) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddView(MakeView("SELECT o_custkey, COUNT(*) AS c FROM "
                                    "orders GROUP BY o_custkey",
                                    2000))
                  .ok());
  // o_totalprice is not referenced by the view: no maintenance.
  double c_unref =
      Cost(opt, "UPDATE orders SET o_totalprice = 1 WHERE o_orderkey = 3",
           config);
  // o_custkey is referenced: maintenance applies.
  double c_ref =
      Cost(opt, "UPDATE orders SET o_custkey = 1 WHERE o_orderkey = 3",
           config);
  EXPECT_GT(c_ref, c_unref);
}

TEST_F(OptimizerTest, PlanDescribeMentionsOperatorsAndStructures) {
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_orderkey"}})
                  .ok());
  sql::Statement stmt =
      Parse("SELECT o_totalprice FROM orders WHERE o_orderkey = 7");
  auto plan = opt.OptimizeSelect(stmt.select(), config);
  ASSERT_TRUE(plan.ok());
  std::string desc = plan->root->Describe(plan->bound);
  EXPECT_NE(desc.find("IndexSeek"), std::string::npos);
  EXPECT_NE(desc.find("orders"), std::string::npos);
  EXPECT_NE(desc.find("o_orderkey"), std::string::npos);
}

TEST_F(OptimizerTest, MissingStatsAreRecorded) {
  stats::StatsManager empty;
  StatsProvider provider(&empty);
  std::set<stats::StatsKey> missing;
  Optimizer opt(env_->catalog, provider, HardwareParams());
  sql::Statement stmt = Parse(
      "SELECT o_custkey, COUNT(*) FROM orders WHERE o_orderdate < "
      "'1995-01-01' GROUP BY o_custkey");
  ASSERT_TRUE(
      opt.OptimizeSelect(stmt.select(), Configuration(), &missing).ok());
  // Both predicate and grouping columns were wanted.
  bool saw_orderdate = false, saw_custkey = false;
  for (const auto& k : missing) {
    if (k.columns == std::vector<std::string>{"o_orderdate"}) {
      saw_orderdate = true;
    }
    if (k.columns == std::vector<std::string>{"o_custkey"}) {
      saw_custkey = true;
    }
  }
  EXPECT_TRUE(saw_orderdate);
  EXPECT_TRUE(saw_custkey);
}


TEST_F(OptimizerTest, IndexedViewSeekOnGroupByPrefix) {
  // Residual predicates on the view's leading GROUP BY column are costed
  // as seeks into the view's (implicit) clustered index, not full scans.
  Optimizer opt = MakeOptimizer();
  Configuration config;
  ASSERT_TRUE(config
                  .AddView(MakeView(
                      "SELECT o_custkey, o_orderdate, COUNT(*) AS cnt FROM "
                      "orders GROUP BY o_custkey, o_orderdate",
                      18000))
                  .ok());
  // Equality on the LEADING group column: seek.
  double lead = Cost(opt,
                     "SELECT o_custkey, COUNT(*) FROM orders WHERE "
                     "o_custkey = 17 GROUP BY o_custkey",
                     config);
  // Range on the SECOND group column only: no usable prefix, full scan.
  double non_lead = Cost(opt,
                         "SELECT o_orderdate, COUNT(*) FROM orders WHERE "
                         "o_orderdate < '1992-02-01' GROUP BY o_orderdate",
                         config);
  // Both use the view; the leading-prefix probe must be far cheaper.
  sql::Statement s1 = Parse(
      "SELECT o_custkey, COUNT(*) FROM orders WHERE o_custkey = 17 GROUP "
      "BY o_custkey");
  auto p1 = opt.OptimizeSelect(s1.select(), config);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p1->root->UsesStructure(config.views()[0].CanonicalName()))
      << p1->root->Describe(p1->bound);
  EXPECT_LT(lead, non_lead * 0.5);
}

// Join nodes of `node`'s tree that join on no equality atom.
int CartesianJoins(const PlanNode& node) {
  const bool join = node.op == PlanOp::kHashJoin ||
                    node.op == PlanOp::kMergeJoin ||
                    node.op == PlanOp::kNestLoopJoin;
  int count = join && node.join_atoms.empty() ? 1 : 0;
  for (const PlanNodePtr& child : node.children) {
    count += CartesianJoins(*child);
  }
  return count;
}

// Past kDpTableLimit (12) tables the join search is a greedy left-deep
// chain. Pins the plan text (hashed) and the cost's bit pattern of a
// 14-table chain and a 14-table star, each under the raw design and under
// indexes on every join column. No statistics: heuristic estimates only.
// Every table of both queries connects, so no plan takes a cartesian
// product.
TEST_F(OptimizerTest, GreedyJoinOrderBeyondDpLimit) {
  catalog::Catalog catalog;
  catalog::Database db("wide");
  auto add_table = [&](const std::string& name,
                       const std::vector<std::string>& columns,
                       uint64_t rows) {
    std::vector<catalog::Column> cols;
    for (const auto& c : columns) cols.push_back({c, ColumnType::kInt, 8});
    TableSchema t(name, cols);
    t.set_row_count(rows);
    t.SetPrimaryKey({columns[0]});
    ASSERT_TRUE(db.AddTable(t).ok());
  };
  // Chain c0 - c1 - ... - c13 on ci_next = c(i+1)_id.
  std::string chain_from, chain_where;
  Configuration chain_indexes;
  for (int i = 0; i < 14; ++i) {
    std::string t = StrFormat("c%d", i);
    add_table(t, {t + "_id", t + "_next", t + "_val"},
              100000 * static_cast<uint64_t>((i * 7) % 13 + 1));
    chain_from += (i > 0 ? ", " : "") + t;
    for (const char* col : {"_id", "_next"}) {
      ASSERT_TRUE(chain_indexes
                      .AddIndex(IndexDef{.table = t, .key_columns = {t + col}})
                      .ok());
    }
    if (i > 0) {
      chain_where += StrFormat("%sc%d_next = c%d_id", i > 1 ? " AND " : "",
                               i - 1, i);
    }
  }
  // Star: fact f with one foreign key per dimension d1..d13.
  std::vector<std::string> fact_cols = {"f_id", "f_amt"};
  std::string star_from = "f", star_where;
  Configuration star_indexes;
  for (int i = 1; i < 14; ++i) {
    std::string d = StrFormat("d%d", i);
    add_table(d, {d + "_id", d + "_attr"},
              10000 * static_cast<uint64_t>(i * i));
    fact_cols.push_back(StrFormat("f_d%d", i));
    star_from += ", " + d;
    star_where += StrFormat("%sf_d%d = d%d_id", i > 1 ? " AND " : "", i, i);
    ASSERT_TRUE(star_indexes
                    .AddIndex(IndexDef{.table = "f",
                                       .key_columns = {fact_cols.back()}})
                    .ok());
    ASSERT_TRUE(
        star_indexes.AddIndex(IndexDef{.table = d, .key_columns = {d + "_id"}})
            .ok());
  }
  add_table("f", fact_cols, 5000000);
  ASSERT_TRUE(catalog.AddDatabase(std::move(db)).ok());

  const std::string chain_sql = "SELECT c0_val, c13_val FROM " + chain_from +
                                " WHERE " + chain_where +
                                " AND c5_id = 3 AND c9_val < 10";
  const std::string star_sql = "SELECT d2_attr, SUM(f_amt) FROM " +
                               star_from + " WHERE " + star_where +
                               " AND f_id = 7 AND d4_attr = 2 AND d11_attr < 5 "
                               "GROUP BY d2_attr";
  stats::StatsManager no_stats;
  StatsProvider provider(&no_stats);
  Optimizer opt(catalog, provider, HardwareParams());
  struct Case {
    const std::string* sql;
    const Configuration* config;
    uint64_t describe_hash;
    uint64_t cost_bits;
  };
  const Configuration raw;
  const Case cases[] = {
      {&chain_sql, &raw, 0xec6a062e14e947a8ull, 0x40afd3b2a0a95853ull},
      {&chain_sql, &chain_indexes, 0x7d6a5e3402aed2c3ull,
       0x4047c6dd03028894ull},
      {&star_sql, &raw, 0x3ad227bc22729d53ull, 0x40ba00e4d197e852ull},
      {&star_sql, &star_indexes, 0x03d096baacd6f2cdull,
       0x40a729b814ff8d59ull},
  };
  for (const Case& c : cases) {
    sql::Statement stmt = Parse(*c.sql);
    auto plan = opt.OptimizeSelect(stmt.select(), *c.config);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::string desc = plan->root->Describe(plan->bound);
    EXPECT_EQ(HashBytes(desc), c.describe_hash)
        << std::hex << HashBytes(desc) << "\n" << desc;
    EXPECT_EQ(std::bit_cast<uint64_t>(plan->cost), c.cost_bits)
        << std::hex << std::bit_cast<uint64_t>(plan->cost);
    EXPECT_EQ(CartesianJoins(*plan->root), 0) << desc;
  }
}

}  // namespace
}  // namespace dta::optimizer
