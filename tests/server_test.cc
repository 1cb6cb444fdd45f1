#include <gtest/gtest.h>

#include "common/strings.h"
#include "server/server.h"
#include "sql/parser.h"

namespace dta::server {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

std::unique_ptr<Server> MakeServer(bool with_data,
                                   optimizer::HardwareParams hw = {}) {
  auto server = std::make_unique<Server>("prod", hw);
  TableSchema t("sales", {{"s_id", ColumnType::kInt, 8},
                          {"s_region", ColumnType::kInt, 8},
                          {"s_amount", ColumnType::kDouble, 8}});
  t.set_row_count(5000);
  t.SetPrimaryKey({"s_id"});
  catalog::Database db("shop");
  EXPECT_TRUE(db.AddTable(t).ok());
  EXPECT_TRUE(server->AttachDatabase(std::move(db)).ok());

  std::vector<storage::ColumnSpec> specs = {
      storage::ColumnSpec::Sequential(),
      storage::ColumnSpec::UniformInt(1, 50),
      storage::ColumnSpec::UniformReal(0, 1000)};
  if (with_data) {
    Random rng(3);
    storage::TableGenSpec spec;
    spec.schema = t;
    spec.column_specs = specs;
    spec.rows = 5000;
    auto data = storage::GenerateTable(spec, &rng);
    EXPECT_TRUE(data.ok());
    EXPECT_TRUE(server->AttachTableData("shop", std::move(data).value()).ok());
  } else {
    EXPECT_TRUE(server->RegisterColumnSpecs("shop", "sales", specs).ok());
  }
  return server;
}

sql::Statement Q(const char* text) {
  auto r = sql::ParseStatement(text);
  EXPECT_TRUE(r.ok()) << text;
  return std::move(r).value();
}

TEST(ServerTest, AttachValidation) {
  Server s("x", {});
  TableSchema t("t", {{"a", ColumnType::kInt, 8}});
  t.set_row_count(10);
  catalog::Database db("d");
  ASSERT_TRUE(db.AddTable(t).ok());
  ASSERT_TRUE(s.AttachDatabase(std::move(db)).ok());
  // Row-count mismatch is rejected.
  storage::TableData wrong(t);
  ASSERT_TRUE(wrong.AppendRow({sql::Value::Int(1)}).ok());
  EXPECT_FALSE(s.AttachTableData("d", std::move(wrong)).ok());
  // Spec arity mismatch is rejected.
  EXPECT_FALSE(s.RegisterColumnSpecs("d", "t", {}).ok());
}

TEST(ServerTest, CreateStatisticsFromData) {
  auto s = MakeServer(/*with_data=*/true);
  stats::StatsKey key("shop", "sales", {"s_region"});
  EXPECT_FALSE(s->HasStatistics(key));
  auto d = s->CreateStatistics(key);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_GT(*d, 0);
  EXPECT_TRUE(s->HasStatistics(key));
  // Idempotent and free the second time.
  auto d2 = s->CreateStatistics(key);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d2, 0);
}

TEST(ServerTest, CreateStatisticsFromSpecs) {
  auto s = MakeServer(/*with_data=*/false);
  stats::StatsKey key("shop", "sales", {"s_region", "s_amount"});
  auto d = s->CreateStatistics(key);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  const stats::Statistics* st = s->stats_manager().Find(key);
  ASSERT_NE(st, nullptr);
  EXPECT_NEAR(st->prefix_distinct[0], 50, 10);
}

TEST(ServerTest, CreateStatisticsWithoutDataOrSpecsFails) {
  Server s("bare", {});
  TableSchema t("t", {{"a", ColumnType::kInt, 8}});
  t.set_row_count(100);
  catalog::Database db("d");
  ASSERT_TRUE(db.AddTable(t).ok());
  ASSERT_TRUE(s.AttachDatabase(std::move(db)).ok());
  EXPECT_FALSE(s.CreateStatistics(stats::StatsKey("d", "t", {"a"})).ok());
}

TEST(ServerTest, StatisticsImportExport) {
  auto prod = MakeServer(/*with_data=*/true);
  ASSERT_TRUE(
      prod->CreateStatistics(stats::StatsKey("shop", "sales", {"s_region"}))
          .ok());
  ASSERT_TRUE(
      prod->CreateStatistics(stats::StatsKey("shop", "sales", {"s_id"}))
          .ok());

  auto test = Server::FromMetadataScript(prod->ScriptMetadata(), "test",
                                         optimizer::HardwareParams());
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  EXPECT_EQ((*test)->stats_manager().size(), 0u);
  for (const stats::Statistics* st : prod->ExportStatistics()) {
    (*test)->ImportStatistics(*st);
  }
  EXPECT_EQ((*test)->stats_manager().size(), 2u);
  // Import accrues no overhead on either server beyond what creation did.
  double before = (*test)->overhead_ms();
  EXPECT_EQ(before, 0);
}

TEST(ServerTest, MetadataScriptRoundTrip) {
  auto prod = MakeServer(/*with_data=*/true);
  std::string script = prod->ScriptMetadata();
  EXPECT_NE(script.find("sales"), std::string::npos);
  EXPECT_NE(script.find("RowCount"), std::string::npos);

  auto test = Server::FromMetadataScript(script, "test", {});
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  auto resolved = (*test)->catalog().ResolveTable("shop", "sales");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->table->row_count(), 5000u);
  EXPECT_EQ(resolved->table->columns().size(), 3u);
  EXPECT_EQ(resolved->table->primary_key().size(), 1u);
  // Metadata-only server has no data.
  EXPECT_EQ((*test)->Table("shop", "sales"), nullptr);
}

TEST(ServerTest, WhatIfCostAndOverheadAccrual) {
  auto s = MakeServer(/*with_data=*/true);
  s->ResetOverhead();
  sql::Statement q = Q("SELECT s_amount FROM sales WHERE s_id = 7");
  auto raw = s->WhatIfCost(q, Configuration());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_GT(s->overhead_ms(), 0);
  EXPECT_EQ(s->whatif_call_count(), 1u);

  Configuration config;
  ASSERT_TRUE(
      config.AddIndex(IndexDef{.table = "sales", .key_columns = {"s_id"}})
          .ok());
  auto indexed = s->WhatIfCost(q, config);
  ASSERT_TRUE(indexed.ok());
  EXPECT_LT(indexed->cost, raw->cost);
  EXPECT_EQ(s->whatif_call_count(), 2u);
}

TEST(ServerTest, WhatIfReportsMissingStatistics) {
  auto s = MakeServer(/*with_data=*/true);
  sql::Statement q = Q("SELECT s_amount FROM sales WHERE s_region = 3");
  auto r = s->WhatIfCost(q, Configuration());
  ASSERT_TRUE(r.ok());
  bool wants_region = false;
  for (const auto& k : r->missing_stats) {
    if (k.columns == std::vector<std::string>{"s_region"}) {
      wants_region = true;
    }
  }
  EXPECT_TRUE(wants_region);
  // After creating the statistic, it is no longer reported missing.
  ASSERT_TRUE(
      s->CreateStatistics(stats::StatsKey("shop", "sales", {"s_region"}))
          .ok());
  auto r2 = s->WhatIfCost(q, Configuration());
  ASSERT_TRUE(r2.ok());
  for (const auto& k : r2->missing_stats) {
    EXPECT_NE(k.columns, std::vector<std::string>{"s_region"});
  }
}

TEST(ServerTest, WhatIfWithSimulatedHardware) {
  // Hardware differences show up on large tables (parallelism, memory);
  // use a big metadata-only table.
  auto test_server = std::make_unique<Server>(
      "test", optimizer::HardwareParams::TestClass());
  TableSchema big("sales", {{"s_id", ColumnType::kInt, 8},
                            {"s_region", ColumnType::kInt, 8},
                            {"s_amount", ColumnType::kDouble, 8}});
  big.set_row_count(80000000);  // ~2.6 GB
  catalog::Database db("shop");
  ASSERT_TRUE(db.AddTable(big).ok());
  ASSERT_TRUE(test_server->AttachDatabase(std::move(db)).ok());
  sql::Statement q =
      Q("SELECT s_region, COUNT(*) FROM sales GROUP BY s_region");
  auto own = test_server->WhatIfCost(q, Configuration());
  ASSERT_TRUE(own.ok());
  optimizer::HardwareParams prod_hw =
      optimizer::HardwareParams::ProductionClass();
  auto simulated = test_server->WhatIfCost(q, Configuration(), &prod_hw);
  ASSERT_TRUE(simulated.ok());
  // Production hardware is faster: simulated costs must be lower.
  EXPECT_LT(simulated->cost, own->cost);
}

// A metadata-only TestClass server with one 2M-row table, the §5.3 test
// server of the hardware-simulation tests below.
std::unique_ptr<Server> MakeBigTestServer() {
  auto s =
      std::make_unique<Server>("test", optimizer::HardwareParams::TestClass());
  TableSchema t("sales", {{"s_id", ColumnType::kInt, 8},
                          {"s_region", ColumnType::kInt, 8},
                          {"s_amount", ColumnType::kDouble, 8}});
  t.set_row_count(2000000);
  t.SetPrimaryKey({"s_id"});
  catalog::Database db("shop");
  EXPECT_TRUE(db.AddTable(t).ok());
  EXPECT_TRUE(s->AttachDatabase(std::move(db)).ok());
  return s;
}

TEST(ServerTest, SimulatedHardwareKeysOnEveryParameter) {
  sql::Statement q =
      Q("SELECT s_region, SUM(s_amount) FROM sales WHERE s_region = 3 "
        "GROUP BY s_region ORDER BY s_region");
  // The raw design scans and hash-aggregates; the covering index seeks, so
  // between them every parameter moves some cost.
  Configuration covering;
  ASSERT_TRUE(covering
                  .AddIndex(IndexDef{.table = "sales",
                                     .key_columns = {"s_region"},
                                     .included_columns = {"s_amount"}})
                  .ok());
  auto costs = [&](Server* s, const optimizer::HardwareParams& hw) {
    auto raw = s->WhatIfCost(q, Configuration(), &hw);
    auto seek = s->WhatIfCost(q, covering, &hw);
    EXPECT_TRUE(raw.ok() && seek.ok());
    return std::make_pair(raw.ok() ? raw->cost : -1,
                          seek.ok() ? seek->cost : -1);
  };

  const optimizer::HardwareParams prod =
      optimizer::HardwareParams::ProductionClass();
  using Hw = optimizer::HardwareParams;
  // One change per field. The page costs move by less than the third
  // decimal, and the memory size drops below the table's size.
  const std::vector<std::pair<const char*, void (*)(Hw*)>> cases = {
      {"cpu_count", [](Hw* h) { h->cpu_count = 8; }},
      {"memory_mb", [](Hw* h) { h->memory_mb = 32; }},
      {"seq_page_ms", [](Hw* h) { h->seq_page_ms += 0.0004; }},
      {"rand_page_ms", [](Hw* h) { h->rand_page_ms += 0.0004; }},
      {"cpu_row_ms", [](Hw* h) { h->cpu_row_ms *= 10; }},
      {"hash_row_ms", [](Hw* h) { h->hash_row_ms *= 10; }},
      {"cmp_row_ms", [](Hw* h) { h->cmp_row_ms *= 10; }},
      {"cached_io_fraction", [](Hw* h) { h->cached_io_fraction = 0.5; }},
      {"parallel_threshold_rows",
       [](Hw* h) { h->parallel_threshold_rows = 1e7; }},
  };
  auto shared = MakeBigTestServer();
  const auto base = costs(shared.get(), prod);
  for (const auto& [field, change] : cases) {
    Hw hw = prod;
    change(&hw);
    const auto fresh = costs(MakeBigTestServer().get(), hw);
    EXPECT_NE(fresh, base) << field << " moves no cost";
    EXPECT_EQ(costs(shared.get(), hw), fresh) << field;
  }
  // Back to the first parameter set: its optimizer is still there.
  EXPECT_EQ(costs(shared.get(), prod), base);
}

TEST(ServerTest, WhatIfPlanSimulatesHardware) {
  auto s = MakeBigTestServer();
  Configuration config;
  ASSERT_TRUE(
      config.AddIndex(IndexDef{.table = "sales", .key_columns = {"s_region"}})
          .ok());
  sql::Statement q =
      Q("SELECT s_amount FROM sales WHERE s_region IN (1,2,3,4)");
  const optimizer::HardwareParams prod =
      optimizer::HardwareParams::ProductionClass();
  auto own = s->WhatIfCost(q, config);
  auto simulated = s->WhatIfCost(q, config, &prod);
  ASSERT_TRUE(own.ok() && simulated.ok());
  ASSERT_NE(own->cost, simulated->cost);

  auto own_plan = s->WhatIfPlan(q.select(), config);
  auto simulated_plan = s->WhatIfPlan(q.select(), config, &prod);
  ASSERT_TRUE(own_plan.ok() && simulated_plan.ok());
  EXPECT_EQ(own_plan->cost, own->cost);
  EXPECT_EQ(simulated_plan->cost, simulated->cost);
  // Production hardware scans where the test server's own would seek.
  EXPECT_TRUE(own_plan->root->UsesStructure(config.index_names()[0]));
  EXPECT_FALSE(simulated_plan->root->UsesStructure(config.index_names()[0]));
}

TEST(ServerTest, ImplementAndExecute) {
  auto s = MakeServer(/*with_data=*/true);
  Configuration config;
  ASSERT_TRUE(
      config.AddIndex(IndexDef{.table = "sales", .key_columns = {"s_id"}})
          .ok());
  ASSERT_TRUE(s->ImplementConfiguration(config).ok());
  sql::Statement q = Q("SELECT s_amount FROM sales WHERE s_id = 42");
  double elapsed = -1;
  auto r = s->ExecuteSelect(q.select(), &elapsed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
  EXPECT_GE(elapsed, 0);
}

TEST(ServerTest, ExecutionFailsOnMetadataOnlyServer) {
  auto s = MakeServer(/*with_data=*/false);
  sql::Statement q = Q("SELECT s_amount FROM sales WHERE s_id = 42");
  EXPECT_FALSE(s->ExecuteSelect(q.select()).ok());
}

TEST(ServerTest, OverheadResetAndGrowth) {
  auto s = MakeServer(/*with_data=*/true);
  sql::Statement q = Q("SELECT COUNT(*) FROM sales");
  ASSERT_TRUE(s->WhatIfCost(q, Configuration()).ok());
  double once = s->overhead_ms();
  ASSERT_TRUE(s->WhatIfCost(q, Configuration()).ok());
  EXPECT_GT(s->overhead_ms(), once);
  s->ResetOverhead();
  EXPECT_EQ(s->overhead_ms(), 0);
  EXPECT_EQ(s->whatif_call_count(), 0u);
}

}  // namespace
}  // namespace dta::server
