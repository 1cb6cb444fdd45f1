// Integration tests for candidate generation, the cost service, enumeration
// and end-to-end tuning sessions (including the production/test-server
// scenario, user-specified configurations, XML I/O, and baselines).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "dta/candidates.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/itw_baseline.h"
#include "dta/staged_baseline.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "sql/parser.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Builds a production server with two joinable tables and real data.
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

  // Constraint-enforcing PK index (part of the raw configuration).
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
      "SELECT o_price FROM orders WHERE o_id = 120;"
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "SELECT i_qty FROM items WHERE i_part = 77;";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

sql::Statement Q(const std::string& text) {
  auto r = sql::ParseStatement(text);
  EXPECT_TRUE(r.ok()) << text;
  return std::move(r).value();
}

// ------------------------------------------------------------ candidates

TEST(CandidateGenTest, IndexCandidatesForPredicates) {
  auto prod = MakeProduction();
  auto groups = InterestingColumnGroups::Unrestricted();
  TuningOptions opts;
  auto cands = GenerateCandidatesForStatement(
      Q("SELECT o_price FROM orders WHERE o_cust = 5 AND o_date < "
        "'1995-01-01'"),
      prod.get(), groups, opts);
  ASSERT_TRUE(cands.ok()) << cands.status().ToString();
  ASSERT_FALSE(cands->empty());
  bool has_key_index = false, has_covering = false, has_clustered = false,
       has_partitioning = false;
  for (const auto& c : *cands) {
    if (c.kind == Candidate::Kind::kIndex) {
      if (c.index.clustered) has_clustered = true;
      if (!c.index.included_columns.empty()) has_covering = true;
      if (!c.index.key_columns.empty() &&
          c.index.key_columns[0] == "o_cust") {
        has_key_index = true;
      }
      EXPECT_GT(c.bytes + (c.index.clustered ? 1 : 0), 0u) << c.name;
    }
    if (c.kind == Candidate::Kind::kTablePartitioning) {
      has_partitioning = true;
      EXPECT_GT(c.scheme.boundaries.size(), 0u);
    }
  }
  EXPECT_TRUE(has_key_index);
  EXPECT_TRUE(has_covering);
  EXPECT_TRUE(has_clustered);
  EXPECT_TRUE(has_partitioning);
}

TEST(CandidateGenTest, ViewCandidatesForAggregateJoin) {
  auto prod = MakeProduction();
  auto groups = InterestingColumnGroups::Unrestricted();
  TuningOptions opts;
  auto cands = GenerateCandidatesForStatement(
      Q("SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
        "GROUP BY o_cust"),
      prod.get(), groups, opts);
  ASSERT_TRUE(cands.ok());
  int views = 0;
  for (const auto& c : *cands) {
    if (c.kind == Candidate::Kind::kView) {
      ++views;
      EXPECT_GT(c.view.estimated_rows, 0);
      EXPECT_EQ(c.view.referenced_tables.size(), 2u);
    }
  }
  EXPECT_GE(views, 1);
}

TEST(CandidateGenTest, FeatureSetRestrictionsHonored) {
  auto prod = MakeProduction();
  auto groups = InterestingColumnGroups::Unrestricted();
  TuningOptions opts = TuningOptions::IndexesOnly();
  auto cands = GenerateCandidatesForStatement(
      Q("SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
        "AND o_date < '1995-01-01' GROUP BY o_cust"),
      prod.get(), groups, opts);
  ASSERT_TRUE(cands.ok());
  for (const auto& c : *cands) {
    EXPECT_EQ(c.kind, Candidate::Kind::kIndex) << c.name;
  }
}

TEST(CandidateGenTest, InterestingGroupsPruneCandidates) {
  auto prod = MakeProduction();
  InterestingColumnGroups groups;  // empty and restricted: admits nothing
  TuningOptions opts;
  auto cands = GenerateCandidatesForStatement(
      Q("SELECT o_price FROM orders WHERE o_cust = 5"), prod.get(), groups,
      opts);
  ASSERT_TRUE(cands.ok());
  for (const auto& c : *cands) {
    EXPECT_NE(c.kind, Candidate::Kind::kIndex);
  }
}

TEST(CandidateGenTest, DmlCandidates) {
  auto prod = MakeProduction();
  auto groups = InterestingColumnGroups::Unrestricted();
  TuningOptions opts;
  auto cands = GenerateCandidatesForStatement(
      Q("UPDATE orders SET o_price = 1 WHERE o_cust = 9"), prod.get(),
      groups, opts);
  ASSERT_TRUE(cands.ok());
  ASSERT_EQ(cands->size(), 1u);
  EXPECT_EQ((*cands)[0].index.key_columns,
            (std::vector<std::string>{"o_cust"}));
  // INSERTs yield no candidates.
  auto ins = GenerateCandidatesForStatement(
      Q("INSERT INTO items VALUES (1, 2, 3.0)"), prod.get(), groups, opts);
  ASSERT_TRUE(ins.ok());
  EXPECT_TRUE(ins->empty());
}

// ----------------------------------------------------------- cost service

TEST(CostServiceTest, CachesByRelevantStructures) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  CostService costs(prod.get(), nullptr, &w);

  Configuration raw;
  ASSERT_TRUE(costs.WorkloadCost(raw).ok());
  size_t calls_after_first = costs.whatif_calls();
  EXPECT_EQ(calls_after_first, w.size());
  // Same configuration: fully cached.
  ASSERT_TRUE(costs.WorkloadCost(raw).ok());
  EXPECT_EQ(costs.whatif_calls(), calls_after_first);

  // Adding an items-only index re-prices only the statements touching
  // items (the join and the i_part query).
  Configuration with_index = raw;
  ASSERT_TRUE(with_index
                  .AddIndex(IndexDef{.table = "items",
                                     .key_columns = {"i_part"}})
                  .ok());
  ASSERT_TRUE(costs.WorkloadCost(with_index).ok());
  EXPECT_EQ(costs.whatif_calls(), calls_after_first + 2);
}

// Statement ids are text hashes, so two texts can collide. The cache binds
// an id to its first text and refuses another one, instead of handing one
// statement the other's costs; pricing the refused statement fails with
// that status while the rest of the workload prices normally.
TEST(CostServiceTest, IdBoundToAnotherTextIsRefused) {
  CostCache cache;
  ASSERT_TRUE(cache.Bind(42, "SELECT o_id FROM orders").ok());
  EXPECT_TRUE(cache.Bind(42, "SELECT o_id FROM orders").ok());
  auto other = cache.Bind(42, "SELECT o_cust FROM orders");
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kAlreadyExists);

  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  ASSERT_TRUE(cache.Bind(w.statements()[0].id, "SELECT 1 FROM orders").ok());
  SingleServerBackend backend(prod.get());
  CostService costs(&backend, nullptr, &w, CostService::Config(), &cache);
  auto refused = costs.StatementCost(0, Configuration());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(costs.StatementCost(1, Configuration()).ok());
  EXPECT_EQ(costs.whatif_calls(), 1u);
}

TEST(CostServiceTest, CollectsMissingStats) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  CostService costs(prod.get(), nullptr, &w);
  ASSERT_TRUE(costs.WorkloadCost(Configuration()).ok());
  EXPECT_FALSE(costs.missing_stats().empty());
}

// ------------------------------------------------------------ enumeration

TEST(EnumerationTest, PicksBeneficialCandidates) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  CostService costs(prod.get(), nullptr, &w);
  std::vector<Candidate> pool;
  pool.push_back(Candidate::MakeIndex(
      IndexDef{.table = "orders", .key_columns = {"o_id"},
               .included_columns = {"o_price"}},
      prod->catalog()));
  pool.push_back(Candidate::MakeIndex(
      IndexDef{.table = "items", .key_columns = {"i_part"},
               .included_columns = {"i_qty"}},
      prod->catalog()));
  TuningOptions opts;
  auto r = EnumerateConfiguration(&costs, pool, Configuration(), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->chosen.size(), 2u);  // both clearly help
  auto base_cost = costs.WorkloadCost(Configuration());
  ASSERT_TRUE(base_cost.ok());
  EXPECT_LT(r->cost, *base_cost);
}

TEST(EnumerationTest, StorageBoundLimitsSelection) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  CostService costs(prod.get(), nullptr, &w);
  std::vector<Candidate> pool;
  pool.push_back(Candidate::MakeIndex(
      IndexDef{.table = "orders", .key_columns = {"o_id"},
               .included_columns = {"o_price"}},
      prod->catalog()));
  pool.push_back(Candidate::MakeIndex(
      IndexDef{.table = "items", .key_columns = {"i_part"},
               .included_columns = {"i_qty"}},
      prod->catalog()));
  TuningOptions opts;
  opts.storage_bytes = std::min(pool[0].bytes, pool[1].bytes) +
                       std::max(pool[0].bytes, pool[1].bytes) / 2;
  auto r = EnumerateConfiguration(&costs, pool, Configuration(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chosen.size(), 1u);  // only one fits

  TuningOptions tight;
  tight.storage_bytes = 1;  // nothing fits
  auto r2 = EnumerateConfiguration(&costs, pool, Configuration(), tight);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->chosen.empty());
}

TEST(EnumerationTest, AlignmentForcesIdenticalPartitioning) {
  auto prod = MakeProduction();
  workload::Workload w = SelectWorkload();
  CostService costs(prod.get(), nullptr, &w);

  catalog::PartitionScheme scheme;
  scheme.column = "o_date";
  scheme.boundaries = {sql::Value::String("1994-09-01"),
                       sql::Value::String("1995-06-01")};
  std::vector<Candidate> pool;
  pool.push_back(
      Candidate::MakePartitioning("shop", "orders", scheme));
  pool.push_back(Candidate::MakeIndex(
      IndexDef{.table = "orders", .key_columns = {"o_id"},
               .included_columns = {"o_price"}},
      prod->catalog()));
  TuningOptions opts;
  opts.require_alignment = true;
  auto r = EnumerateConfiguration(&costs, pool, Configuration(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->configuration.IsFullyAligned())
      << r->configuration.Fingerprint();
}

// --------------------------------------------------------------- session

TEST(TuningSessionTest, EndToEndImprovesWorkload) {
  auto prod = MakeProduction();
  TuningOptions opts;
  TuningSession session(prod.get(), opts);
  auto r = session.Tune(SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->ImprovementPercent(), 30) << r->report.ToText();
  EXPECT_GT(r->recommendation.StructureCount(), 0u);
  EXPECT_GT(r->whatif_calls, 0u);
  EXPECT_GT(r->stats_created, 0u);
  EXPECT_EQ(r->events_total, 5u);
  // The report is consistent with the headline numbers.
  EXPECT_NEAR(r->report.ImprovementPercent(), r->ImprovementPercent(), 1e-6);
  EXPECT_FALSE(r->report.structure_usage.empty());
}

TEST(TuningSessionTest, UpdateHeavyWorkloadGetsNoHarmfulStructures) {
  auto prod = MakeProduction();
  // Nearly pure modifications; reads are trivial full scans.
  std::string script;
  for (int i = 0; i < 30; ++i) {
    script += StrFormat(
        "UPDATE items SET i_qty = %d WHERE i_oid = %d;"
        "INSERT INTO items VALUES (%d, %d, 1.5);",
        i % 7, i * 11 + 1, 100000 + i, i % 50);
  }
  auto w = workload::Workload::FromScript(script);
  ASSERT_TRUE(w.ok());
  TuningOptions opts;
  TuningSession session(prod.get(), opts);
  auto r = session.Tune(*w);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Whatever is recommended must not be worse than doing nothing.
  EXPECT_GE(r->ImprovementPercent(), -1e-9);
}

TEST(TuningSessionTest, UserSpecifiedConfigurationIsHonored) {
  auto prod = MakeProduction();
  TuningOptions opts;
  catalog::PartitionScheme by_month;
  by_month.column = "o_date";
  by_month.boundaries = {sql::Value::String("1995-01-01")};
  opts.user_specified.SetTablePartitioning("orders", by_month);
  ASSERT_TRUE(opts.user_specified
                  .AddIndex(IndexDef{.table = "items",
                                     .key_columns = {"i_oid"}})
                  .ok());
  TuningSession session(prod.get(), opts);
  auto r = session.Tune(SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const catalog::PartitionScheme* scheme =
      r->recommendation.FindTablePartitioning("orders");
  ASSERT_NE(scheme, nullptr);
  EXPECT_TRUE(*scheme == by_month);
  EXPECT_TRUE(r->recommendation.ContainsStructure(
      IndexDef{.table = "items", .key_columns = {"i_oid"}}.CanonicalName()));
}

TEST(TuningSessionTest, EvaluateConfigurationMode) {
  auto prod = MakeProduction();
  TuningSession session(prod.get(), TuningOptions());
  // Propose an addition on top of the current design (a configuration is a
  // complete physical design; omitting current indexes would drop them).
  Configuration proposal = prod->current_configuration();
  ASSERT_TRUE(proposal
                  .AddIndex(IndexDef{.table = "items",
                                     .key_columns = {"i_part"},
                                     .included_columns = {"i_qty"}})
                  .ok());
  auto r = session.EvaluateConfiguration(SelectWorkload(), proposal);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->ChangePercent(), 0);  // the index helps the i_part query
  EXPECT_EQ(r->report.statements.size(), 5u);
}

TEST(TuningSessionTest, TestServerModeShiftsOverhead) {
  auto prod = MakeProduction();
  auto test = server::Server::FromMetadataScript(
      prod->ScriptMetadata(), "test", optimizer::HardwareParams::TestClass());
  ASSERT_TRUE(test.ok()) << test.status().ToString();

  prod->ResetOverhead();
  TuningSession session(prod.get(), TuningOptions());
  ASSERT_TRUE(session.UseTestServer(test->get()).ok());
  auto r = session.Tune(SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->ImprovementPercent(), 30);

  // Production only paid for statistics creation; the what-if load landed
  // on the test server.
  EXPECT_GT((*test)->whatif_call_count(), 0u);
  EXPECT_EQ(prod->whatif_call_count(), 0u);
  EXPECT_GT((*test)->overhead_ms(), 0.0);
  EXPECT_NEAR(prod->overhead_ms(), r->stats_creation_ms,
              r->stats_creation_ms * 0.01 + 1e-6);
}

TEST(TuningSessionTest, TestServerRecommendationMatchesLocalTuning) {
  auto prod1 = MakeProduction();
  auto prod2 = MakeProduction();
  TuningSession local(prod1.get(), TuningOptions());
  auto r_local = local.Tune(SelectWorkload());
  ASSERT_TRUE(r_local.ok());

  auto test = server::Server::FromMetadataScript(
      prod2->ScriptMetadata(), "test",
      optimizer::HardwareParams::TestClass());
  ASSERT_TRUE(test.ok());
  TuningSession remote(prod2.get(), TuningOptions());
  ASSERT_TRUE(remote.UseTestServer(test->get()).ok());
  auto r_remote = remote.Tune(SelectWorkload());
  ASSERT_TRUE(r_remote.ok());

  // Hardware simulation makes the test-server recommendation equivalent.
  EXPECT_EQ(r_local->recommendation.Fingerprint(),
            r_remote->recommendation.Fingerprint());
  EXPECT_NEAR(r_local->ImprovementPercent(),
              r_remote->ImprovementPercent(), 1.0);
}

// A ProductionClass server with one 2M-row generated table (specs only).
std::unique_ptr<server::Server> MakeBigProduction() {
  auto s = std::make_unique<server::Server>(
      "prod", optimizer::HardwareParams::ProductionClass());
  TableSchema sales("sales", {{"s_id", ColumnType::kInt, 8},
                              {"s_region", ColumnType::kInt, 8},
                              {"s_amount", ColumnType::kDouble, 8}});
  sales.set_row_count(2000000);
  sales.SetPrimaryKey({"s_id"});
  catalog::Database db("shop");
  EXPECT_TRUE(db.AddTable(sales).ok());
  EXPECT_TRUE(s->AttachDatabase(std::move(db)).ok());
  EXPECT_TRUE(s->RegisterColumnSpecs(
                   "shop", "sales",
                   {storage::ColumnSpec::Sequential(),
                    storage::ColumnSpec::UniformInt(1, 6000),
                    storage::ColumnSpec::UniformReal(0, 1000)})
                  .ok());
  // The clustered primary key leaves only nonclustered candidates.
  Configuration raw;
  EXPECT_TRUE(raw.AddIndex(IndexDef{.table = "sales",
                                    .key_columns = {"s_id"},
                                    .clustered = true,
                                    .constraint_enforcing = true})
                  .ok());
  EXPECT_TRUE(s->ImplementConfiguration(raw).ok());
  return s;
}

TEST(TuningSessionTest, TestServerReportsProductionPlanUsage) {
  // The test server's own hardware would seek the recommended index for
  // the four-value IN list; production hardware scans instead.
  auto script = workload::Workload::FromScript(
      "SELECT s_amount FROM sales WHERE s_region IN (1);"
      "SELECT s_amount FROM sales WHERE s_region IN (1,2,3,4);");
  ASSERT_TRUE(script.ok()) << script.status().ToString();

  auto prod1 = MakeBigProduction();
  // The DBA asks for an index on s_region, and the storage bound leaves
  // no room for one that also covers s_amount (which production would seek
  // for both statements).
  TuningOptions opts = TuningOptions::IndexesOnly();
  ASSERT_TRUE(opts.user_specified
                  .AddIndex(IndexDef{.table = "sales",
                                     .key_columns = {"s_region"}})
                  .ok());
  auto sales = prod1->catalog().ResolveTable("shop", "sales");
  ASSERT_TRUE(sales.ok());
  opts.storage_bytes = IndexDef{.table = "sales",
                                .key_columns = {"s_region"},
                                .included_columns = {"s_amount"}}
                           .EstimateBytes(*sales->table) -
                       1;
  TuningSession local(prod1.get(), opts);
  auto r_local = local.Tune(*script);
  ASSERT_TRUE(r_local.ok()) << r_local.status().ToString();

  auto prod2 = MakeBigProduction();
  auto test = server::Server::FromMetadataScript(
      prod2->ScriptMetadata(), "test",
      optimizer::HardwareParams::TestClass());
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  TuningSession remote(prod2.get(), opts);
  ASSERT_TRUE(remote.UseTestServer(test->get()).ok());
  auto r_remote = remote.Tune(*script);
  ASSERT_TRUE(r_remote.ok()) << r_remote.status().ToString();

  ASSERT_EQ(r_local->recommendation.Fingerprint(),
            r_remote->recommendation.Fingerprint());
  ASSERT_FALSE(r_local->report.structure_usage.empty());
  EXPECT_EQ(r_remote->report.structure_usage,
            r_local->report.structure_usage);
}

TEST(TuningSessionTest, TimeLimitShortCircuits) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.time_limit_ms = 0.0;  // expire immediately
  TuningSession session(prod.get(), opts);
  auto r = session.Tune(SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->hit_time_limit);
}

TEST(TuningSessionTest, FasterWhenFeaturesDisabled) {
  auto prod = MakeProduction();
  TuningOptions idx_only = TuningOptions::IndexesOnly();
  TuningSession session(prod.get(), idx_only);
  auto r = session.Tune(SelectWorkload());
  ASSERT_TRUE(r.ok());
  for (const auto& v : r->recommendation.views()) {
    FAIL() << "unexpected view " << v.CanonicalName();
  }
  EXPECT_TRUE(r->recommendation.table_partitioning().empty());
}

// ------------------------------------------------------------- baselines

TEST(BaselineTest, ItwTunesWithoutPartitioning) {
  auto prod = MakeProduction();
  auto r = TuneWithItw(prod.get(), SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->recommendation.table_partitioning().empty());
  EXPECT_GT(r->ImprovementPercent(), 20);
}

TEST(BaselineTest, StagedRunsAllStagesAndLocksChoices) {
  auto prod = MakeProduction();
  auto r = TuneStaged(prod.get(), SelectWorkload());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Stage outputs accumulate into the final configuration.
  EXPECT_GE(r->final_configuration.StructureCount(),
            r->index_stage.recommendation.StructureCount());
  EXPECT_GE(r->ImprovementPercent(), 0);
}

TEST(BaselineTest, IntegratedAtLeastAsGoodAsStaged) {
  auto prod = MakeProduction();
  auto staged = TuneStaged(prod.get(), SelectWorkload());
  ASSERT_TRUE(staged.ok());
  TuningSession session(prod.get(), TuningOptions());
  auto integrated = session.Tune(SelectWorkload());
  ASSERT_TRUE(integrated.ok());
  EXPECT_GE(integrated->ImprovementPercent() + 1.0,
            staged->ImprovementPercent());
}

// ------------------------------------------------------------------- XML

TEST(XmlSchemaTest, ConfigurationRoundTrip) {
  Configuration config;
  catalog::PartitionScheme scheme;
  scheme.column = "o_date";
  scheme.boundaries = {sql::Value::String("1995-01-01"),
                       sql::Value::String("1996-01-01")};
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "orders",
                                     .key_columns = {"o_cust", "o_date"},
                                     .included_columns = {"o_price"},
                                     .partitioning = scheme})
                  .ok());
  ASSERT_TRUE(config
                  .AddIndex(IndexDef{.table = "items",
                                     .key_columns = {"i_oid"},
                                     .clustered = true})
                  .ok());
  catalog::ViewDef v;
  auto def = sql::ParseStatement(
      "SELECT o_cust, COUNT(*) AS c FROM orders GROUP BY o_cust");
  ASSERT_TRUE(def.ok());
  v.definition = std::make_shared<sql::SelectStatement>(def->select().Clone());
  v.referenced_tables = {"orders"};
  v.estimated_rows = 3000;
  ASSERT_TRUE(config.AddView(v).ok());
  config.SetTablePartitioning("orders", scheme);

  auto xml_elem = ConfigurationToXml(config);
  auto parsed = ConfigurationFromXml(*xml_elem);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Fingerprint(), config.Fingerprint());
}

TEST(XmlSchemaTest, NumericBoundariesRoundTrip) {
  Configuration config;
  catalog::PartitionScheme scheme;
  scheme.column = "k";
  scheme.boundaries = {sql::Value::Int(100), sql::Value::Double(2.5)};
  config.SetTablePartitioning("t", scheme);
  auto parsed = ConfigurationFromXml(*ConfigurationToXml(config));
  ASSERT_TRUE(parsed.ok());
  const auto* s = parsed->FindTablePartitioning("t");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->boundaries[0].type(), sql::ValueType::kInt);
  EXPECT_EQ(s->boundaries[1].type(), sql::ValueType::kDouble);
  EXPECT_EQ(parsed->Fingerprint(), config.Fingerprint());
}

TEST(XmlSchemaTest, TuningInputRoundTrip) {
  TuningInput input;
  input.server_name = "prod01";
  input.workload = SelectWorkload();
  input.options.require_alignment = true;
  input.options.storage_bytes = 123456789;
  input.options.tune_materialized_views = false;
  ASSERT_TRUE(input.options.user_specified
                  .AddIndex(IndexDef{.table = "items",
                                     .key_columns = {"i_oid"}})
                  .ok());

  std::string xml_text = TuningInputToXml(input);
  auto parsed = TuningInputFromXml(xml_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->server_name, "prod01");
  EXPECT_EQ(parsed->workload.size(), input.workload.size());
  EXPECT_TRUE(parsed->options.require_alignment);
  EXPECT_FALSE(parsed->options.tune_materialized_views);
  ASSERT_TRUE(parsed->options.storage_bytes.has_value());
  EXPECT_EQ(*parsed->options.storage_bytes, 123456789u);
  EXPECT_EQ(parsed->options.user_specified.Fingerprint(),
            input.options.user_specified.Fingerprint());
}

// TuningInput XML with the text of one attribute replaced: the first
// statement's Weight, or a TuningOptions attribute.
std::string InputWithAttr(const std::string& name, const std::string& text) {
  TuningInput input;
  input.server_name = "prod01";
  input.workload = SelectWorkload();
  input.workload.statements()[0].weight = 2;
  input.options.time_limit_ms = 5000;
  input.options.storage_bytes = 1000;
  input.options.num_threads = 2;
  std::string xml_text = TuningInputToXml(input);
  const std::string attr = " " + name + "=\"";
  const size_t at = xml_text.find(attr);
  EXPECT_NE(at, std::string::npos) << xml_text;
  if (at != std::string::npos) {
    const size_t value_at = at + attr.size();
    xml_text.replace(value_at, xml_text.find('"', value_at) - value_at, text);
  }
  return xml_text;
}

// Expects `text` in attribute `name` to be refused, naming the attribute.
void ExpectAttrRefused(const std::string& name, const std::string& text) {
  auto parsed = TuningInputFromXml(InputWithAttr(name, text));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << name << "=" << text;
  EXPECT_NE(parsed.status().message().find(name), std::string::npos)
      << parsed.status().ToString();
}

// strtod alone reads "abc" as 0 ms, which ends tuning at once.
TEST(XmlSchemaTest, TimeLimitMsRejectsText) {
  auto parsed = TuningInputFromXml(InputWithAttr("TimeLimitMs", "abc"));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  auto plain = TuningInputFromXml(InputWithAttr("TimeLimitMs", "5000"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->options.time_limit_ms, 5000);
}

// NaN passes every range check downstream and runs unbounded.
TEST(XmlSchemaTest, TimeLimitMsRejectsNan) {
  auto parsed = TuningInputFromXml(InputWithAttr("TimeLimitMs", "nan"));
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// strtod alone reads "nan" as a NaN weight (every cost becomes nan) and
// "abc" as 0.
TEST(XmlSchemaTest, WeightMustBeFiniteAndNonNegative) {
  for (const char* bad : {"nan", "inf", "abc", "-1", ""}) {
    ExpectAttrRefused("Weight", bad);
  }
  auto plain = TuningInputFromXml(InputWithAttr("Weight", "3.5"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->workload.statements()[0].weight, 3.5);
}

// strtoull alone reads "abc" as a 0-byte budget, which recommends nothing.
TEST(XmlSchemaTest, StorageBytesRejectsText) {
  for (const char* bad : {"abc", "-5", "1e3", "12MB", ""}) {
    ExpectAttrRefused("StorageBytes", bad);
  }
  auto plain = TuningInputFromXml(InputWithAttr("StorageBytes", "4096"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->options.storage_bytes, 4096u);
}

// atoi alone reads "abc" as 0 threads (all hardware threads) and wraps
// values past int.
TEST(XmlSchemaTest, ThreadsMustBeANonNegativeInt) {
  for (const char* bad : {"abc", "-1", "2.5", "4294967297", ""}) {
    ExpectAttrRefused("Threads", bad);
  }
  auto plain = TuningInputFromXml(InputWithAttr("Threads", "4"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->options.num_threads, 4);
}

// A <Configuration> of one view carrying exactly `attrs`.
Result<Configuration> ViewWithAttrs(
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  xml::Element root("Configuration");
  xml::Element* view = root.AddChild("View");
  for (const auto& [name, value] : attrs) view->SetAttr(name, value);
  view->AddTextChild(
      "Definition", "SELECT o_cust, COUNT(*) AS c FROM orders GROUP BY o_cust");
  return ConfigurationFromXml(root);
}

// A <Configuration> partitioning orders at one boundary of `type`, written
// as `text` plus, when `bits` is set, a Bits companion.
Result<Configuration> BoundaryWith(const std::string& type,
                                   const std::string& text,
                                   const char* bits = nullptr) {
  xml::Element root("Configuration");
  xml::Element* table = root.AddChild("TablePartitioning");
  table->SetAttr("Table", "orders");
  xml::Element* partitioning = table->AddChild("Partitioning");
  partitioning->SetAttr("Column", "o_price");
  xml::Element* boundary = partitioning->AddChild("Boundary");
  boundary->SetAttr("Type", type);
  if (bits != nullptr) boundary->SetAttr("Bits", bits);
  boundary->set_text(text);
  return ConfigurationFromXml(root);
}

std::string BitsOf(double v) {
  return std::to_string(std::bit_cast<uint64_t>(v));
}

// Expects a refusal whose message names `what`.
void ExpectRefused(const Result<Configuration>& parsed,
                   const std::string& what, const std::string& text) {
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
      << what << "=" << text;
  EXPECT_NE(parsed.status().message().find(what), std::string::npos)
      << parsed.status().ToString();
}

const sql::Value& OnlyBoundary(const Configuration& config) {
  return config.FindTablePartitioning("orders")->boundaries.at(0);
}

// strtod alone reads "nan" as NaN rows, which prices the view at a
// fraction of its cost, and "abc" as 0.
TEST(XmlSchemaTest, ViewEstimatedRowsMustBeFiniteAndNonNegative) {
  for (const char* bad : {"nan", "inf", "abc", "-1", ""}) {
    ExpectRefused(ViewWithAttrs({{"EstimatedRows", bad}}), "EstimatedRows",
                  bad);
  }
  auto plain = ViewWithAttrs({{"EstimatedRows", "1000"}});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->views().at(0).estimated_rows, 1000);
}

// strtoull alone reads "abc" as the bits of 0.0, and any pattern decodes,
// NaN and negative ones included.
TEST(XmlSchemaTest, ViewEstimatedRowsBitsMustBeAFiniteBitPattern) {
  for (const std::string& bad :
       {std::string("abc"), std::string("-1"), std::string(""),
        BitsOf(std::nan("")), BitsOf(-1.0)}) {
    ExpectRefused(ViewWithAttrs({{"EstimatedRows", "2.50"},
                                 {"EstimatedRowsBits", bad}}),
                  "EstimatedRowsBits", bad);
  }
  auto exact = ViewWithAttrs(
      {{"EstimatedRows", "0.33"}, {"EstimatedRowsBits", BitsOf(1.0 / 3)}});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->views().at(0).estimated_rows, 1.0 / 3);
}

// atoi alone reads "abc" as 0, which silently kept the default width.
TEST(XmlSchemaTest, ViewEstimatedRowBytesMustBeAPositiveInt) {
  for (const char* bad : {"abc", "0", "-4", "2.5", "4294967297", ""}) {
    ExpectRefused(ViewWithAttrs({{"EstimatedRowBytes", bad}}),
                  "EstimatedRowBytes", bad);
  }
  auto plain = ViewWithAttrs({{"EstimatedRowBytes", "48"}});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->views().at(0).estimated_row_bytes, 48);
}

// strtoll alone reads "abc" as a boundary at 0 and "12abc" as 12.
TEST(XmlSchemaTest, IntBoundaryMustBeAnInt) {
  for (const char* bad : {"abc", "12abc", " 12", "", "9223372036854775808"}) {
    ExpectRefused(BoundaryWith("int", bad), "Boundary", bad);
  }
  auto plain = BoundaryWith("int", "12");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(OnlyBoundary(*plain).AsInt(), 12);
}

// strtod alone reads "nan" as a boundary no value ever compares against.
TEST(XmlSchemaTest, DoubleBoundaryMustBeFinite) {
  for (const char* bad : {"nan", "inf", "abc", "2.5x"}) {
    ExpectRefused(BoundaryWith("double", bad), "Boundary", bad);
  }
  auto plain = BoundaryWith("double", "2.5");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(OnlyBoundary(*plain).AsDoubleStrict(), 2.5);
}

// strtoull alone reads "abc" as the bits of 0.0.
TEST(XmlSchemaTest, DoubleBoundaryBitsMustBeAFiniteBitPattern) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::string& bad : {std::string("abc"), std::string(""),
                                 BitsOf(std::nan("")), BitsOf(inf)}) {
    ExpectRefused(BoundaryWith("double", "2.5", bad.c_str()), "Bits", bad);
  }
  auto exact = BoundaryWith("double", "0.333333", BitsOf(1.0 / 3).c_str());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(OnlyBoundary(*exact).AsDoubleStrict(), 1.0 / 3);
}

TEST(XmlSchemaTest, FullOutputDocument) {
  auto prod = MakeProduction();
  TuningSession session(prod.get(), TuningOptions());
  TuningInput input;
  input.server_name = "prod";
  input.workload = SelectWorkload();
  auto r = session.Tune(input.workload);
  ASSERT_TRUE(r.ok());
  std::string doc =
      TuningOutputToXml(input, r->recommendation, r->report);
  EXPECT_NE(doc.find("<DTAXML>"), std::string::npos);
  auto rec = RecommendationFromXml(doc);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->Fingerprint(), r->recommendation.Fingerprint());
}

TEST(XmlSchemaTest, ParseErrors) {
  EXPECT_FALSE(TuningInputFromXml("<NotDta/>").ok());
  EXPECT_FALSE(TuningInputFromXml("<DTAXML><Input/></DTAXML>").ok());
  EXPECT_FALSE(RecommendationFromXml("<DTAXML><Input/></DTAXML>").ok());
  xml::Element bad_index("Configuration");
  bad_index.AddChild("Index")->SetAttr("Table", "t");  // no key columns
  EXPECT_FALSE(ConfigurationFromXml(bad_index).ok());
}

}  // namespace
}  // namespace dta::tuner
