// Unit tests for DTA's building blocks: Greedy(m,k), reduced statistics,
// column-group restriction, candidate generation, merging, cost service,
// and enumeration.

#include <gtest/gtest.h>

#include <cmath>

#include "common/strings.h"
#include "dta/candidates.h"
#include "dta/column_groups.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/greedy.h"
#include "dta/merging.h"
#include "dta/reduced_stats.h"
#include "sql/parser.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::PartitionScheme;
using catalog::TableSchema;

// ---------------------------------------------------------------- greedy

TEST(GreedyTest, FindsSingleBestCandidate) {
  // Candidate 2 reduces cost the most.
  auto eval = [](const std::vector<size_t>& s) -> Result<double> {
    double cost = 100;
    for (size_t i : s) cost -= (i == 2 ? 50 : 10);
    return cost;
  };
  GreedyResult r = GreedySearch(5, 1, 1, 100, EvaluateEach(eval));
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 2u);
  EXPECT_DOUBLE_EQ(r.cost, 50);
}

TEST(GreedyTest, GreedyExtendsWhileImproving) {
  auto eval = [](const std::vector<size_t>& s) -> Result<double> {
    // Diminishing but positive benefit for first three candidates only.
    double cost = 100;
    for (size_t i : s) {
      if (i < 3) cost -= 20 - 5 * static_cast<double>(i);
    }
    return cost;
  };
  GreedyResult r = GreedySearch(6, 1, 10, 100, EvaluateEach(eval));
  EXPECT_EQ(r.chosen.size(), 3u);
  EXPECT_DOUBLE_EQ(r.cost, 100 - 20 - 15 - 10);
}

TEST(GreedyTest, RespectsK) {
  auto eval = [](const std::vector<size_t>& s) -> Result<double> {
    return 100 - static_cast<double>(s.size());
  };
  GreedyResult r = GreedySearch(10, 1, 4, 100, EvaluateEach(eval));
  EXPECT_EQ(r.chosen.size(), 4u);
}

TEST(GreedyTest, MEqualsTwoFindsInteractingPair) {
  // Candidates 1 and 3 only help together; alone they hurt.
  auto eval = [](const std::vector<size_t>& s) -> Result<double> {
    bool has1 = std::find(s.begin(), s.end(), 1u) != s.end();
    bool has3 = std::find(s.begin(), s.end(), 3u) != s.end();
    if (has1 && has3) return 40.0;
    if (has1 || has3) return 110.0;
    return 100.0;
  };
  GreedyResult greedy_only = GreedySearch(5, 1, 5, 100, EvaluateEach(eval));
  EXPECT_TRUE(greedy_only.chosen.empty());  // m=1 cannot find the pair
  GreedyResult with_m2 = GreedySearch(5, 2, 5, 100, EvaluateEach(eval));
  EXPECT_EQ(with_m2.chosen.size(), 2u);
  EXPECT_DOUBLE_EQ(with_m2.cost, 40.0);
}

TEST(GreedyTest, SkipsInfeasibleSubsets) {
  auto eval = [](const std::vector<size_t>& s) -> Result<double> {
    for (size_t i : s) {
      if (i == 0) return Status::OutOfRange("infeasible");
    }
    return 100 - 10 * static_cast<double>(s.size());
  };
  GreedyResult r = GreedySearch(3, 1, 3, 100, EvaluateEach(eval));
  EXPECT_EQ(std::find(r.chosen.begin(), r.chosen.end(), 0u),
            r.chosen.end());
  EXPECT_EQ(r.chosen.size(), 2u);
}

TEST(GreedyTest, StopsOnRequest) {
  int calls = 0;
  auto eval = [&](const std::vector<size_t>&) -> Result<double> {
    ++calls;
    return 100.0 - calls;
  };
  auto stop = [&]() { return calls >= 3; };
  GreedyResult r = GreedySearch(100, 1, 100, 100,
                                EvaluateEach(eval, nullptr, stop), stop);
  EXPECT_LE(r.evaluations, 4u);
}

// ---------------------------------------------------------- reduced stats

stats::StatsKey K(std::vector<std::string> cols) {
  return stats::StatsKey("db", "t", std::move(cols));
}

TEST(ReducedStatsTest, PaperExample3) {
  // S = {(A), (B), (A,B), (B,A), (A,B,C)}  ==>  create {(A,B,C), (B)}.
  std::set<stats::StatsKey> requested = {K({"a"}), K({"b"}), K({"a", "b"}),
                                         K({"b", "a"}), K({"a", "b", "c"})};
  StatsCreationPlan plan = PlanReducedStatistics(requested);
  EXPECT_EQ(plan.naive_count, 5u);
  ASSERT_EQ(plan.to_create.size(), 2u);
  // Greedy picks (A,B,C) first (covers H:a and D:{a},{ab},{abc}), then (B)
  // or (B,A) — both cover H:b and D:{b}; (B,A)'s extra density {a,b} is
  // already covered so the tie-break prefers the wider one.
  EXPECT_EQ(plan.to_create[0].columns,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(plan.to_create[1].columns[0], "b");
}

TEST(ReducedStatsTest, DensityOrderInsensitive) {
  // (A,B) and (B,A) need two creations (two histograms) but either one
  // covers both density sets.
  std::set<stats::StatsKey> requested = {K({"a", "b"}), K({"b", "a"})};
  StatsCreationPlan plan = PlanReducedStatistics(requested);
  EXPECT_EQ(plan.to_create.size(), 2u);

  // With histogram on A already present via existing stats, only (B,...)
  // is created.
  stats::Statistics existing;
  existing.key = K({"a", "b"});
  existing.prefix_distinct = {10, 100};
  StatsCreationPlan plan2 =
      PlanReducedStatistics(requested, {&existing});
  ASSERT_EQ(plan2.to_create.size(), 1u);
  EXPECT_EQ(plan2.to_create[0].columns[0], "b");
}

TEST(ReducedStatsTest, EmptyAndSingleton) {
  EXPECT_TRUE(PlanReducedStatistics({}).to_create.empty());
  StatsCreationPlan p = PlanReducedStatistics({K({"x"})});
  ASSERT_EQ(p.to_create.size(), 1u);
  EXPECT_EQ(p.naive_count, 1u);
}

TEST(ReducedStatsTest, PrefixSubsumption) {
  // (A) and (A,B): creating (A,B) covers everything.
  std::set<stats::StatsKey> requested = {K({"a"}), K({"a", "b"})};
  StatsCreationPlan plan = PlanReducedStatistics(requested);
  ASSERT_EQ(plan.to_create.size(), 1u);
  EXPECT_EQ(plan.to_create[0].columns,
            (std::vector<std::string>{"a", "b"}));
}

// --------------------------------------------------------- column groups

workload::Workload MakeGroupWorkload() {
  // 10 expensive statements touch (a,b); 1 cheap statement touches (c).
  workload::Workload w;
  for (int i = 0; i < 10; ++i) {
    auto s = sql::ParseStatement(
        StrFormat("SELECT a FROM t WHERE a = %d AND b < 5", i));
    w.Add(std::move(s).value());
  }
  auto cheap = sql::ParseStatement("SELECT a FROM t WHERE c = 1");
  w.Add(std::move(cheap).value());
  return w;
}

catalog::Catalog MakeGroupCatalog() {
  TableSchema t("t", {{"a", ColumnType::kInt, 8},
                      {"b", ColumnType::kInt, 8},
                      {"c", ColumnType::kInt, 8}});
  t.set_row_count(10000);
  catalog::Database db("db");
  EXPECT_TRUE(db.AddTable(t).ok());
  catalog::Catalog cat;
  EXPECT_TRUE(cat.AddDatabase(std::move(db)).ok());
  return cat;
}

TEST(ColumnGroupsTest, FrequentGroupsSurvive) {
  catalog::Catalog cat = MakeGroupCatalog();
  workload::Workload w = MakeGroupWorkload();
  std::vector<double> costs(w.size(), 1.0);
  auto groups = ComputeInterestingColumnGroups(w, costs, cat, 0.2, 3);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_TRUE(groups->Contains("db", "t", {"a"}));
  EXPECT_TRUE(groups->Contains("db", "t", {"b"}));
  EXPECT_TRUE(groups->Contains("db", "t", {"a", "b"}));
  EXPECT_TRUE(groups->Contains("db", "t", {"b", "a"}));  // set semantics
  // The cheap column is below 20% of workload cost.
  EXPECT_FALSE(groups->Contains("db", "t", {"c"}));
  EXPECT_FALSE(groups->Contains("db", "t", {"a", "c"}));
}

TEST(ColumnGroupsTest, CostWeightingMatters) {
  catalog::Catalog cat = MakeGroupCatalog();
  workload::Workload w = MakeGroupWorkload();
  // Make the 'c' statement dominate by cost.
  std::vector<double> costs(w.size(), 1.0);
  costs.back() = 100.0;
  auto groups = ComputeInterestingColumnGroups(w, costs, cat, 0.2, 3);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->Contains("db", "t", {"c"}));
  EXPECT_FALSE(groups->Contains("db", "t", {"a"}));
}

TEST(ColumnGroupsTest, UnrestrictedAdmitsEverything) {
  auto groups = InterestingColumnGroups::Unrestricted();
  EXPECT_TRUE(groups.Contains("any", "thing", {"x", "y", "z"}));
}

TEST(ColumnGroupsTest, DisabledThresholdMeansUnrestricted) {
  catalog::Catalog cat = MakeGroupCatalog();
  workload::Workload w = MakeGroupWorkload();
  std::vector<double> costs(w.size(), 1.0);
  auto groups = ComputeInterestingColumnGroups(w, costs, cat, 0.0, 3);
  ASSERT_TRUE(groups.ok());
  EXPECT_TRUE(groups->unrestricted());
}

TEST(ColumnGroupsTest, AnalyzeStatementColumns) {
  catalog::Catalog cat = MakeGroupCatalog();
  auto stmt = sql::ParseStatement(
      "SELECT a FROM t WHERE b = 1 GROUP BY a ORDER BY a");
  auto usage = AnalyzeStatementColumns(*stmt, cat);
  ASSERT_TRUE(usage.ok());
  ASSERT_EQ(usage->tables.size(), 1u);
  EXPECT_EQ(usage->tables[0].columns.size(), 2u);  // a (group/order), b

  auto upd = sql::ParseStatement("UPDATE t SET c = 1 WHERE a = 2");
  auto uusage = AnalyzeStatementColumns(*upd, cat);
  ASSERT_TRUE(uusage.ok());
  ASSERT_EQ(uusage->tables.size(), 1u);
  EXPECT_EQ(uusage->tables[0].columns.count("a"), 1u);
}

// ------------------------------------------------------------- merging

TEST(MergingTest, MergeIndexes) {
  IndexDef a{.table = "t", .key_columns = {"x", "y"},
             .included_columns = {"p"}};
  IndexDef b{.table = "t", .key_columns = {"x", "z"},
             .included_columns = {"q"}};
  auto merged = MergeIndexes(a, b);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->key_columns, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(merged->included_columns, (std::vector<std::string>{"p", "q"}));

  // Different tables do not merge.
  IndexDef c{.table = "u", .key_columns = {"x"}};
  EXPECT_FALSE(MergeIndexes(a, c).has_value());
  // Clustered indexes do not merge.
  IndexDef d{.table = "t", .key_columns = {"x"}, .clustered = true};
  EXPECT_FALSE(MergeIndexes(a, d).has_value());
  // Width cap.
  IndexDef wide{.table = "t",
                .key_columns = {"c1", "c2", "c3", "c4", "c5", "c6"}};
  EXPECT_FALSE(MergeIndexes(a, wide).has_value());
  // Merging an index with itself yields nothing new.
  EXPECT_FALSE(MergeIndexes(a, a).has_value());
}

TEST(MergingTest, MergePartitionSchemes) {
  PartitionScheme a{.column = "d",
                    .boundaries = {sql::Value::Int(10), sql::Value::Int(30)}};
  PartitionScheme b{.column = "d",
                    .boundaries = {sql::Value::Int(20), sql::Value::Int(30)}};
  auto merged = MergePartitionSchemes(a, b);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->boundaries.size(), 3u);
  EXPECT_EQ(merged->boundaries[0].AsInt(), 10);
  EXPECT_EQ(merged->boundaries[1].AsInt(), 20);
  EXPECT_EQ(merged->boundaries[2].AsInt(), 30);

  PartitionScheme other{.column = "e", .boundaries = {sql::Value::Int(1)}};
  EXPECT_FALSE(MergePartitionSchemes(a, other).has_value());
  EXPECT_FALSE(MergePartitionSchemes(a, a).has_value());
}

}  // namespace
}  // namespace dta::tuner
