// Concurrency tests for parallel what-if costing: Tune() determinism at any
// thread count, thread-safe CostService under many-thread hammering (run
// under TSan in CI), and GreedySearch parallel/serial equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "dta/cost_service.h"
#include "dta/greedy.h"
#include "dta/tuning_session.h"
#include "sql/parser.h"
#include "workload/workload.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Builds a production server with two joinable tables and real data (the
// seed workload fixture of dta_session_test).
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

workload::Workload SeedWorkload() {
  const char* script =
      "SELECT o_price FROM orders WHERE o_id = 55;"
      "SELECT o_price FROM orders WHERE o_id = 120;"
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "SELECT i_qty FROM items WHERE i_part = 77;"
      "INSERT INTO orders (o_id, o_cust, o_date, o_price) VALUES "
      "(31000, 5, '1996-01-01', 10.5);"
      "UPDATE items SET i_qty = 3 WHERE i_part = 9";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

// Canonical names of every structure in a configuration, sorted.
std::vector<std::string> StructureNames(const Configuration& c) {
  std::vector<std::string> out;
  for (const auto& ix : c.indexes()) out.push_back(ix.CanonicalName());
  for (const auto& v : c.views()) out.push_back(v.CanonicalName());
  for (const auto& [table, scheme] : c.table_partitioning()) {
    out.push_back("tp:" + table + ":" + scheme.CanonicalString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<TuningResult> TuneWithThreads(const TuningOptions& base_options,
                                     int threads) {
  auto prod = MakeProduction();
  TuningOptions opts = base_options;
  opts.num_threads = threads;
  TuningSession session(prod.get(), opts);
  return session.Tune(SeedWorkload());
}

// ------------------------------------------------------------ determinism

TEST(ParallelTuningTest, FourThreadsMatchSerialRecommendation) {
  auto serial = TuneWithThreads(TuningOptions(), 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = TuneWithThreads(TuningOptions(), 4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(serial->threads_used, 1);
  EXPECT_EQ(parallel->threads_used, 4);
  // Bit-identical costs: every cached cost comes from the same
  // deterministic what-if computation and reductions run in statement
  // order regardless of thread count.
  EXPECT_EQ(serial->current_cost, parallel->current_cost);
  EXPECT_EQ(serial->recommended_cost, parallel->recommended_cost);
  EXPECT_EQ(StructureNames(serial->recommendation),
            StructureNames(parallel->recommendation));
  EXPECT_EQ(serial->enumeration_evaluations,
            parallel->enumeration_evaluations);
  EXPECT_EQ(serial->candidates_generated, parallel->candidates_generated);
  ASSERT_EQ(serial->report.statements.size(),
            parallel->report.statements.size());
  for (size_t i = 0; i < serial->report.statements.size(); ++i) {
    EXPECT_EQ(serial->report.statements[i].current_cost,
              parallel->report.statements[i].current_cost);
    EXPECT_EQ(serial->report.statements[i].recommended_cost,
              parallel->report.statements[i].recommended_cost);
  }
}

TEST(ParallelTuningTest, DeterministicAcrossPresetsAndThreadCounts) {
  std::vector<TuningOptions> presets = {TuningOptions::IndexesOnly(),
                                        TuningOptions::IndexesAndViews()};
  TuningOptions aligned;
  aligned.require_alignment = true;
  presets.push_back(aligned);
  for (size_t p = 0; p < presets.size(); ++p) {
    auto serial = TuneWithThreads(presets[p], 1);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int threads : {2, 4}) {
      auto parallel = TuneWithThreads(presets[p], threads);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(serial->current_cost, parallel->current_cost)
          << "preset " << p << " threads " << threads;
      EXPECT_EQ(serial->recommended_cost, parallel->recommended_cost)
          << "preset " << p << " threads " << threads;
      EXPECT_EQ(StructureNames(serial->recommendation),
                StructureNames(parallel->recommendation))
          << "preset " << p << " threads " << threads;
    }
  }
}

// ------------------------------------------------------------ stress

// Hammers one CostService from many threads over a grid of statements and
// configurations; verifies every returned cost against a serial reference
// service, that the hit/miss counters are consistent (no lost updates), and
// that no missing-statistics record is dropped.
TEST(CostServiceStressTest, ConcurrentStatementCostIsConsistent) {
  auto prod = MakeProduction();
  workload::Workload w = SeedWorkload();

  // A small family of configurations differing in relevant structures.
  std::vector<Configuration> configs;
  configs.push_back(Configuration());
  {
    Configuration c;
    ASSERT_TRUE(
        c.AddIndex(IndexDef{.table = "orders", .key_columns = {"o_id"}})
            .ok());
    configs.push_back(c);
  }
  {
    Configuration c;
    ASSERT_TRUE(c.AddIndex(IndexDef{.table = "orders",
                                    .key_columns = {"o_date"},
                                    .included_columns = {"o_cust"}})
                    .ok());
    configs.push_back(c);
  }
  {
    Configuration c;
    ASSERT_TRUE(
        c.AddIndex(IndexDef{.table = "items", .key_columns = {"i_part"}})
            .ok());
    configs.push_back(c);
  }
  {
    Configuration c;
    ASSERT_TRUE(
        c.AddIndex(IndexDef{.table = "orders", .key_columns = {"o_cust"}})
            .ok());
    ASSERT_TRUE(c.AddIndex(IndexDef{.table = "items",
                                    .key_columns = {"i_oid"},
                                    .included_columns = {"i_qty"}})
                    .ok());
    configs.push_back(c);
  }

  // Serial reference: costs and the missing-statistics set.
  CostService reference(prod.get(), nullptr, &w);
  std::vector<std::vector<double>> expected(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    for (const Configuration& c : configs) {
      auto r = reference.StatementCost(i, c);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected[i].push_back(*r);
    }
  }
  const std::set<stats::StatsKey> expected_missing =
      reference.missing_stats();
  ASSERT_FALSE(expected_missing.empty());

  CostService service(prod.get(), nullptr, &w);
  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t n = 0; n < w.size() * configs.size(); ++n) {
          // Each thread walks the grid with a different stride/offset so
          // cold misses, racing misses and hits all occur.
          size_t pos = (n * (t + 1) + round) % (w.size() * configs.size());
          size_t i = pos % w.size();
          size_t j = pos / w.size();
          auto r = service.StatementCost(i, configs[j]);
          if (!r.ok() || *r != expected[i][j]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  const size_t total_requests =
      static_cast<size_t>(kThreads) * kRounds * w.size() * configs.size();
  // Every request is accounted exactly once, as a hit or a what-if call.
  EXPECT_EQ(service.cache_hits() + service.whatif_calls(), total_requests);
  // Racing cold misses are deduplicated in-flight: a (statement,
  // fingerprint) pair is priced exactly once, so the hammered service's
  // call count equals the serial reference's exactly.
  EXPECT_EQ(service.whatif_calls(), reference.whatif_calls());
  // No missing-statistics record may be lost.
  EXPECT_EQ(service.missing_stats(), expected_missing);
}

// Same hammering through WorkloadCost batches racing on the pool's threads
// in the test-server scenario, exercising the simulated-hardware optimizer
// path: every batch claims, shares or waits on the same cold pairs.
TEST(CostServiceStressTest, ParallelWorkloadCostMatchesSerial) {
  auto prod = MakeProduction();
  auto test = server::Server::FromMetadataScript(
      prod->ScriptMetadata(), "test", optimizer::HardwareParams());
  ASSERT_TRUE(test.ok()) << test.status().ToString();
  workload::Workload w = SeedWorkload();

  Configuration config;
  ASSERT_TRUE(
      config
          .AddIndex(IndexDef{.table = "orders", .key_columns = {"o_date"}})
          .ok());

  CostService serial((*test).get(), &prod->hardware(), &w);
  auto serial_current = serial.WorkloadCost(Configuration());
  auto serial_config = serial.WorkloadCost(config);
  ASSERT_TRUE(serial_current.ok());
  ASSERT_TRUE(serial_config.ok());

  ThreadPool pool(7);
  CostService parallel((*test).get(), &prod->hardware(), &w);
  constexpr size_t kBatches = 24;
  std::vector<Result<double>> totals(kBatches, Status::Internal("unset"));
  ParallelFor(&pool, kBatches, [&](size_t b) {
    totals[b] = parallel.WorkloadCost(b % 2 == 0 ? Configuration() : config);
  });
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(totals[b].ok()) << totals[b].status().ToString();
    EXPECT_EQ(*totals[b], b % 2 == 0 ? *serial_current : *serial_config);
  }
  EXPECT_EQ(parallel.whatif_calls(), serial.whatif_calls());
  EXPECT_EQ(parallel.missing_stats(), serial.missing_stats());
}

// ------------------------------------------------------------ time limit

// A time budget too small for even the current-cost pass must stop the
// parallel phases mid-flight (workers check the deadline between tasks),
// not run them to completion: tuning still returns a well-formed result
// with the limit flagged.
TEST(ParallelTuningTest, TinyTimeBudgetStopsMidPhase) {
  auto unlimited = TuneWithThreads(TuningOptions(), 4);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  EXPECT_FALSE(unlimited->hit_time_limit);

  TuningOptions opts;
  opts.time_limit_ms = 0.01;
  auto limited = TuneWithThreads(opts, 4);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_TRUE(limited->hit_time_limit);
  // The search phases were cancelled, so the run retires far fewer what-if
  // calls than the unlimited one.
  EXPECT_LT(limited->whatif_calls, unlimited->whatif_calls);
  EXPECT_EQ(limited->enumeration_evaluations, 0u);
}

// ------------------------------------------------------------ greedy

TEST(ParallelGreedyTest, PoolSearchMatchesSerialSearch) {
  constexpr size_t kCandidates = 24;
  // Deterministic, thread-safe objective with interactions and an
  // infeasible region.
  auto eval = [](const std::vector<size_t>& subset) -> Result<double> {
    double cost = 1000;
    for (size_t i : subset) {
      if (i % 7 == 3 && subset.size() > 2) {
        return Status::OutOfRange("infeasible");
      }
      cost -= 150.0 / (1.0 + static_cast<double>(i));
    }
    // Diminishing returns for larger subsets.
    cost += 10.0 * static_cast<double>(subset.size() * subset.size());
    return cost;
  };

  for (int m : {1, 2}) {
    GreedyResult serial = GreedySearch(kCandidates, m, 6, 1000,
                                       EvaluateEach(eval), nullptr, 1e-4);
    ThreadPool pool(4);
    GreedyResult parallel = GreedySearch(
        kCandidates, m, 6, 1000, EvaluateEach(eval, &pool), nullptr, 1e-4);
    EXPECT_EQ(serial.chosen, parallel.chosen) << "m=" << m;
    EXPECT_EQ(serial.cost, parallel.cost) << "m=" << m;
    EXPECT_EQ(serial.evaluations, parallel.evaluations) << "m=" << m;
  }
}

}  // namespace
}  // namespace dta::tuner
