// End-to-end observability: a tuned session exports a deterministic
// metrics/span document. The golden property is byte-identity — the same
// workload under a FakeClock must produce the identical ObservabilityJson
// at 1 and at 8 threads, which pins down both the thread-invariance of
// every registered metric (whatif.calls dedup, integer-accrued histograms)
// and the session-thread-only span tree.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dta/cost_service.h"
#include "dta/tenant_driver.h"
#include "dta/tuning_session.h"
#include "workload/workload.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// The two-table shop fixture shared with the parallel-tuning tests.
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

// Another workload over the same tables, whose aggregates yield view
// candidates other than the seed workload's.
workload::Workload OtherViewWorkload() {
  const char* script =
      "SELECT i_part, SUM(i_qty) FROM items WHERE i_part < 500 "
      "GROUP BY i_part;"
      "SELECT o_date, MAX(o_price) FROM orders WHERE o_cust < 100 "
      "GROUP BY o_date;"
      "SELECT o_date, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "AND i_part < 50 GROUP BY o_date";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

struct ObservedRun {
  std::string json;
  std::vector<Tracer::SpanView> spans;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  TuningResult result;
};

// Tunes the seed workload (or `workload`) with full observability attached:
// a FakeClock (frozen — never advanced — so every duration is exactly
// 0.000), a span tracer, and a metrics registry, optionally with
// checkpointing on.
ObservedRun TuneObserved(int threads, const std::string& checkpoint_path,
                         bool derived_costing = true,
                         const workload::Workload& workload = SeedWorkload()) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.num_threads = threads;
  opts.checkpoint_path = checkpoint_path;
  opts.derived_costing = derived_costing;
  TuningSession session(prod.get(), opts);

  MetricsRegistry metrics;
  FakeClock clock(1000.0);
  Tracer tracer(&clock);
  session.SetObservability({&metrics, &tracer, &clock});

  auto result = session.Tune(workload);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  ObservedRun run;
  run.json = ObservabilityJson(metrics, &tracer);
  run.spans = tracer.Spans();
  run.counters = metrics.CounterValues();
  run.histograms = metrics.HistogramValues();
  if (result.ok()) run.result = std::move(result).value();
  return run;
}

// ------------------------------------------------------- golden identity

TEST(ObservabilityGoldenTest, ExportIsByteIdenticalAtOneAndEightThreads) {
  const std::string dir = ::testing::TempDir();
  ObservedRun serial = TuneObserved(1, dir + "obs_golden_1.xml");
  ObservedRun parallel = TuneObserved(8, dir + "obs_golden_8.xml");

  // The whole document — counters, gauges, histogram buckets, span tree,
  // every formatted duration — byte for byte.
  EXPECT_EQ(serial.json, parallel.json);

  // And it is a real run, not a vacuous empty export.
  EXPECT_GT(serial.counters.at("whatif.calls"), 0u);
  EXPECT_GT(serial.counters.at("optimizer.statements_costed"), 0u);
  EXPECT_GT(serial.counters.at("enumeration.evaluations"), 0u);
  EXPECT_GT(serial.counters.at("checkpoint.writes"), 0u);
  EXPECT_NE(serial.json.find("\"schema\": \"dta-observability-v1\""),
            std::string::npos);
}

// Between the compared runs, a session over other view candidates builds
// and frees its own view definitions. Nothing may carry over into the second
// run — e.g. a memo keyed on a freed definition's address, which a new
// definition can reuse — with derived costing on or off.
TEST(ObservabilityGoldenTest, RepeatedRunsAreByteIdentical) {
  for (bool derived : {true, false}) {
    ObservedRun a = TuneObserved(2, "", derived);
    ObservedRun other = TuneObserved(2, "", derived, OtherViewWorkload());
    ObservedRun b = TuneObserved(2, "", derived);
    EXPECT_EQ(a.json, b.json) << "derived_costing=" << derived;
    EXPECT_NE(other.json, a.json) << "derived_costing=" << derived;
  }
}

// ------------------------------------------------------- span coverage

TEST(ObservabilityTest, SpanTreeCoversEveryPipelinePhase) {
  const std::string dir = ::testing::TempDir();
  ObservedRun run = TuneObserved(2, dir + "obs_spans.xml");

  std::set<std::string> names;
  for (const auto& s : run.spans) names.insert(s.name);
  // The paper's pipeline: current-cost pass, then the four search phases
  // (candidate generation, selection, merging, enumeration), plus the
  // supporting stages and the interleaved checkpoint writes.
  for (const char* phase :
       {"tune", "compression", "current_cost", "column_groups",
        "candidate_generation", "candidate_selection", "merging",
        "enumeration", "report", "checkpoint"}) {
    EXPECT_EQ(names.count(phase), 1u) << "missing span: " << phase;
  }

  // "tune" is the root; the pipeline phases are its direct children; no
  // span leaks open past Tune()'s return.
  ASSERT_FALSE(run.spans.empty());
  EXPECT_EQ(run.spans[0].name, "tune");
  EXPECT_EQ(run.spans[0].depth, 0);
  for (const auto& s : run.spans) {
    EXPECT_GE(s.duration_ms, 0.0) << s.name << " left open";
    // Frozen FakeClock: every measured duration is exactly zero.
    EXPECT_EQ(s.duration_ms, 0.0) << s.name;
    if (s.name == "current_cost" || s.name == "enumeration" ||
        s.name == "merging") {
      EXPECT_EQ(s.depth, 1) << s.name;
    }
  }
}

// ------------------------------------------------------- metric semantics

TEST(ObservabilityTest, WhatIfCountersReconcileWithSessionResult) {
  ObservedRun run = TuneObserved(4, "");

  // The registry's view and TuningResult's view of the same run agree.
  EXPECT_EQ(run.counters.at("whatif.calls"), run.result.whatif_calls);
  EXPECT_EQ(run.counters.at("enumeration.evaluations"),
            run.result.enumeration_evaluations);
  EXPECT_EQ(run.counters.at("candidates.generated"),
            run.result.candidates_generated);
  // Every cache lookup is accounted exactly once: a hit, a real pricing, or
  // a miss answered by cost derivation.
  EXPECT_EQ(run.counters.at("whatif.lookups"),
            run.counters.at("whatif.cache_hits") +
                run.counters.at("whatif.calls") +
                run.counters.at("whatif.calls_saved"));
  // One latency observation per claimed miss (real pricings and derived
  // answers both); frozen clock means an all-zero latency sum in the export.
  const HistogramSnapshot& latency = run.histograms.at("whatif.latency_ms");
  EXPECT_EQ(latency.count, run.counters.at("whatif.calls") +
                               run.counters.at("whatif.derived_answers"));
  EXPECT_EQ(latency.sum_micros, 0u);
  // A fault-free run retries and degrades nothing.
  EXPECT_EQ(run.counters.at("whatif.retries"), 0u);
  EXPECT_EQ(run.counters.at("whatif.degraded_calls"), 0u);
}

// dedup_waits is scheduling-dependent (how often racing threads collide on
// a cold cache pair), so it must stay OUT of the registry — its presence
// would break the 1-vs-8-thread byte identity the golden test pins.
TEST(ObservabilityTest, SchedulingDependentQuantitiesAreNotExported) {
  ObservedRun run = TuneObserved(8, "");
  EXPECT_EQ(run.counters.count("whatif.dedup_waits"), 0u);
  EXPECT_EQ(run.json.find("dedup"), std::string::npos);
}

// --------------------------------------------------- multi-tenant export

// Runs a two-tenant fleet with a shared registry and returns the merged
// export. Each tenant profiles into a private registry merged after the
// joins under "tenant.<name>.", so the merged document inherits each
// tenant's thread-invariance.
std::string TuneTenantsObserved(int threads) {
  workload::Workload w0 = SeedWorkload();
  auto w1r = workload::Workload::FromScript(
      "SELECT i_qty FROM items WHERE i_part = 5;"
      "SELECT o_id FROM orders WHERE o_price > 500;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust");
  EXPECT_TRUE(w1r.ok()) << w1r.status().ToString();
  workload::Workload w1 = std::move(w1r).value();

  auto s0 = MakeProduction();
  auto s1 = MakeProduction();

  std::vector<TenantSpec> specs(2);
  specs[0].name = "alpha";
  specs[0].workload = &w0;
  specs[0].options.num_threads = threads;
  specs[1].name = "beta";
  specs[1].workload = &w1;
  specs[1].options.num_threads = threads;

  MetricsRegistry merged;
  FakeClock clock(1000.0);
  TenantDriverOptions options;
  options.metrics = &merged;
  options.clock = &clock;
  options.admission.total_capacity = 4;
  options.admission.per_tenant_capacity = 2;
  TenantDriver driver(options);
  auto outcomes = driver.Run(specs, {s0.get(), s1.get()});
  EXPECT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  if (outcomes.ok()) {
    for (const auto& o : *outcomes) {
      EXPECT_TRUE(o.status.ok()) << o.name << ": " << o.status.ToString();
    }
    // Namespacing: each tenant's deterministic counters appear under its
    // own prefix and reconcile with its session result.
    const auto counters = merged.CounterValues();
    EXPECT_EQ(counters.at("tenant.alpha.whatif.calls"),
              (*outcomes)[0].result.whatif_calls);
    EXPECT_EQ(counters.at("tenant.beta.whatif.calls"),
              (*outcomes)[1].result.whatif_calls);
  }
  return ObservabilityJson(merged, nullptr);
}

// The golden property, one level up: the merged --metrics-json document of
// a two-tenant fleet is byte-identical at any per-tenant thread count.
// (Admission waits and peaks are scheduling-dependent and stay out of the
// registry, same as dedup_waits.)
TEST(ObservabilityGoldenTest, MultiTenantExportIsByteIdenticalAcrossThreads) {
  const std::string serial = TuneTenantsObserved(1);
  const std::string parallel = TuneTenantsObserved(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("tenant.alpha.whatif.calls"), std::string::npos);
  EXPECT_NE(serial.find("tenant.beta.whatif.calls"), std::string::npos);
  EXPECT_EQ(serial.find("admission"), std::string::npos);
  EXPECT_EQ(serial.find("dedup"), std::string::npos);
}

// ------------------------------------------------------- concurrency (TSan)

// Hammers a metrics-attached CostService from many threads: the profiling
// hot path (counter increments, histogram observes on the shared handles)
// must be data-race-free and must not perturb the thread-invariant call
// accounting. Runs under TSan in CI.
TEST(ObservabilityStressTest, MetricsAttachedCostServiceIsRaceFree) {
  auto prod = MakeProduction();
  workload::Workload w = SeedWorkload();

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
    ASSERT_TRUE(
        c.AddIndex(IndexDef{.table = "items", .key_columns = {"i_part"}})
            .ok());
    configs.push_back(c);
  }

  MetricsRegistry metrics;
  FakeClock clock;
  CostService::Config config;
  config.metrics = &metrics;
  config.clock = &clock;
  CostService service(prod.get(), nullptr, &w, std::move(config));

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t n = 0; n < w.size() * configs.size(); ++n) {
          size_t pos = (n * (t + 1) + round) % (w.size() * configs.size());
          auto r = service.StatementCost(pos % w.size(),
                                         configs[pos / w.size()]);
          if (!r.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto counters = metrics.CounterValues();
  EXPECT_EQ(counters.at("whatif.calls"), service.whatif_calls());
  EXPECT_EQ(counters.at("whatif.cache_hits"), service.cache_hits());
  EXPECT_EQ(counters.at("whatif.lookups"),
            service.whatif_calls() + service.cache_hits());
  EXPECT_EQ(metrics.HistogramValues().at("whatif.latency_ms").count,
            service.whatif_calls());
}

}  // namespace
}  // namespace dta::tuner
