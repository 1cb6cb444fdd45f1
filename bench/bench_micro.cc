// Component micro-benchmarks (google-benchmark): parser, signatures,
// histogram construction and estimation, what-if optimizer calls, the cost
// lookup path (a cache hit, building a configuration from candidates),
// workload compression, Greedy(m,k), XML round trips, and the
// serial-vs-parallel tuning pipeline.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/strings.h"
#include "dta/candidates.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/greedy.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "sql/parser.h"
#include "sql/signature.h"
#include "stats/builder.h"
#include "storage/datagen.h"
#include "workload/compression.h"
#include "workloads/tpch.h"

namespace dta {
namespace {

const char* kJoinQuery =
    "SELECT o_custkey, SUM(l_extendedprice * (1 - l_discount)) FROM "
    "customer, orders, lineitem WHERE c_custkey = o_custkey AND l_orderkey "
    "= o_orderkey AND o_orderdate < '1995-03-15' AND l_shipdate > "
    "'1995-03-15' GROUP BY o_custkey ORDER BY o_custkey";

void BM_ParseStatement(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::ParseStatement(kJoinQuery);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseStatement);

void BM_SignatureHash(benchmark::State& state) {
  auto stmt = sql::ParseStatement(kJoinQuery);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::SignatureHash(*stmt));
  }
}
BENCHMARK(BM_SignatureHash);

void BM_HistogramBuild(benchmark::State& state) {
  Random rng(1);
  std::vector<sql::Value> values;
  for (int i = 0; i < state.range(0); ++i) {
    values.push_back(sql::Value::Int(rng.Uniform(0, 100000)));
  }
  for (auto _ : state) {
    auto h = stats::Histogram::Build(values, 1.0);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramBuild)->Arg(1000)->Arg(50000);

void BM_HistogramEstimate(benchmark::State& state) {
  Random rng(1);
  std::vector<sql::Value> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(sql::Value::Int(rng.Uniform(0, 100000)));
  }
  auto h = stats::Histogram::Build(std::move(values), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.EstimateRange(
        sql::Value::Int(1000), true, sql::Value::Int(60000), false));
  }
}
BENCHMARK(BM_HistogramEstimate);

// What-if optimizer call on the TPC-H catalog (metadata-only, SF 1).
class WhatIfFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (server_ != nullptr) return;
    server_ = std::make_unique<server::Server>(
        "prod", optimizer::HardwareParams());
    Status st = workloads::AttachTpch(server_.get(), 1.0, false, 7);
    (void)st;
    stmt_ = std::make_unique<sql::Statement>(
        std::move(sql::ParseStatement(kJoinQuery)).value());
    config_ = workloads::TpchRawConfiguration();
    catalog::IndexDef ix;
    ix.table = "lineitem";
    ix.key_columns = {"l_shipdate"};
    ix.included_columns = {"l_extendedprice", "l_discount", "l_orderkey"};
    Status s2 = config_.AddIndex(std::move(ix));
    (void)s2;
  }
  static std::unique_ptr<server::Server> server_;
  static std::unique_ptr<sql::Statement> stmt_;
  static catalog::Configuration config_;
};
std::unique_ptr<server::Server> WhatIfFixture::server_;
std::unique_ptr<sql::Statement> WhatIfFixture::stmt_;
catalog::Configuration WhatIfFixture::config_;

BENCHMARK_F(WhatIfFixture, WhatIfCostJoinQuery)(benchmark::State& state) {
  for (auto _ : state) {
    auto r = server_->WhatIfCost(*stmt_, config_);
    benchmark::DoNotOptimize(r);
  }
}

// The cost lookup path on the TPC-H join above (SF 0.25, statistics only):
// its candidates come from the statement's own candidate generation. Built
// once and shared by the lookup rows.
class LookupFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (server_ != nullptr) return;
    server_ = std::make_unique<server::Server>(
        "prod", optimizer::HardwareParams());
    Status st = workloads::AttachTpch(server_.get(), 0.25, false, 7);
    (void)st;
    workload_ = std::make_unique<workload::Workload>();
    workload_->Add(std::move(sql::ParseStatement(kJoinQuery)).value());
    auto generated = tuner::GenerateCandidatesForStatement(
        workload_->statements()[0].stmt, server_.get(),
        tuner::InterestingColumnGroups::Unrestricted(),
        tuner::TuningOptions());
    if (generated.ok()) pool_ = std::move(generated).value();
  }
  // The first `indexes` nonclustered index candidates, the first `views`
  // view candidates, and (when `extras`) the first clustered index and
  // partitioning candidates; none already in the raw design.
  static std::vector<const tuner::Candidate*> Pick(size_t indexes,
                                                   size_t views,
                                                   bool extras) {
    const catalog::Configuration raw = workloads::TpchRawConfiguration();
    std::vector<const tuner::Candidate*> out;
    bool clustered = false, partitioning = false;
    for (const tuner::Candidate& c : pool_) {
      if (raw.ContainsStructure(c.name)) continue;
      switch (c.kind) {
        case tuner::Candidate::Kind::kIndex:
          if (!c.index.clustered && indexes > 0) {
            --indexes;
            out.push_back(&c);
          } else if (c.index.clustered && extras && !clustered) {
            clustered = true;
            out.push_back(&c);
          }
          break;
        case tuner::Candidate::Kind::kView:
          if (views > 0) {
            --views;
            out.push_back(&c);
          }
          break;
        case tuner::Candidate::Kind::kTablePartitioning:
          if (extras && !partitioning) {
            partitioning = true;
            out.push_back(&c);
          }
          break;
      }
    }
    return out;
  }
  static std::unique_ptr<server::Server> server_;
  static std::unique_ptr<workload::Workload> workload_;
  static std::vector<tuner::Candidate> pool_;
};
std::unique_ptr<server::Server> LookupFixture::server_;
std::unique_ptr<workload::Workload> LookupFixture::workload_;
std::vector<tuner::Candidate> LookupFixture::pool_;

// One cost-cache hit: the relevance walk, its fingerprint and the cache
// probe, under the raw design plus 4 candidate indexes and 2 candidate views.
BENCHMARK_F(LookupFixture, StatementCostCacheHit)(benchmark::State& state) {
  auto config = tuner::BuildConfiguration(workloads::TpchRawConfiguration(),
                                          Pick(4, 2, false), false);
  if (!config.ok()) {
    state.SkipWithError(config.status().ToString().c_str());
    return;
  }
  tuner::CostService costs(server_.get(), nullptr, workload_.get());
  auto warm = costs.StatementCost(0, *config);  // the one miss
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = costs.StatementCost(0, *config);
    benchmark::DoNotOptimize(r);
  }
  state.counters["structures"] =
      static_cast<double>(config->StructureCount());
}

// Building one configuration from the raw design and 8 candidates: 5
// indexes (one clustered), 2 views and a table partitioning, unaligned.
BENCHMARK_F(LookupFixture, BuildConfiguration8)(benchmark::State& state) {
  const catalog::Configuration base = workloads::TpchRawConfiguration();
  const std::vector<const tuner::Candidate*> chosen = Pick(4, 2, true);
  for (auto _ : state) {
    auto config = tuner::BuildConfiguration(base, chosen, false);
    benchmark::DoNotOptimize(config);
  }
  state.counters["candidates"] = static_cast<double>(chosen.size());
}

void BM_WorkloadCompression(benchmark::State& state) {
  Random rng(3);
  workload::Workload w;
  for (int i = 0; i < state.range(0); ++i) {
    auto stmt = sql::ParseStatement(StrFormat(
        "SELECT a FROM t%d WHERE k = %lld", i % 20,
        static_cast<long long>(rng.Uniform(1, 100000))));
    w.Add(std::move(stmt).value());
  }
  for (auto _ : state) {
    auto c = workload::CompressWorkload(w);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_WorkloadCompression)->Arg(1000)->Arg(5000);

void BM_GreedySearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto eval = [n](const std::vector<size_t>& subset) -> Result<double> {
    double cost = 1000;
    for (size_t i : subset) {
      cost -= 100.0 / (1.0 + static_cast<double>(i));
    }
    return cost;
  };
  for (auto _ : state) {
    auto r = tuner::GreedySearch(n, 1, 10, 1000, tuner::EvaluateEach(eval));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GreedySearch)->Arg(32)->Arg(128);

// End-to-end tuning pipeline on the TPC-H workload, serial vs parallel
// what-if costing. Wall-clock (real time) is the quantity of interest: on a
// 4-core runner Threads:4 should be >= 2x faster than Threads:1, with an
// identical recommendation. The server is shared across runs, so statistics
// creation happens once and iterations measure the costing-dominated
// pipeline.
class TuneTpchFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    // Fresh server per run: tuning creates statistics on the server, so a
    // shared instance would hand later runs a different starting state and
    // make the serial/parallel improvement numbers incomparable.
    server_ = std::make_unique<server::Server>(
        "prod", optimizer::HardwareParams());
    Status st = workloads::AttachTpch(server_.get(), 0.05,
                                      /*with_data=*/false, 7);
    (void)st;
    Status s2 = server_->ImplementConfiguration(
        workloads::TpchRawConfiguration());
    (void)s2;
    workload_ = std::make_unique<workload::Workload>(
        workloads::TpchQueriesPrefix(12, 42));
    // Untimed warm-up tune so every timed iteration starts from the same
    // statistics-warm server.
    tuner::TuningSession warmup(server_.get(), tuner::TuningOptions{});
    (void)warmup.Tune(*workload_);
  }
  void TearDown(const benchmark::State&) override {
    workload_.reset();
    server_.reset();
  }
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<workload::Workload> workload_;
};

BENCHMARK_DEFINE_F(TuneTpchFixture, TunePipeline)(benchmark::State& state) {
  tuner::TuningOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  double improvement = 0;
  for (auto _ : state) {
    tuner::TuningSession session(server_.get(), opts);
    auto r = session.Tune(*workload_);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    improvement = r->ImprovementPercent();
    benchmark::DoNotOptimize(r);
  }
  state.counters["improvement_pct"] = improvement;
}
BENCHMARK_REGISTER_F(TuneTpchFixture, TunePipeline)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_XmlConfigurationRoundTrip(benchmark::State& state) {
  catalog::Configuration config = workloads::TpchRawConfiguration();
  for (auto _ : state) {
    auto elem = tuner::ConfigurationToXml(config);
    auto parsed = tuner::ConfigurationFromXml(*elem);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_XmlConfigurationRoundTrip);

}  // namespace
}  // namespace dta

BENCHMARK_MAIN();
