// Golden pins for the optimizer's what-if output across the TPC-H workload.
//
// Every TPC-H query is priced under the raw design, the raw design plus the
// candidate pool GenerateCandidatesForStatement builds for that query, and
// each of those candidates alone, on a server with statistics and on one
// without (so that misses are recorded). One hash covers every call's cost
// bit pattern, WhatIfPlan's Describe() text, the sorted missing-statistics
// keys and the access paths the optimizer considered: a change to any plan,
// cost or statistics request changes it.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "dta/candidates.h"
#include "server/server.h"
#include "workloads/tpch.h"

namespace dta::tuner {
namespace {

constexpr double kScaleFactor = 0.25;
constexpr uint64_t kSeed = 42;

class OptimizerGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = std::make_unique<Env>();
    env_->queries = workloads::TpchQueries(kSeed);
    ASSERT_EQ(env_->queries.size(), 22u);
    env_->raw = workloads::TpchRawConfiguration();
    for (auto* s : {&env_->with_stats, &env_->bare}) {
      *s = std::make_unique<server::Server>("tpch",
                                            optimizer::HardwareParams());
      ASSERT_TRUE(workloads::AttachTpch(s->get(), kScaleFactor,
                                        /*with_data=*/false, 7)
                      .ok());
    }
    server::Server* stats_server = env_->with_stats.get();
    for (const auto& ws : env_->queries.statements()) {
      // Candidate generation creates the statistics its partitioning
      // proposals read; then every statistic the raw design wants.
      auto pool = GenerateCandidatesForStatement(
          ws.stmt, stats_server, InterestingColumnGroups::Unrestricted(),
          TuningOptions());
      ASSERT_TRUE(pool.ok()) << pool.status().ToString();
      env_->pools.push_back(std::move(pool).value());
      auto raw = stats_server->WhatIfCost(ws.stmt, env_->raw);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      for (const stats::StatsKey& key : raw->missing_stats) {
        ASSERT_TRUE(stats_server->GetOrCreateStatistics(key).ok());
      }
    }
  }

  static void TearDownTestSuite() { env_.reset(); }

  // The configurations each query is priced under.
  static std::vector<catalog::Configuration> ConfigurationsFor(size_t query) {
    std::vector<catalog::Configuration> out = {env_->raw, env_->raw};
    for (const Candidate& cand : env_->pools[query]) {
      // A candidate that conflicts with the pool so far stays out of it.
      (void)cand.ApplyTo(&out[1], /*aligned=*/false);
      catalog::Configuration alone;
      EXPECT_TRUE(cand.ApplyTo(&alone, /*aligned=*/false).ok()) << cand.name;
      out.push_back(std::move(alone));
    }
    return out;
  }

  struct Env {
    workload::Workload queries;
    catalog::Configuration raw;
    std::vector<std::vector<Candidate>> pools;
    std::unique_ptr<server::Server> with_stats;
    std::unique_ptr<server::Server> bare;
  };
  static std::unique_ptr<Env> env_;
};

std::unique_ptr<OptimizerGoldenTest::Env> OptimizerGoldenTest::env_;

TEST_F(OptimizerGoldenTest, TpchWhatIfOutputIsPinned) {
  uint64_t h = kFnvOffset;
  size_t calls = 0;
  for (server::Server* s : {env_->with_stats.get(), env_->bare.get()}) {
    MetricsRegistry metrics;
    s->SetMetrics(&metrics);
    const Counter* access_paths = metrics.GetCounter("optimizer.access_paths");
    for (size_t i = 0; i < env_->queries.size(); ++i) {
      const sql::Statement& stmt = env_->queries.statements()[i].stmt;
      for (const catalog::Configuration& config : ConfigurationsFor(i)) {
        const uint64_t paths_before = access_paths->value();
        auto cost = s->WhatIfCost(stmt, config);
        ASSERT_TRUE(cost.ok()) << cost.status().ToString();
        auto plan = s->WhatIfPlan(stmt.select(), config);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        h = HashCombine(h, std::bit_cast<uint64_t>(cost->cost));
        h = HashCombine(h, std::bit_cast<uint64_t>(plan->cost));
        h = HashBytes(plan->root->Describe(plan->bound), h);
        for (const stats::StatsKey& key : cost->missing_stats) {
          h = HashBytes(key.CanonicalString(), h);
        }
        h = HashCombine(h, access_paths->value() - paths_before);
        ++calls;
      }
    }
    s->SetMetrics(nullptr);
  }
  EXPECT_EQ(calls, 556u);
  EXPECT_EQ(h, 0x407e2b5323e52a10ull) << std::hex << h;
}

// The estimator's requests to the statistics per what-if call, for TPC-H
// Q5 and Q8 (six tables each) under the raw design. A call asks for each
// column's distinct count and each atom's histogram once; without the
// estimator's memo these read 224, 106, 233 and 118.
TEST_F(OptimizerGoldenTest, StatsLookupsPerCallArePinned) {
  struct Case {
    server::Server* server;
    size_t query;
    uint64_t lookups;
  };
  const Case cases[] = {
      {env_->with_stats.get(), 4, 15},
      {env_->with_stats.get(), 7, 14},
      {env_->bare.get(), 4, 16},
      {env_->bare.get(), 7, 16},
  };
  for (const Case& c : cases) {
    MetricsRegistry metrics;
    c.server->SetMetrics(&metrics);
    auto cost = c.server->WhatIfCost(
        env_->queries.statements()[c.query].stmt, env_->raw);
    c.server->SetMetrics(nullptr);
    ASSERT_TRUE(cost.ok()) << cost.status().ToString();
    EXPECT_EQ(metrics.GetCounter("optimizer.stats_lookups")->value(),
              c.lookups)
        << "Q" << c.query + 1
        << (c.server == env_->bare.get() ? " without statistics" : "");
  }
}

}  // namespace
}  // namespace dta::tuner
