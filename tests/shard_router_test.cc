// Sharded costing backend tests: rendezvous routing properties, the
// bounded in-flight window, and the headline determinism property — for
// random workloads and any shard count 1–8, recommendations, costs, and
// whatif_calls are byte-identical to the single-server baseline at any
// thread count (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "dta/cost_service.h"
#include "dta/rpc/channel.h"
#include "dta/shard_router.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "sql/parser.h"
#include "workload/workload.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Same production fixture as parallel_tuning_test: two joinable tables with
// real data. Every run gets a fresh server so runs never share state.
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

// A random workload over the fixture's schema: point lookups, range
// aggregates, a join, and occasional DML, with randomized literals so the
// candidate space differs run to run.
workload::Workload RandomWorkload(uint64_t seed) {
  Random rng(seed);
  const int count = static_cast<int>(rng.Uniform(4, 7));
  std::string script;
  for (int i = 0; i < count; ++i) {
    if (!script.empty()) script += ";";
    switch (rng.Uniform(0, 5)) {
      case 0:
        script += StrFormat("SELECT o_price FROM orders WHERE o_id = %d",
                            static_cast<int>(rng.Uniform(1, 30000)));
        break;
      case 1:
        script += StrFormat("SELECT i_qty FROM items WHERE i_part = %d",
                            static_cast<int>(rng.Uniform(1, 2000)));
        break;
      case 2:
        script += StrFormat(
            "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < "
            "'199%d-01-01' GROUP BY o_cust",
            static_cast<int>(rng.Uniform(4, 8)));
        break;
      case 3:
        script +=
            "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE "
            "o_id = i_oid GROUP BY o_cust";
        break;
      case 4:
        script += StrFormat("SELECT o_id FROM orders WHERE o_price > %d",
                            static_cast<int>(rng.Uniform(100, 9000)));
        break;
      default:
        script += StrFormat("UPDATE items SET i_qty = %d WHERE i_part = %d",
                            static_cast<int>(rng.Uniform(1, 50)),
                            static_cast<int>(rng.Uniform(1, 2000)));
        break;
    }
  }
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

// An in-process fleet: shard i prices on servers[i].
std::vector<std::unique_ptr<rpc::ShardChannel>> InprocFleet(
    const std::vector<server::Server*>& servers) {
  std::vector<std::unique_ptr<rpc::ShardChannel>> channels;
  for (server::Server* server : servers) {
    channels.push_back(std::make_unique<rpc::InprocChannel>(server));
  }
  return channels;
}

std::string RecommendationXml(const TuningResult& r) {
  return ConfigurationToXml(r.recommendation)->ToString();
}

Result<TuningResult> TuneSharded(const workload::Workload& w, int shards,
                                 int threads, double slow_threshold = 0) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = shards;
  opts.num_threads = threads;
  opts.shard_slow_threshold = slow_threshold;
  TuningSession session(prod.get(), opts);
  workload::Workload copy;
  for (const auto& ws : w.statements()) copy.Add(ws.stmt.Clone(), ws.weight);
  return session.Tune(copy);
}

// ------------------------------------------------------------- rendezvous

TEST(ShardRouterTest, RendezvousRankingIsDeterministicAndComplete) {
  auto prod = MakeProduction();
  // Ranking is a pure function of (key, shard index); the servers are never
  // called, so one server can stand in for all shards.
  std::vector<server::Server*> servers(6, prod.get());
  ShardRouter router(prod.get(), InprocFleet(servers), ShardRouterOptions());

  Random rng(99);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
    std::vector<size_t> order = router.RankShards(key);
    ASSERT_EQ(order.size(), 6u);
    // A permutation of all shards.
    std::set<size_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 6u);
    // Deterministic.
    EXPECT_EQ(order, router.RankShards(key));
  }
}

// Rendezvous scores are independent of the shard count: dropping the last
// shard must leave the relative order of the remaining shards unchanged
// (only keys homed on the dropped shard re-home; no global reshuffle).
TEST(ShardRouterTest, RankingIsStableUnderShardRemoval) {
  auto prod = MakeProduction();
  std::vector<server::Server*> five(5, prod.get());
  std::vector<server::Server*> four(4, prod.get());
  ShardRouter router5(prod.get(), InprocFleet(five), ShardRouterOptions());
  ShardRouter router4(prod.get(), InprocFleet(four), ShardRouterOptions());

  Random rng(7);
  int rehomed = 0;
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
    std::vector<size_t> with5 = router5.RankShards(key);
    std::vector<size_t> with4 = router4.RankShards(key);
    // Erase shard 4 from the 5-shard ranking: what remains must be exactly
    // the 4-shard ranking.
    std::vector<size_t> projected;
    for (size_t s : with5) {
      if (s != 4) projected.push_back(s);
    }
    EXPECT_EQ(projected, with4) << "key " << key;
    if (with5[0] == 4) ++rehomed;
  }
  // Sanity: the dropped shard owned roughly 1/5 of the keys, so some (but
  // far from all) keys re-homed.
  EXPECT_GT(rehomed, 20);
  EXPECT_LT(rehomed, 120);
}

TEST(ShardRouterTest, KeysSpreadAcrossShards) {
  auto prod = MakeProduction();
  std::vector<server::Server*> servers(4, prod.get());
  ShardRouter router(prod.get(), InprocFleet(servers), ShardRouterOptions());
  std::vector<int> owned(4, 0);
  Random rng(3);
  for (int i = 0; i < 400; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
    owned[router.RankShards(key)[0]] += 1;
  }
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(owned[s], 40) << "shard " << s << " starved";
  }
}

// --------------------------------------------------------- back-pressure

// Hammer a 2-shard router through a CostService from many threads with a
// tiny in-flight window: results stay correct and the per-shard concurrency
// never exceeds the window.
TEST(ShardRouterTest, BoundedInflightWindowHoldsUnderHammering) {
  auto prod = MakeProduction();
  auto replica = prod->Clone("prod-shard1");
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  workload::Workload w = RandomWorkload(21);

  ShardRouterOptions options;
  options.max_inflight_per_shard = 2;
  ShardRouter router(prod.get(), InprocFleet({prod.get(), replica->get()}),
                     options);
  CostService service(&router, nullptr, &w, CostService::Config());

  CostService reference(prod.get(), nullptr, &w);
  std::vector<Configuration> configs;
  configs.push_back(Configuration());
  {
    Configuration c;
    ASSERT_TRUE(
        c.AddIndex(IndexDef{.table = "orders", .key_columns = {"o_cust"}})
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
  std::vector<std::vector<double>> expected(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    for (const Configuration& c : configs) {
      auto r = reference.StatementCost(i, c);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected[i].push_back(*r);
    }
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (size_t n = 0; n < w.size() * configs.size(); ++n) {
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
  size_t total_calls = 0;
  for (size_t s = 0; s < router.shard_count(); ++s) {
    EXPECT_LE(router.inflight_peak(s), 2u) << "shard " << s;
    EXPECT_TRUE(router.healthy(s)) << "shard " << s;
    total_calls += router.calls(s);
  }
  // Healthy fleet: every attempt succeeded, nothing failed over, and the
  // logical call count matches the single-server reference exactly.
  EXPECT_EQ(router.successes(), total_calls);
  EXPECT_EQ(router.failovers(), 0u);
  EXPECT_EQ(router.exhausted(), 0u);
  EXPECT_EQ(service.whatif_calls(), reference.whatif_calls());
  EXPECT_EQ(router.successes(), service.whatif_calls());
}

// --------------------------------------------------------- config clamping

// Degenerate option values are clamped to their documented floors instead
// of crashing (or worse, deadlocking a zero-slot window); the clamped
// values are observable through options().
TEST(ShardRouterTest, OptionsAreClampedToSaneFloors) {
  auto prod = MakeProduction();
  std::vector<server::Server*> servers(2, prod.get());
  ShardRouterOptions raw;
  raw.max_inflight_per_shard = 0;
  raw.unhealthy_after = -3;
  raw.probe_interval = 0;
  raw.slow_min_samples = 0;
  raw.slow_floor_ms = -5;
  raw.clock = nullptr;
  ShardRouter router(prod.get(), InprocFleet(servers), raw);
  EXPECT_EQ(router.options().max_inflight_per_shard, 1);
  EXPECT_EQ(router.options().unhealthy_after, 1);
  EXPECT_EQ(router.options().probe_interval, 1);
  EXPECT_EQ(router.options().slow_min_samples, 1);
  EXPECT_EQ(router.options().slow_floor_ms, 0.0);
  EXPECT_NE(router.options().clock, nullptr);

  // In-range values pass through untouched.
  ShardRouterOptions fine;
  fine.max_inflight_per_shard = 3;
  fine.unhealthy_after = 1;
  fine.probe_interval = 1;
  ShardRouter router2(prod.get(), InprocFleet(servers), fine);
  EXPECT_EQ(router2.options().max_inflight_per_shard, 3);
  EXPECT_EQ(router2.options().unhealthy_after, 1);
  EXPECT_EQ(router2.options().probe_interval, 1);
}

// unhealthy_after=1 / probe_interval=1 are the tightest legal settings:
// demote on the first failure, probe on every routing decision. A shard
// down for a short burst is routed around immediately, loses no calls, and
// rejoins on its first good probe.
TEST(ShardRouterTest, TightestHealthSettingsStillRecover) {
  auto prod = MakeProduction();
  auto replica = prod->Clone("prod-shard1");
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  workload::Workload w = RandomWorkload(33);

  FaultSpec fault;
  fault.burst_start = 0;
  fault.burst_len = 3;
  FaultInjector injector(fault);
  replica->get()->set_fault_injector(&injector);

  ShardRouterOptions options;
  options.unhealthy_after = 1;
  options.probe_interval = 1;
  ShardRouter router(prod.get(), InprocFleet({prod.get(), replica->get()}),
                     options);

  const sql::Statement& stmt = w.statements()[0].stmt;
  const Configuration base_config;
  for (uint64_t key = 1; key <= 40; ++key) {
    WhatIfCall call;
    call.stmt = &stmt;
    call.config = &base_config;
    call.call_key = key;
    auto r = router.WhatIfCost(call);
    ASSERT_TRUE(r.ok()) << "key " << key << ": " << r.status().ToString();
  }

  // Every burst failure failed over to the healthy shard; nothing was lost
  // and the burst shard is healthy again by the end.
  EXPECT_EQ(router.successes(), 40u);
  EXPECT_EQ(router.failovers(), 3u);
  EXPECT_EQ(router.exhausted(), 0u);
  EXPECT_TRUE(router.healthy(1));
  EXPECT_EQ(injector.outage_failures(), 3u);
  EXPECT_GT(router.calls(1), 3u);  // probes + post-recovery traffic
}

// ------------------------------------------------- slowness detection

// The detector demotes a shard whose latency EWMA exceeds slow_threshold x
// the fleet median, and recovers it once probe samples decay the EWMA back
// under the limit. Driven through the test hook so no real sleeping.
TEST(ShardRouterTest, SlownessDetectorDemotesAndRecovers) {
  auto prod = MakeProduction();
  std::vector<server::Server*> servers(3, prod.get());
  ShardRouterOptions options;
  options.slow_threshold = 4;
  options.slow_min_samples = 4;
  options.slow_floor_ms = 1.0;
  ShardRouter router(prod.get(), InprocFleet(servers), options);

  for (int i = 0; i < 8; ++i) {
    router.RecordLatencyForTest(0, 10);
    router.RecordLatencyForTest(1, 10);
  }
  EXPECT_FALSE(router.slow(0));
  EXPECT_FALSE(router.slow(1));

  // 20x the fleet median: demoted as soon as it has slow_min_samples.
  for (int i = 0; i < 8; ++i) router.RecordLatencyForTest(2, 200);
  EXPECT_TRUE(router.slow(2));
  EXPECT_FALSE(router.slow(0));
  EXPECT_FALSE(router.slow(1));
  EXPECT_EQ(router.slow_demotions(), 1u);
  EXPECT_NEAR(router.latency_ewma_ms(2), 200, 1e-9);

  // Probes now measure healthy latency; the EWMA (alpha 0.25) needs a
  // handful of samples to decay under the limit (4 x median 10 = 40).
  int probes = 0;
  while (router.slow(2) && probes < 64) {
    router.RecordLatencyForTest(2, 10);
    ++probes;
  }
  EXPECT_FALSE(router.slow(2));
  EXPECT_GT(probes, 2);
  EXPECT_LT(probes, 20);
  // Recovery is not a demotion; the counter is monotone per incident.
  EXPECT_EQ(router.slow_demotions(), 1u);
}

// "Slower than the fleet" is meaningless for a fleet of one: no median
// exists, so even an extreme absolute latency never demotes the only shard.
TEST(ShardRouterTest, FleetOfOneIsNeverSlow) {
  auto prod = MakeProduction();
  std::vector<server::Server*> one(1, prod.get());
  ShardRouterOptions options;
  options.slow_threshold = 2;
  options.slow_min_samples = 2;
  ShardRouter router(prod.get(), InprocFleet(one), options);
  for (int i = 0; i < 32; ++i) router.RecordLatencyForTest(0, 1000);
  EXPECT_FALSE(router.slow(0));
  EXPECT_EQ(router.slow_demotions(), 0u);
}

// An idle in-process fleet jitters by microseconds. Even a shard 100x over
// the median stays under the absolute floor, so nobody is demoted on noise.
TEST(ShardRouterTest, SlowFloorIgnoresMicrosecondJitter) {
  auto prod = MakeProduction();
  std::vector<server::Server*> servers(3, prod.get());
  ShardRouterOptions options;
  options.slow_threshold = 2;
  options.slow_min_samples = 2;
  options.slow_floor_ms = 1.0;
  ShardRouter router(prod.get(), InprocFleet(servers), options);
  for (int i = 0; i < 4; ++i) {
    router.RecordLatencyForTest(0, 0.001);
    router.RecordLatencyForTest(1, 0.001);
    router.RecordLatencyForTest(2, 0.1);  // 100x the median, but < 1ms
  }
  EXPECT_FALSE(router.slow(2));
  EXPECT_EQ(router.slow_demotions(), 0u);
}

// No judgment before slow_min_samples: a single spike cannot demote.
TEST(ShardRouterTest, DetectorWaitsForMinimumSamples) {
  auto prod = MakeProduction();
  std::vector<server::Server*> servers(2, prod.get());
  ShardRouterOptions options;
  options.slow_threshold = 2;
  options.slow_min_samples = 8;
  options.slow_floor_ms = 1.0;
  ShardRouter router(prod.get(), InprocFleet(servers), options);
  for (int i = 0; i < 8; ++i) router.RecordLatencyForTest(0, 10);
  for (int i = 0; i < 7; ++i) router.RecordLatencyForTest(1, 1000);
  EXPECT_FALSE(router.slow(1));  // one sample short of a verdict
  router.RecordLatencyForTest(1, 1000);
  EXPECT_TRUE(router.slow(1));
}

// ------------------------------------------------------------ determinism

// The headline property: for random workloads and any shard count 1–8, the
// recommendation document, costs, and whatif_calls are byte-identical to
// the single-server baseline — serial and with a worker pool.
TEST(ShardRouterTest, AnyShardCountMatchesSingleServerBaseline) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    workload::Workload w = RandomWorkload(seed);
    auto baseline = TuneSharded(w, 1, 1);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    EXPECT_EQ(baseline->shards_used, 1);
    EXPECT_EQ(baseline->shard_failovers, 0u);
    const std::string expected_xml = RecommendationXml(*baseline);

    for (int shards : {2, 3, 5, 8}) {
      const int threads = shards % 2 == 0 ? 4 : 1;
      auto sharded = TuneSharded(w, shards, threads);
      ASSERT_TRUE(sharded.ok())
          << "seed " << seed << " shards " << shards << ": "
          << sharded.status().ToString();
      const std::string label =
          StrFormat("seed %llu shards %d threads %d",
                    static_cast<unsigned long long>(seed), shards, threads);
      EXPECT_EQ(sharded->shards_used, shards) << label;
      EXPECT_EQ(baseline->current_cost, sharded->current_cost) << label;
      EXPECT_EQ(baseline->recommended_cost, sharded->recommended_cost)
          << label;
      EXPECT_EQ(expected_xml, RecommendationXml(*sharded)) << label;
      // whatif_calls is exact at any (threads x shards): dedup upstream of
      // the router prices each logical call once.
      EXPECT_EQ(baseline->whatif_calls, sharded->whatif_calls) << label;
      EXPECT_EQ(baseline->enumeration_evaluations,
                sharded->enumeration_evaluations)
          << label;
      ASSERT_EQ(baseline->report.statements.size(),
                sharded->report.statements.size())
          << label;
      for (size_t i = 0; i < baseline->report.statements.size(); ++i) {
        EXPECT_EQ(baseline->report.statements[i].current_cost,
                  sharded->report.statements[i].current_cost)
            << label << " statement " << i;
        EXPECT_EQ(baseline->report.statements[i].recommended_cost,
                  sharded->report.statements[i].recommended_cost)
            << label << " statement " << i;
      }
      // Healthy fleet accounting: one success per logical pricing, no
      // failovers, every attempt accounted to some shard.
      EXPECT_EQ(sharded->shard_successes, sharded->whatif_calls) << label;
      EXPECT_EQ(sharded->shard_failovers, 0u) << label;
      EXPECT_EQ(sharded->shard_exhausted, 0u) << label;
      ASSERT_EQ(sharded->shard_calls.size(), static_cast<size_t>(shards))
          << label;
      size_t attempts = 0;
      for (size_t c : sharded->shard_calls) attempts += c;
      EXPECT_EQ(attempts, sharded->shard_successes) << label;
    }
  }
}

// Enabling the slowness detector cannot change results: demotion is
// routing-only, so whether or not it fires during the run, recommendations
// and every deterministic counter match the single-server baseline.
TEST(ShardRouterTest, SlownessDetectionPreservesDeterminism) {
  workload::Workload w = RandomWorkload(77);
  auto baseline = TuneSharded(w, 1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto detected = TuneSharded(w, 4, 4, /*slow_threshold=*/2);
  ASSERT_TRUE(detected.ok()) << detected.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*detected));
  EXPECT_EQ(baseline->whatif_calls, detected->whatif_calls);
  EXPECT_EQ(baseline->current_cost, detected->current_cost);
  EXPECT_EQ(baseline->recommended_cost, detected->recommended_cost);
}

// The report surfaces the shard topology (and XML output carries it).
TEST(ShardRouterTest, ReportCarriesShardTopology) {
  workload::Workload w = RandomWorkload(55);
  auto sharded = TuneSharded(w, 4, 2);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->report.shards, 4);
  const std::string text = sharded->report.ToText();
  EXPECT_NE(text.find("Sharded costing: 4 shards"), std::string::npos)
      << text;
  EXPECT_EQ(sharded->report.ToXml()->Attr("Shards"), "4");
}

}  // namespace
}  // namespace dta::tuner
