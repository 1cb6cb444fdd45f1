// Chaos tests for the sharded costing backend: kill or degrade each shard
// in turn via per-shard fault specs (node death, burst outages, random
// transients) and require graceful failover — recommendations byte-identical
// to a healthy single-server run, with no lost and no double-counted calls.
// Also covers the outage extensions of FaultSpec and ShardFaultSpec parsing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/strings.h"
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

// Same production fixture as parallel_tuning_test.
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

std::string RecommendationXml(const TuningResult& r) {
  return ConfigurationToXml(r.recommendation)->ToString();
}

Result<TuningResult> Tune(int shards, int threads,
                          const std::string& shard_fault_spec,
                          double slow_threshold = 0) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = shards;
  opts.num_threads = threads;
  opts.shard_fault_spec = shard_fault_spec;
  opts.shard_slow_threshold = slow_threshold;
  opts.retry.initial_backoff_ms = 0.01;
  opts.retry.max_backoff_ms = 0.05;
  TuningSession session(prod.get(), opts);
  return session.Tune(SeedWorkload());
}

// No lost and no double-counted calls: every logical pricing was answered
// by exactly one shard, or degraded to the heuristic.
void ExpectCallsConserved(const TuningResult& r, const std::string& label) {
  EXPECT_EQ(r.shard_successes, r.whatif_calls - r.degraded_calls) << label;
  size_t attempts = 0;
  for (size_t c : r.shard_calls) attempts += c;
  // Every attempt is accounted exactly once: it succeeded, was rescued by
  // a failover hop, or was the final failure of an exhausted call.
  EXPECT_EQ(attempts,
            r.shard_successes + r.shard_failovers + r.shard_exhausted)
      << label;
}

// --------------------------------------------------- FaultSpec extensions

TEST(FaultSpecOutageTest, DownAfterKillsTheNodePermanently) {
  auto spec = FaultSpec::Parse("down_after=3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->Enabled());
  FaultInjector injector(*spec);
  // Ordinals 0..2 succeed, everything after is node death.
  for (uint64_t k = 1; k <= 3; ++k) {
    EXPECT_TRUE(injector.Decide(k).status.ok()) << k;
  }
  for (uint64_t k = 4; k <= 10; ++k) {
    auto outcome = injector.Decide(k);
    EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable) << k;
  }
  EXPECT_EQ(injector.outage_failures(), 7u);
}

TEST(FaultSpecOutageTest, BurstOutageIsAWindow) {
  auto spec = FaultSpec::Parse("burst_start=2,burst_len=3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->Enabled());
  FaultInjector injector(*spec);
  std::vector<bool> ok;
  for (uint64_t k = 1; k <= 8; ++k) {
    ok.push_back(injector.Decide(k).status.ok());
  }
  // Ordinals 2, 3, 4 fall in the burst; the node recovers afterwards.
  EXPECT_EQ(ok, std::vector<bool>(
                    {true, true, false, false, false, true, true, true}));
  EXPECT_EQ(injector.outage_failures(), 3u);
}

TEST(FaultSpecOutageTest, OutageFieldsRoundTripThroughToString) {
  for (const char* text :
       {"down_after=5", "burst_start=10,burst_len=60",
        "seed=9,transient=0.25,down_after=100"}) {
    auto spec = FaultSpec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text << ": " << spec.status().ToString();
    auto reparsed = FaultSpec::Parse(spec->ToString());
    ASSERT_TRUE(reparsed.ok()) << spec->ToString();
    EXPECT_EQ(reparsed->ToString(), spec->ToString()) << text;
    EXPECT_EQ(reparsed->down_after, spec->down_after) << text;
    EXPECT_EQ(reparsed->burst_start, spec->burst_start) << text;
    EXPECT_EQ(reparsed->burst_len, spec->burst_len) << text;
  }
  EXPECT_FALSE(FaultSpec::Parse("down_after=-2").ok());
}

// ----------------------------------------------------- ShardFaultSpec

TEST(ShardFaultSpecTest, ParsesAndRoundTrips) {
  auto spec = ShardFaultSpec::Parse("2:down_after=40;0:transient=0.2,seed=7");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->Enabled());
  ASSERT_EQ(spec->per_shard.size(), 2u);
  EXPECT_EQ(spec->per_shard.at(2).down_after, 40);
  EXPECT_DOUBLE_EQ(spec->per_shard.at(0).transient_probability, 0.2);
  auto reparsed = ShardFaultSpec::Parse(spec->ToString());
  ASSERT_TRUE(reparsed.ok()) << spec->ToString();
  EXPECT_EQ(reparsed->ToString(), spec->ToString());
}

TEST(ShardFaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ShardFaultSpec::Parse("down_after=4").ok());     // no index
  EXPECT_FALSE(ShardFaultSpec::Parse("-1:down_after=4").ok());  // negative
  EXPECT_FALSE(ShardFaultSpec::Parse("x:down_after=4").ok());   // non-int
  EXPECT_FALSE(
      ShardFaultSpec::Parse("4294967297:down_after=4").ok());  // past int
  EXPECT_FALSE(
      ShardFaultSpec::Parse("1:down_after=4;1:down_after=9").ok());  // dup
  EXPECT_FALSE(ShardFaultSpec::Parse("1:bogus=1").ok());  // bad FaultSpec
}

TEST(ShardFaultSpecTest, SessionRejectsOutOfRangeShardIndex) {
  auto r = Tune(2, 1, "5:down_after=1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

// ------------------------------------------------------------- failover

// Kill each shard of a 4-shard fleet in turn, mid-enumeration (the node
// dies at its 5th call). Recommendations must stay byte-identical to the
// healthy single-server run, with calls conserved and failovers observed.
TEST(ShardFailoverTest, KillEachShardInTurnKeepsRecommendationIdentical) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected_xml = RecommendationXml(*baseline);

  for (int victim = 0; victim < 4; ++victim) {
    const std::string label = StrFormat("victim shard %d", victim);
    auto faulty = Tune(4, 3, StrFormat("%d:down_after=5", victim));
    ASSERT_TRUE(faulty.ok()) << label << ": "
                             << faulty.status().ToString();
    EXPECT_EQ(expected_xml, RecommendationXml(*faulty)) << label;
    EXPECT_EQ(baseline->current_cost, faulty->current_cost) << label;
    EXPECT_EQ(baseline->recommended_cost, faulty->recommended_cost) << label;
    EXPECT_EQ(baseline->whatif_calls, faulty->whatif_calls) << label;
    // Nothing degraded: the surviving shards absorbed the victim's load.
    EXPECT_EQ(faulty->degraded_calls, 0u) << label;
    // The kill actually fired and calls failed over.
    EXPECT_GT(faulty->injected_outage_faults, 0u) << label;
    EXPECT_GT(faulty->shard_failovers, 0u) << label;
    EXPECT_EQ(faulty->shard_exhausted, 0u) << label;
    ExpectCallsConserved(*faulty, label);
  }
}

// Burst outage (ROADMAP "richer fault profiles"): one shard drops out for a
// 60-call window and then recovers. Failover bridges the window; the
// recovered shard rejoins via health probes; the result is unchanged.
TEST(ShardFailoverTest, BurstOutageFailsOverAndRecovers) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = Tune(3, 2, "1:burst_start=10,burst_len=60");
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*faulty));
  EXPECT_EQ(baseline->whatif_calls, faulty->whatif_calls);
  EXPECT_EQ(faulty->degraded_calls, 0u);
  EXPECT_GT(faulty->injected_outage_faults, 0u);
  EXPECT_GT(faulty->shard_failovers, 0u);
  ExpectCallsConserved(*faulty, "burst outage");
}

// Degraded shards (random transient faults, not death) also fail over
// without perturbing the result.
TEST(ShardFailoverTest, FlakyShardFailsOverDeterministically) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = Tune(4, 3, "2:seed=13,transient=0.5");
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*faulty));
  EXPECT_EQ(baseline->whatif_calls, faulty->whatif_calls);
  EXPECT_EQ(faulty->degraded_calls, 0u);
  ExpectCallsConserved(*faulty, "flaky shard");
}

// Whole-fleet death: every shard is unreachable from the first call. The
// retry layer exhausts the fleet, degradation takes over, and tuning still
// completes with every pricing flagged degraded — a dead fleet behaves
// like a dead single server.
TEST(ShardFailoverTest, WholeFleetDownDegradesGracefully) {
  auto dead = Tune(2, 2, "0:down_after=0;1:down_after=0");
  ASSERT_TRUE(dead.ok()) << dead.status().ToString();
  EXPECT_GT(dead->whatif_calls, 0u);
  EXPECT_EQ(dead->degraded_calls, dead->whatif_calls);
  EXPECT_EQ(dead->shard_successes, 0u);
  EXPECT_GT(dead->shard_exhausted, 0u);
  ExpectCallsConserved(*dead, "dead fleet");
  // Every statement is flagged degraded in the report.
  for (const auto& s : dead->report.statements) {
    EXPECT_TRUE(s.degraded) << s.sql;
  }
}

// ------------------------------------------------------------- fail-slow

// Fail-slow chaos: one shard answers every call successfully but ~2000x
// late from its 5th call on — the failure mode crash-stop health tracking
// cannot see (nothing ever *fails*). The latency-EWMA detector demotes it
// to probe-only routing; the fast shards absorb its keys; and because
// demotion is routing-only, the recommendation stays byte-identical to the
// healthy single-server run.
TEST(ShardFailoverTest, FailSlowShardIsDemotedWithoutChangingTheResult) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = Tune(4, 3, "2:latency_ms=0.05,slow_after=5,slow_factor=2000",
                     /*slow_threshold=*/4);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*faulty));
  EXPECT_EQ(baseline->current_cost, faulty->current_cost);
  EXPECT_EQ(baseline->recommended_cost, faulty->recommended_cost);
  EXPECT_EQ(baseline->whatif_calls, faulty->whatif_calls);
  // Fail-slow never fails a call: no retries, no degradation, no failover
  // hops forced by errors — the detector acted on latency alone.
  EXPECT_EQ(faulty->degraded_calls, 0u);
  EXPECT_EQ(faulty->injected_outage_faults, 0u);
  EXPECT_EQ(faulty->shard_exhausted, 0u);
  EXPECT_GT(faulty->shard_slow_demotions, 0u);
  ExpectCallsConserved(*faulty, "fail-slow shard");
  // The report surfaces the isolation events.
  EXPECT_EQ(faulty->report.shard_slow_demotions,
            faulty->shard_slow_demotions);
  EXPECT_NE(faulty->report.ToText().find("slow demotions"),
            std::string::npos);
}

// Combined chaos: a burst outage on one shard while another turns
// fail-slow. Crash-stop failover bridges the outage, the slowness detector
// sidelines the laggard, and the result is still byte-identical.
TEST(ShardFailoverTest, BurstOutagePlusFailSlowKeepsRecommendationIdentical) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = Tune(4, 3,
                     "1:burst_start=10,burst_len=40;"
                     "2:latency_ms=0.05,slow_after=5,slow_factor=2000",
                     /*slow_threshold=*/4);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*faulty));
  EXPECT_EQ(baseline->whatif_calls, faulty->whatif_calls);
  EXPECT_EQ(faulty->degraded_calls, 0u);
  EXPECT_GT(faulty->injected_outage_faults, 0u);
  EXPECT_GT(faulty->shard_failovers, 0u);
  EXPECT_GT(faulty->shard_slow_demotions, 0u);
  ExpectCallsConserved(*faulty, "burst + fail-slow");
}

// The detector is disabled by default (slow_threshold = 0): the same
// fail-slow shard drags the run but demotes nothing, and the result is
// still identical — slowness never threatens correctness, only wall-clock.
TEST(ShardFailoverTest, DetectorOffToleratesFailSlowShard) {
  auto baseline = Tune(1, 1, "");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = Tune(3, 2, "1:latency_ms=0.05,slow_after=5,slow_factor=50");
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*faulty));
  EXPECT_EQ(faulty->shard_slow_demotions, 0u);
  ExpectCallsConserved(*faulty, "detector off");
}

// A shard-0 fault spec and a whole-session fault spec would stack two
// injectors on the tuning server; the session refuses the ambiguity.
TEST(ShardFailoverTest, Shard0SpecConflictsWithSessionFaultSpec) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = 2;
  opts.fault_spec = "seed=3,transient=0.1";
  opts.shard_fault_spec = "0:down_after=5";
  TuningSession session(prod.get(), opts);
  auto r = session.Tune(SeedWorkload());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

}  // namespace
}  // namespace dta::tuner
