// Robustness tests for the fault-tolerant what-if costing path: FaultSpec
// parsing, FaultInjector determinism, retry/backoff under transient faults
// (including deadline-capped retries), graceful degradation to the heuristic
// estimate, and end-to-end tuning under scripted fault profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "dta/checkpoint.h"
#include "dta/cost_service.h"
#include "dta/tuning_session.h"
#include "optimizer/cost_model.h"
#include "optimizer/heuristic_cost.h"
#include "sql/parser.h"
#include "workload/workload.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Same production fixture as parallel_tuning_test: two joinable tables with
// real data.
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

// ------------------------------------------------------------ FaultSpec

TEST(FaultSpecTest, ParsesAndRoundTrips) {
  auto spec = FaultSpec::Parse(
      "seed=42,transient=0.1,permanent=0.01,latency_ms=0.5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->seed, 42u);
  EXPECT_DOUBLE_EQ(spec->transient_probability, 0.1);
  EXPECT_DOUBLE_EQ(spec->permanent_probability, 0.01);
  EXPECT_DOUBLE_EQ(spec->latency_ms, 0.5);
  EXPECT_TRUE(spec->Enabled());

  auto round = FaultSpec::Parse(spec->ToString());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->seed, spec->seed);
  EXPECT_DOUBLE_EQ(round->transient_probability, spec->transient_probability);
  EXPECT_DOUBLE_EQ(round->permanent_probability, spec->permanent_probability);
  EXPECT_DOUBLE_EQ(round->latency_ms, spec->latency_ms);
}

TEST(FaultSpecTest, RejectsBadInput) {
  EXPECT_FALSE(FaultSpec::Parse("transient=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("permanent=-0.1").ok());
  EXPECT_FALSE(FaultSpec::Parse("bogus_key=1").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=abc").ok());

  auto empty = FaultSpec::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->Enabled());
}

// The parser consumes values strictly: trailing garbage, embedded
// whitespace, signs, incomplete exponents, and non-finite literals are all
// rejected rather than silently truncated the way strtod alone would.
TEST(FaultSpecTest, RejectsTrailingGarbageAndLooseNumbers) {
  EXPECT_FALSE(FaultSpec::Parse("transient=0.3x").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=42abc").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed= 42").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=42 ").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=+42").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=-1").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=+0.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=1e").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=1e999").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=inf").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=nan").ok());
  EXPECT_FALSE(FaultSpec::Parse("latency_ms=0x1p3").ok());
  EXPECT_FALSE(FaultSpec::Parse("down_after=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("down_after=-2").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=").ok());
  EXPECT_FALSE(FaultSpec::Parse("=0.3").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient").ok());
  // Unknown keys fail loudly — a typo must not silently disable the fault.
  EXPECT_FALSE(FaultSpec::Parse("transeint=0.3").ok());
  EXPECT_FALSE(FaultSpec::Parse("transient=0.3,extra=1").ok());
}

TEST(FaultSpecTest, RejectsBadFailSlowAndTableValues) {
  EXPECT_FALSE(FaultSpec::Parse("slow_factor=0.5").ok());  // must be >= 1
  EXPECT_FALSE(FaultSpec::Parse("slow_after=-2").ok());
  EXPECT_FALSE(FaultSpec::Parse("slow_after=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("table=").ok());
  EXPECT_FALSE(FaultSpec::Parse("table=line item").ok());
  EXPECT_FALSE(FaultSpec::Parse("table='orders'").ok());

  // Table names are case-folded so the filter matches the catalog's
  // lowercased identifiers.
  auto spec = FaultSpec::Parse("table=LineItem,transient=0.3");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->table, "lineitem");
  EXPECT_TRUE(spec->Enabled());
}

// Every field — including the fail-slow window and the table filter —
// survives Parse(ToString()) unchanged, so specs can be logged and replayed.
TEST(FaultSpecTest, FullSpecRoundTrips) {
  auto spec = FaultSpec::Parse(
      "seed=9,transient=0.25,permanent=0.5,latency_ms=0.125,down_after=10,"
      "burst_start=3,burst_len=4,slow_after=5,slow_factor=200,table=lineitem");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto round = FaultSpec::Parse(spec->ToString());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->seed, 9u);
  EXPECT_DOUBLE_EQ(round->transient_probability, 0.25);
  EXPECT_DOUBLE_EQ(round->permanent_probability, 0.5);
  EXPECT_DOUBLE_EQ(round->latency_ms, 0.125);
  EXPECT_EQ(round->down_after, 10);
  EXPECT_EQ(round->burst_start, 3u);
  EXPECT_EQ(round->burst_len, 4u);
  EXPECT_EQ(round->slow_after, 5);
  EXPECT_DOUBLE_EQ(round->slow_factor, 200);
  EXPECT_EQ(round->table, "lineitem");
  EXPECT_EQ(round->ToString(), spec->ToString());

  // Disabled shapes stay out of the string form, so the default spec
  // round-trips to the same short form.
  auto minimal = FaultSpec::Parse("transient=0.1");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->ToString().find("slow_after"), std::string::npos);
  EXPECT_EQ(minimal->ToString().find("table"), std::string::npos);
  auto again = FaultSpec::Parse(minimal->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), minimal->ToString());
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeedAndKey) {
  FaultSpec spec;
  spec.seed = 7;
  spec.transient_probability = 0.3;
  spec.permanent_probability = 0.05;
  spec.latency_ms = 0.25;

  // Two injectors with the same spec replay the same outcome sequence for
  // the same keys, regardless of interleaving with other keys.
  FaultInjector a(spec), b(spec);
  for (uint64_t key = 1; key <= 200; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      auto oa = a.Decide(key);
      auto ob = b.Decide(key);
      EXPECT_EQ(oa.status.code(), ob.status.code())
          << "key " << key << " attempt " << attempt;
      EXPECT_EQ(oa.latency_ms, ob.latency_ms);
      EXPECT_DOUBLE_EQ(oa.latency_ms, spec.latency_ms);
    }
    // Interleave unrelated keys into `b` only; `a`'s outcomes above must
    // not depend on them (pure hash of key + attempt, no shared stream).
    b.Decide(1000000 + key);
  }
  EXPECT_EQ(a.transient_failures() > 0, true);
  EXPECT_EQ(a.permanent_failures() > 0, true);

  // A different seed produces a different failure pattern.
  spec.seed = 8;
  FaultInjector c(spec);
  size_t differing = 0;
  for (uint64_t key = 1; key <= 200; ++key) {
    if (c.Decide(key).status.code() != a.Decide(key).status.code()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjectorTest, PermanentFaultsStickPerKey) {
  FaultSpec spec;
  spec.seed = 3;
  spec.permanent_probability = 0.2;
  FaultInjector injector(spec);

  for (uint64_t key = 1; key <= 100; ++key) {
    Status first = injector.Decide(key).status;
    for (int attempt = 1; attempt < 4; ++attempt) {
      // Permanent faults are keyed on the call alone: every retry of a
      // permanently failing key fails identically, and a healthy key never
      // develops a permanent fault.
      EXPECT_EQ(injector.Decide(key).status.code(), first.code());
    }
  }
  EXPECT_GT(injector.permanent_failures(), 0u);
}

// ----------------------------------------------------- table targeting

TEST(FaultInjectorTest, TableFilterExemptsUnmatchedCalls) {
  FaultSpec spec;
  spec.seed = 4;
  spec.transient_probability = 1;  // every matched call fails
  spec.table = "orders";
  FaultInjector injector(spec);

  const std::set<std::string> orders = {"orders"};
  const std::set<std::string> items = {"items"};
  const std::set<std::string> both = {"items", "orders"};

  EXPECT_TRUE(injector.Decide(1, items).status.ok());
  EXPECT_FALSE(injector.Decide(1, orders).status.ok());
  EXPECT_FALSE(injector.Decide(2, both).status.ok());
  // The one-argument form carries no table set, so it can never match a
  // table-filtered spec.
  EXPECT_TRUE(injector.Decide(3).status.ok());

  EXPECT_EQ(injector.calls(), 4u);
  EXPECT_EQ(injector.skipped_calls(), 2u);
  EXPECT_EQ(injector.transient_failures(), 2u);
}

// Window shapes (down_after, bursts, slow_after) are modeled on the
// matched-call ordinal: calls the table filter exempts do not advance the
// window, so the same fault spec describes the same incident shape no
// matter how many other tables' calls interleave.
TEST(FaultInjectorTest, WindowOrdinalsCountOnlyMatchedCalls) {
  FaultSpec spec;
  spec.table = "orders";
  spec.down_after = 2;
  FaultInjector injector(spec);

  const std::set<std::string> orders = {"orders"};
  const std::set<std::string> items = {"items"};

  // Matched ordinals 0 and 1 precede the outage; unmatched calls in between
  // must not consume ordinals.
  EXPECT_TRUE(injector.Decide(1, orders).status.ok());  // ordinal 0
  for (uint64_t k = 100; k < 110; ++k) {
    EXPECT_TRUE(injector.Decide(k, items).status.ok());
  }
  EXPECT_TRUE(injector.Decide(2, orders).status.ok());   // ordinal 1
  EXPECT_FALSE(injector.Decide(3, orders).status.ok());  // ordinal 2: down
  EXPECT_TRUE(injector.Decide(4, items).status.ok());    // still exempt
  EXPECT_EQ(injector.outage_failures(), 1u);
  EXPECT_EQ(injector.skipped_calls(), 11u);
}

// -------------------------------------------------------------- fail-slow

TEST(FaultInjectorTest, FailSlowAmplifiesLatencyWithoutFailing) {
  FaultSpec spec;
  spec.latency_ms = 0.5;
  spec.slow_after = 3;
  spec.slow_factor = 10;
  EXPECT_TRUE(spec.Enabled());
  FaultInjector injector(spec);

  for (uint64_t i = 0; i < 8; ++i) {
    auto out = injector.Decide(/*key=*/i);
    EXPECT_TRUE(out.status.ok()) << "call " << i;
    if (i < 3) {
      EXPECT_DOUBLE_EQ(out.latency_ms, 0.5) << "call " << i;
    } else {
      // From ordinal slow_after onward the node is slow: responses arrive
      // latency_ms * slow_factor late but still succeed — invisible to
      // crash-stop health tracking by design.
      EXPECT_DOUBLE_EQ(out.latency_ms, 5.0) << "call " << i;
    }
  }
  EXPECT_EQ(injector.calls(), 8u);
  EXPECT_EQ(injector.slow_calls(), 5u);
  EXPECT_EQ(injector.transient_failures(), 0u);
  EXPECT_EQ(injector.outage_failures(), 0u);
}

// ------------------------------------------------------------ retries

TEST(CostServiceFaultTest, TransientFaultsAreRetriedToSuccess) {
  auto clean = MakeProduction();
  workload::Workload w = SeedWorkload();
  CostService reference(clean.get(), nullptr, &w);

  auto faulty = MakeProduction();
  FaultSpec spec;
  spec.seed = 21;
  spec.transient_probability = 0.3;
  FaultInjector injector(spec);
  faulty->set_fault_injector(&injector);

  CostService::Config config;
  config.retry.max_attempts = 16;  // 0.3^16: retries always recover
  config.retry.initial_backoff_ms = 0.01;
  config.retry.max_backoff_ms = 0.05;
  CostService service(faulty.get(), nullptr, &w, config);

  for (size_t i = 0; i < w.size(); ++i) {
    auto expected = reference.StatementCost(i, Configuration());
    auto got = service.StatementCost(i, Configuration());
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Retried calls recover the exact fault-free cost.
    EXPECT_EQ(*got, *expected) << "statement " << i;
  }
  faulty->set_fault_injector(nullptr);

  EXPECT_GT(injector.transient_failures(), 0u);
  EXPECT_EQ(service.whatif_retries(), injector.transient_failures());
  EXPECT_EQ(service.degraded_calls(), 0u);

  // The histogram accounts every pricing exactly once, and the retried
  // pricings landed in buckets beyond "1 attempt".
  auto hist = service.retry_histogram();
  size_t total = 0, beyond_first = 0;
  for (size_t n = 0; n < hist.size(); ++n) {
    total += hist[n];
    if (n > 0) beyond_first += hist[n];
  }
  EXPECT_EQ(total, service.whatif_calls());
  EXPECT_GT(beyond_first, 0u);
}

TEST(CostServiceFaultTest, DeadlineCapsRetries) {
  auto prod = MakeProduction();
  workload::Workload w = SeedWorkload();

  FaultSpec spec;
  spec.seed = 5;
  spec.transient_probability = 1;  // every attempt fails transiently
  FaultInjector injector(spec);
  prod->set_fault_injector(&injector);

  // An exhausted session budget forbids any backoff sleep, so the first
  // failure is final; without degradation the deadline surfaces directly.
  CostService::Config config;
  config.retry.initial_backoff_ms = 1;
  config.retry.jitter_fraction = 0;
  config.degrade_on_failure = false;
  config.remaining_ms = []() { return 0.5; };
  CostService service(prod.get(), nullptr, &w, config);

  auto r = service.StatementCost(0, Configuration());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // Exactly one attempt ran: the retry loop refused to sleep past the
  // budget instead of burning the configured attempt cap.
  EXPECT_EQ(injector.calls(), 1u);
  EXPECT_EQ(service.whatif_retries(), 0u);
  prod->set_fault_injector(nullptr);
}

// ------------------------------------------------------------ degradation

TEST(CostServiceFaultTest, PermanentFaultDegradesToHeuristicEstimate) {
  auto prod = MakeProduction();
  workload::Workload w = SeedWorkload();

  FaultSpec spec;
  spec.seed = 9;
  spec.permanent_probability = 1;  // every what-if call fails permanently
  FaultInjector injector(spec);
  prod->set_fault_injector(&injector);

  CostService::Config config;
  config.retry.max_attempts = 3;
  CostService service(prod.get(), nullptr, &w, config);

  optimizer::CostModel model(prod->hardware());
  for (size_t i = 0; i < w.size(); ++i) {
    auto got = service.StatementCost(i, Configuration());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // The degraded cost is exactly the catalog-only heuristic estimate.
    EXPECT_EQ(*got, optimizer::HeuristicStatementCost(
                        w.statements()[i].stmt, prod->catalog(), model))
        << "statement " << i;
  }
  prod->set_fault_injector(nullptr);

  EXPECT_EQ(service.degraded_calls(), w.size());
  EXPECT_EQ(service.degraded_statements().size(), w.size());
  // Permanent faults are not retried: one attempt per pricing.
  EXPECT_EQ(service.whatif_retries(), 0u);

  // Degraded entries are cached like any other: a re-ask is a hit, not a
  // second degradation.
  auto again = service.StatementCost(0, Configuration());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.degraded_calls(), w.size());
  EXPECT_GE(service.cache_hits(), 1u);
}

TEST(CostServiceFaultTest, DegradationOffSurfacesTheFailure) {
  auto prod = MakeProduction();
  workload::Workload w = SeedWorkload();

  FaultSpec spec;
  spec.seed = 9;
  spec.permanent_probability = 1;
  FaultInjector injector(spec);
  prod->set_fault_injector(&injector);

  CostService::Config config;
  config.degrade_on_failure = false;
  CostService service(prod.get(), nullptr, &w, config);

  auto r = service.StatementCost(0, Configuration());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(service.degraded_calls(), 0u);
  prod->set_fault_injector(nullptr);
}

// ------------------------------------------------------------ end to end

TEST(FaultTolerantTuningTest, TransientFaultsDoNotChangeTheRecommendation) {
  auto clean = MakeProduction();
  TuningSession clean_session(clean.get(), TuningOptions());
  auto baseline = clean_session.Tune(SeedWorkload());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = MakeProduction();
  TuningOptions opts;
  opts.fault_spec = "seed=42,transient=0.1,latency_ms=0.01";
  // With 12 attempts a pricing fails outright with probability 0.1^12 —
  // deterministically never, under this seed — so every cost recovers.
  opts.retry.max_attempts = 12;
  opts.retry.initial_backoff_ms = 0.01;
  opts.retry.max_backoff_ms = 0.05;
  TuningSession faulty_session(faulty.get(), opts);
  auto result = faulty_session.Tune(SeedWorkload());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Scripted transient faults + latency leave the recommendation and every
  // cost bit-identical to the fault-free run.
  EXPECT_EQ(result->current_cost, baseline->current_cost);
  EXPECT_EQ(result->recommended_cost, baseline->recommended_cost);
  EXPECT_EQ(StructureNames(result->recommendation),
            StructureNames(baseline->recommendation));

  EXPECT_GT(result->injected_transient_faults, 0u);
  EXPECT_EQ(result->whatif_retries, result->injected_transient_faults);
  EXPECT_EQ(result->degraded_calls, 0u);
  EXPECT_EQ(result->report.whatif_retries, result->whatif_retries);
  EXPECT_EQ(baseline->whatif_retries, 0u);
  EXPECT_EQ(baseline->injected_transient_faults, 0u);
}

TEST(FaultTolerantTuningTest, PermanentFaultsDegradeButFinish) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.fault_spec = "seed=13,permanent=1";
  opts.retry.initial_backoff_ms = 0.01;
  TuningSession session(prod.get(), opts);
  auto result = session.Tune(SeedWorkload());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every pricing degraded; degraded costs are configuration-independent,
  // so no structure can show a benefit and tuning honestly recommends
  // nothing rather than guessing.
  EXPECT_GT(result->degraded_calls, 0u);
  EXPECT_GT(result->injected_permanent_faults, 0u);
  EXPECT_EQ(result->report.degraded_calls, result->degraded_calls);
  EXPECT_EQ(result->recommended_cost, result->current_cost);
  for (const auto& s : result->report.statements) {
    EXPECT_TRUE(s.degraded);
  }
  // The report's text rendering surfaces the degradation.
  EXPECT_NE(result->report.ToText().find("degraded"), std::string::npos);
}

// Copies of a repeated statement share one statement id, hence one cache
// shard: a degraded entry flags every copy in the report, and a checkpoint
// carries the shared entries once, under that id.
TEST(FaultTolerantTuningTest, RepeatedStatementSharesItsDegradedEntries) {
  const std::string repeated = "SELECT i_qty FROM items WHERE i_part = 77";
  auto w = workload::Workload::FromScript(
      repeated + ";SELECT o_price FROM orders WHERE o_id = 55;" + repeated);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const std::string path =
      ::testing::TempDir() + "dta_repeated_statement.ckpt.log";
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.workload_compression = false;
  opts.fault_spec = "seed=13,permanent=1,table=items";
  opts.retry.initial_backoff_ms = 0.01;
  opts.checkpoint_path = path;
  TuningSession session(prod.get(), opts);
  auto result = session.Tune(*w);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->report.statements.size(), 3u);
  EXPECT_TRUE(result->report.statements[0].degraded);
  EXPECT_FALSE(result->report.statements[1].degraded);
  EXPECT_TRUE(result->report.statements[2].degraded);

  auto ckpt = LoadCheckpoint(path, prod->catalog());
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  std::set<uint64_t> keys;
  for (const auto& line : ckpt->cache) keys.insert(line.id);
  EXPECT_EQ(keys, (std::set<uint64_t>{w->statements()[0].id,
                                      w->statements()[1].id}));
  EXPECT_EQ(ckpt->degraded_statements, (std::set<size_t>{0, 2}));
}

// Table-targeted faults ride the same retry path end to end: only pricings
// touching the targeted table can fail, retries recover them all, and the
// recommendation stays bit-identical to the fault-free run.
TEST(FaultTolerantTuningTest, TableTargetedFaultsDoNotChangeTheRecommendation) {
  auto clean = MakeProduction();
  TuningSession clean_session(clean.get(), TuningOptions());
  auto baseline = clean_session.Tune(SeedWorkload());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto faulty = MakeProduction();
  TuningOptions opts;
  opts.fault_spec = "seed=42,transient=0.3,table=items";
  opts.retry.max_attempts = 16;
  opts.retry.initial_backoff_ms = 0.01;
  opts.retry.max_backoff_ms = 0.05;
  TuningSession faulty_session(faulty.get(), opts);
  auto result = faulty_session.Tune(SeedWorkload());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->current_cost, baseline->current_cost);
  EXPECT_EQ(result->recommended_cost, baseline->recommended_cost);
  EXPECT_EQ(StructureNames(result->recommendation),
            StructureNames(baseline->recommendation));
  // The filter matched: items pricings failed and were retried to success.
  EXPECT_GT(result->injected_transient_faults, 0u);
  EXPECT_EQ(result->degraded_calls, 0u);
}

// The evaluate-mode proposal: the current design plus an index for the
// i_part lookup.
Configuration Proposal(const server::Server& prod) {
  Configuration proposal = prod.current_configuration();
  const IndexDef index{.table = "items", .key_columns = {"i_part"}};
  EXPECT_TRUE(proposal.AddIndex(index).ok());
  return proposal;
}

// Evaluate mode shares tuning's fault tolerance: with every optimizer call
// failing permanently, each statement's pricing degrades to the heuristic
// estimate and the report says so, exactly as a tuning report does.
TEST(FaultTolerantTuningTest, EvaluateReportsDegradedPricings) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.fault_spec = "seed=13,permanent=1";
  opts.retry.initial_backoff_ms = 0.01;
  TuningSession session(prod.get(), opts);
  auto result = session.EvaluateConfiguration(SeedWorkload(), Proposal(*prod));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->report.degraded_calls, 0u);
  ASSERT_EQ(result->report.statements.size(), 7u);
  for (const auto& s : result->report.statements) {
    EXPECT_TRUE(s.degraded) << s.sql;
  }
  EXPECT_NE(result->report.ToText().find("degraded"), std::string::npos);
}

// Evaluate mode prices through the configured shard fleet, not the tuning
// server alone: when every shard fails permanently, every statement
// degrades.
TEST(FaultTolerantTuningTest, EvaluatePricesThroughTheShardFleet) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = 2;
  opts.shard_fault_spec = "0:permanent=1;1:permanent=1";
  opts.retry.initial_backoff_ms = 0.01;
  TuningSession session(prod.get(), opts);
  auto result = session.EvaluateConfiguration(SeedWorkload(), Proposal(*prod));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->report.shards, 2);
  EXPECT_GT(result->report.degraded_calls, 0u);
  ASSERT_EQ(result->report.statements.size(), 7u);
  for (const auto& s : result->report.statements) {
    EXPECT_TRUE(s.degraded) << s.sql;
  }
}

}  // namespace
}  // namespace dta::tuner
