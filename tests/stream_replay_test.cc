// Golden end-to-end replay of the continuous tuning service: feed a fixed
// query capture through ContinuousTuner and byte-compare the full per-round
// delta output across thread counts, shard counts, chunking patterns, and
// kill-and-resume at every round boundary. The delta text is the service's
// user-visible output — string equality here is the determinism contract
// ("byte-identical rounds at any (threads x shards), resumable at any
// boundary") enforced at full strength.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dta/stream/continuous.h"
#include "dta/tenant_driver.h"
#include "dta/xml_schema.h"
#include "server/server.h"
#include "storage/datagen.h"

namespace dta::tuner::stream {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Same production fixture as checkpoint_resume_test: two joinable tables
// with real data. Every service run gets a fresh server, as a restarted
// process would.
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

// A capture whose workload shifts over time: early windows are point
// lookups, the middle windows turn join/aggregate heavy, and the tail
// concentrates on a different table — so successive rounds genuinely
// recommend different structures and the delta output has both `+` and `-`
// lines. Comments, ticks, a garbage SQL line, and a malformed directive are
// sprinkled in because a real capture has all four.
std::string GoldenCapture() {
  std::string c;
  c += "# golden capture: shifting shop workload\n";
  for (int i = 0; i < 6; ++i) {
    c += "SELECT o_price FROM orders WHERE o_id = 55\n";
    c += "@tick 250\n";
  }
  c += "not even sql ((\n";  // SQL parse error: counted, never an event
  for (int i = 0; i < 6; ++i) {
    c += "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
         "GROUP BY o_cust\n";
    c += "@tick 250\n";
  }
  c += "@tick oops\n";  // malformed directive: counted, skipped
  for (int i = 0; i < 6; ++i) {
    c += "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
         "GROUP BY o_cust\n";
    c += "@tick 250\n";
  }
  c += "\n";
  for (int i = 0; i < 6; ++i) {
    c += "SELECT i_qty FROM items WHERE i_part = 77\n";
    c += "@tick 250\n";
  }
  for (int i = 0; i < 6; ++i) {
    c += "SELECT i_part, SUM(i_qty) FROM items GROUP BY i_part\n";
    c += "@tick 250\n";
  }
  return c;
}

constexpr size_t kInterval = 6;   // events per round
constexpr uint64_t kRounds = 5;   // 30 events / 6

ContinuousTuner::Config BaseConfig(server::Server* server) {
  ContinuousTuner::Config config;
  config.server = server;
  config.options.num_threads = 1;
  config.retune_interval_events = kInterval;
  return config;
}

struct ServiceRun {
  std::string delta_text;
  uint64_t rounds = 0;
  std::string recommendation_xml;
};

// Runs the whole capture through a fresh service and returns its output.
ServiceRun RunService(ContinuousTuner::Config config,
                      const std::string& capture, size_t chunk = 0) {
  auto prod = MakeProduction();
  config.server = prod.get();
  ContinuousTuner tuner(std::move(config));
  EXPECT_TRUE(tuner.Init().ok());
  if (chunk == 0) {
    EXPECT_TRUE(tuner.Feed(capture).ok());
  } else {
    for (size_t i = 0; i < capture.size(); i += chunk) {
      EXPECT_TRUE(
          tuner.Feed(std::string_view(capture).substr(i, chunk)).ok());
    }
  }
  EXPECT_TRUE(tuner.Finish().ok());
  ServiceRun run;
  run.delta_text = tuner.delta_text();
  run.rounds = tuner.rounds();
  run.recommendation_xml =
      ConfigurationToXml(tuner.recommendation())->ToString();
  return run;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dta_stream_" + name + ".log";
}

// Each tuned round's counter line ("whatif_calls=... memo=..."), in order.
std::vector<std::string> CounterLines(const std::string& delta_text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while ((pos = delta_text.find("whatif_calls=", pos)) != std::string::npos) {
    const size_t end = delta_text.find('\n', pos);
    out.push_back(delta_text.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

// ------------------------------------------------------------------- golden

TEST(StreamReplayTest, RoundsFireOnEventCadenceAndReportDeltas) {
  const ServiceRun run = RunService(BaseConfig(nullptr), GoldenCapture());
  EXPECT_EQ(run.rounds, kRounds);
  // Every round header present, in order.
  size_t pos = 0;
  for (uint64_t r = 1; r <= kRounds; ++r) {
    const std::string header = "== round " + std::to_string(r) + " ==";
    const size_t at = run.delta_text.find(header, pos);
    ASSERT_NE(at, std::string::npos) << "missing " << header << " in:\n"
                                     << run.delta_text;
    pos = at + header.size();
  }
  // The first round recommends something from nothing: at least one `+`.
  EXPECT_NE(run.delta_text.find("\n+ "), std::string::npos) << run.delta_text;
  // The workload shift must force at least one drop somewhere.
  EXPECT_NE(run.delta_text.find("\n- "), std::string::npos) << run.delta_text;
  // Error accounting: exactly the garbage SQL line plus the bad directive.
  EXPECT_NE(run.delta_text.find("parse_errors=2"), std::string::npos)
      << run.delta_text;
}

TEST(StreamReplayTest, DeltaOutputIsByteIdenticalAcrossThreadsAndShards) {
  const ServiceRun reference = RunService(BaseConfig(nullptr), GoldenCapture());
  ASSERT_EQ(reference.rounds, kRounds);

  struct Topology {
    int threads;
    int shards;
  };
  const Topology topologies[] = {{2, 1}, {4, 1}, {1, 2}, {3, 3}};
  for (const Topology& t : topologies) {
    ContinuousTuner::Config config = BaseConfig(nullptr);
    config.options.num_threads = t.threads;
    config.options.shards = t.shards;
    const ServiceRun run = RunService(std::move(config), GoldenCapture());
    EXPECT_EQ(reference.delta_text, run.delta_text)
        << "threads=" << t.threads << " shards=" << t.shards;
    EXPECT_EQ(reference.recommendation_xml, run.recommendation_xml)
        << "threads=" << t.threads << " shards=" << t.shards;
  }
}

TEST(StreamReplayTest, ChunkingNeverAffectsOutput) {
  const ServiceRun reference = RunService(BaseConfig(nullptr), GoldenCapture());
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
    const ServiceRun run =
        RunService(BaseConfig(nullptr), GoldenCapture(), chunk);
    EXPECT_EQ(reference.delta_text, run.delta_text) << "chunk=" << chunk;
  }
}

TEST(StreamReplayTest, TimeCadenceFiresOnTicksOnly) {
  // 250ms per statement, retune every 1500ms of stream time: same windows
  // as the event cadence — and no real clock anywhere near the decision.
  ContinuousTuner::Config config = BaseConfig(nullptr);
  config.retune_interval_events = 0;
  config.retune_interval_ms = 1500;
  const ServiceRun run = RunService(std::move(config), GoldenCapture());
  EXPECT_GE(run.rounds, 4u);
  EXPECT_LE(run.rounds, 6u);
}

// The sweeps above compare the service with itself, so a change in what
// the cross-round cost cache keeps would pass them all. These literals pin
// each round's accounting: real what-if calls, the entries the cache
// already held for the round's statements (seeded), and the cache's size
// after the round (memo). Rounds 1 to 4 build statistics, so each keeps
// only its own statements' entries; round 5 builds none and only adds.
TEST(StreamReplayTest, GoldenCounterLinesArePinned) {
  const std::vector<std::string> expected = {
      "whatif_calls=10 seeded=0 quarantined=0 pinned=0 memo=11",
      "whatif_calls=39 seeded=11 quarantined=0 pinned=0 memo=51",
      "whatif_calls=80 seeded=51 quarantined=0 pinned=0 memo=57",
      "whatif_calls=56 seeded=57 quarantined=0 pinned=0 memo=140",
      "whatif_calls=10 seeded=140 quarantined=0 pinned=0 memo=163",
  };
  const ServiceRun run = RunService(BaseConfig(nullptr), GoldenCapture());
  EXPECT_EQ(CounterLines(run.delta_text), expected) << run.delta_text;
}

// A metadata-only server builds no statistics: every request fails for lack
// of data, so nothing a cached cost was priced under ever changes. Once the
// first round has priced the workload, rounds over the same statements are
// pure cache hits — a statistics request that built nothing must not clear
// the cache.
TEST(StreamReplayTest, MetadataOnlyServerSteadyRoundsMakeNoWhatIfCalls) {
  auto prod = MakeProduction();
  auto meta = server::Server::FromMetadataScript(
      prod->ScriptMetadata(), "meta", optimizer::HardwareParams());
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  std::string capture;
  for (int round = 0; round < 4; ++round) {
    capture += "@tick 100\n";
    capture += "SELECT o_id, o_price FROM orders WHERE o_cust = 7\n";
    capture += "SELECT o_id FROM orders WHERE o_price > 100 ORDER BY o_price\n";
    capture += "SELECT i_part, i_qty FROM items WHERE i_oid = 42\n";
    capture += "SELECT i_part FROM items WHERE i_qty > 10 ORDER BY i_qty\n";
  }
  ContinuousTuner::Config config = BaseConfig(meta->get());
  config.retune_interval_events = 4;
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(capture).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  const std::vector<std::string> lines = CounterLines(tuner.delta_text());
  ASSERT_EQ(lines.size(), 4u) << tuner.delta_text();
  EXPECT_EQ(lines[0].rfind("whatif_calls=0 ", 0), std::string::npos)
      << lines[0];
  for (size_t r = 1; r < lines.size(); ++r) {
    EXPECT_EQ(lines[r].rfind("whatif_calls=0 ", 0), 0u)
        << "round " << r + 1 << ": " << lines[r];
  }
}

// ------------------------------------------------------- kill-resume sweep

// Kill the service at round boundary k (stop consuming input once k rounds
// completed), then resume from the delta log on a fresh server, re-feed the
// same capture, and require the combined delta output to equal the
// uninterrupted run's, byte for byte — for every k.
TEST(StreamReplayTest, KillAtEveryRoundBoundaryResumesBitIdentically) {
  const std::string capture = GoldenCapture();
  const ServiceRun reference = RunService(BaseConfig(nullptr), capture);
  ASSERT_EQ(reference.rounds, kRounds);

  for (uint64_t kill_after = 1; kill_after < kRounds; ++kill_after) {
    const std::string path =
        TempPath("kill_" + std::to_string(kill_after));
    std::remove(path.c_str());

    std::string combined;
    {
      auto prod = MakeProduction();
      ContinuousTuner::Config config = BaseConfig(prod.get());
      config.checkpoint_path = path;
      ContinuousTuner tuner(std::move(config));
      ASSERT_TRUE(tuner.Init().ok());
      tuner.set_max_rounds(kill_after);
      ASSERT_TRUE(tuner.Feed(capture).ok());
      EXPECT_EQ(tuner.rounds(), kill_after);
      combined = tuner.delta_text();
      // Process dies here: no Finish, no destructor cooperation needed —
      // the delta log already holds everything through round kill_after.
    }
    {
      auto prod = MakeProduction();  // fresh server, as after a restart
      ContinuousTuner::Config config = BaseConfig(prod.get());
      config.checkpoint_path = path;
      ContinuousTuner tuner(std::move(config));
      ASSERT_TRUE(tuner.Init().ok()) << "kill_after=" << kill_after;
      EXPECT_TRUE(tuner.resumed()) << "kill_after=" << kill_after;
      ASSERT_TRUE(tuner.Feed(capture).ok());
      ASSERT_TRUE(tuner.Finish().ok());
      EXPECT_EQ(tuner.rounds(), kRounds) << "kill_after=" << kill_after;
      combined += tuner.delta_text();
      EXPECT_EQ(ConfigurationToXml(tuner.recommendation())->ToString(),
                reference.recommendation_xml)
          << "kill_after=" << kill_after;
    }
    EXPECT_EQ(reference.delta_text, combined)
        << "kill_after=" << kill_after;
  }
}

// A kill-resume chain under a *different* topology each leg: determinism
// must hold not only per-run but across the resume seam.
TEST(StreamReplayTest, ResumeUnderDifferentTopologyStaysIdentical) {
  const std::string capture = GoldenCapture();
  const ServiceRun reference = RunService(BaseConfig(nullptr), capture);

  const std::string path = TempPath("topology_switch");
  std::remove(path.c_str());

  std::string combined;
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig(prod.get());
    config.options.num_threads = 1;
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    tuner.set_max_rounds(2);
    ASSERT_TRUE(tuner.Feed(capture).ok());
    combined = tuner.delta_text();
  }
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig(prod.get());
    config.options.num_threads = 4;  // topology change across the seam
    config.options.shards = 2;
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    EXPECT_TRUE(tuner.resumed());
    ASSERT_TRUE(tuner.Feed(capture).ok());
    ASSERT_TRUE(tuner.Finish().ok());
    combined += tuner.delta_text();
  }
  EXPECT_EQ(reference.delta_text, combined);
}

// Resume must refuse a log written under different result-affecting options
// — silently continuing would splice two different services together.
TEST(StreamReplayTest, ResumeRefusesMismatchedStreamParameters) {
  const std::string path = TempPath("fingerprint_guard");
  std::remove(path.c_str());
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig(prod.get());
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    tuner.set_max_rounds(1);
    ASSERT_TRUE(tuner.Feed(GoldenCapture()).ok());
    ASSERT_EQ(tuner.rounds(), 1u);
  }
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig(prod.get());
  config.checkpoint_path = path;
  config.max_templates = 7;  // result-affecting stream parameter
  ContinuousTuner tuner(std::move(config));
  const Status s = tuner.Init();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

// NaN fails every ordered comparison, so a bare range check would accept
// it; Init must refuse a non-finite decay or cadence outright.
TEST(StreamReplayTest, InitRejectsNonFiniteDecay) {
  server::Server server("prod", optimizer::HardwareParams());
  ContinuousTuner::Config config = BaseConfig(&server);
  config.decay = std::numeric_limits<double>::quiet_NaN();
  ContinuousTuner tuner(std::move(config));
  EXPECT_EQ(tuner.Init().code(), StatusCode::kInvalidArgument);
}

TEST(StreamReplayTest, InitRejectsNonFiniteCadence) {
  server::Server server("prod", optimizer::HardwareParams());
  ContinuousTuner::Config config = BaseConfig(&server);
  config.retune_interval_events = 0;
  config.retune_interval_ms = std::numeric_limits<double>::quiet_NaN();
  ContinuousTuner tuner(std::move(config));
  EXPECT_EQ(tuner.Init().code(), StatusCode::kInvalidArgument);
}

// The delta sink sees exactly what delta_text() accumulates, chunked per
// round — the CLI streams rounds to stdout through it.
TEST(StreamReplayTest, DeltaSinkStreamsEachRound) {
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig(prod.get());
  std::vector<std::string> sunk;
  config.delta_sink = [&sunk](const std::string& d) { sunk.push_back(d); };
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(GoldenCapture()).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  ASSERT_EQ(sunk.size(), kRounds);
  std::string joined;
  for (const auto& d : sunk) joined += d;
  EXPECT_EQ(joined, tuner.delta_text());
}

// ------------------------------------------------------------ tenant fleet

// A fleet of continuous services under shared admission control: every
// tenant's per-round delta output must equal the standalone reference byte
// for byte — admission only delays calls, never changes what they return —
// and the merged metrics land under per-tenant namespaces.
TEST(StreamReplayTest, TenantFleetMatchesStandaloneByteForByte) {
  const std::string capture = GoldenCapture();
  ContinuousTuner::Config reference_config = BaseConfig(nullptr);
  reference_config.options.num_threads = 2;
  const ServiceRun reference = RunService(std::move(reference_config), capture);
  ASSERT_EQ(reference.rounds, kRounds);

  constexpr size_t kTenants = 3;
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<server::Server*> server_ptrs;
  std::vector<TenantSpec> tenants;
  for (size_t i = 0; i < kTenants; ++i) {
    servers.push_back(MakeProduction());
    server_ptrs.push_back(servers.back().get());
    TenantSpec spec;
    spec.name = "shop" + std::to_string(i);
    spec.options.num_threads = 2;
    spec.weight = 1 + static_cast<double>(i);
    tenants.push_back(std::move(spec));
  }

  MetricsRegistry merged;
  TenantDriverOptions driver_options;
  driver_options.admission.total_capacity = 3;  // force real contention
  driver_options.admission.per_tenant_capacity = 2;
  driver_options.metrics = &merged;
  TenantDriver driver(driver_options);

  ContinuousTuner::Config fleet;
  fleet.retune_interval_events = kInterval;
  auto outcomes = driver.RunContinuous(tenants, server_ptrs, fleet, capture,
                                       /*feedback=*/"");
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), kTenants);
  for (size_t i = 0; i < kTenants; ++i) {
    const ContinuousTenantOutcome& out = (*outcomes)[i];
    EXPECT_EQ(out.name, tenants[i].name);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.rounds, kRounds) << out.name;
    EXPECT_EQ(out.delta_text, reference.delta_text) << out.name;
    EXPECT_EQ(ConfigurationToXml(out.recommendation)->ToString(),
              reference.recommendation_xml)
        << out.name;
  }
  // Each tenant's stream counters merged under its own namespace.
  const auto counters = merged.CounterValues();
  for (const TenantSpec& spec : tenants) {
    const std::string key = "tenant." + spec.name + ".stream.rounds";
    auto it = counters.find(key);
    ASSERT_NE(it, counters.end()) << key;
    EXPECT_EQ(it->second, kRounds) << key;
  }
  // Admission held the fleet-wide cap across every tenant's rounds.
  EXPECT_GT(driver.admission_peak_inflight(), 0u);
  EXPECT_LE(driver.admission_peak_inflight(),
            static_cast<size_t>(driver_options.admission.total_capacity));
}

// Per-tenant checkpoint logs: kill the whole fleet at a round boundary,
// resume every tenant from its own delta log, and the combined output still
// matches the reference for every tenant.
TEST(StreamReplayTest, TenantFleetResumesFromPerTenantLogs) {
  const std::string capture = GoldenCapture();
  const ServiceRun reference = RunService(BaseConfig(nullptr), capture);

  constexpr size_t kTenants = 2;
  const std::string prefix = TempPath("fleet");
  std::vector<TenantSpec> tenants;
  for (size_t i = 0; i < kTenants; ++i) {
    TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.options.num_threads = 1;
    tenants.push_back(std::move(spec));
    std::remove((prefix + ".tenant." + tenants.back().name).c_str());
  }

  ContinuousTuner::Config fleet;
  fleet.retune_interval_events = kInterval;
  fleet.checkpoint_path = prefix;

  std::vector<std::string> combined(kTenants);
  {
    // First leg: each tenant runs alone (standalone tuner, same per-tenant
    // log path the driver would use) and is killed after two rounds.
    for (size_t i = 0; i < kTenants; ++i) {
      auto prod = MakeProduction();
      ContinuousTuner::Config config = BaseConfig(prod.get());
      config.checkpoint_path = prefix + ".tenant." + tenants[i].name;
      ContinuousTuner tuner(std::move(config));
      ASSERT_TRUE(tuner.Init().ok());
      tuner.set_max_rounds(2);
      ASSERT_TRUE(tuner.Feed(capture).ok());
      combined[i] = tuner.delta_text();
    }
  }
  // Second leg: the fleet resumes every tenant from its own log.
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<server::Server*> server_ptrs;
  for (size_t i = 0; i < kTenants; ++i) {
    servers.push_back(MakeProduction());
    server_ptrs.push_back(servers.back().get());
  }
  TenantDriver driver(TenantDriverOptions{});
  auto outcomes = driver.RunContinuous(tenants, server_ptrs, fleet, capture,
                                       /*feedback=*/"");
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  for (size_t i = 0; i < kTenants; ++i) {
    const ContinuousTenantOutcome& out = (*outcomes)[i];
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_TRUE(out.resumed) << out.name;
    EXPECT_EQ(out.rounds, kRounds) << out.name;
    EXPECT_EQ(combined[i] + out.delta_text, reference.delta_text) << out.name;
  }
}

// An oversized line poisons the stream: the service stops with an error
// instead of resynchronizing on garbage (mirrors the RPC FrameDecoder).
TEST(StreamReplayTest, OversizedLinePoisonsTheService) {
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig(prod.get());
  config.max_line_bytes = 64;
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  const std::string line(200, 'x');
  const Status s = tuner.Feed(line + "\n");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(tuner.stopped());
}

}  // namespace
}  // namespace dta::tuner::stream
