// Delta-checkpoint correctness under hostility: unit tests for the v3
// append-only record framing (torn tails, garbage, checksum damage), a
// randomized property test that interleaves (ingest, retune, kill, resume,
// compact) and checks every interleaving against a full-snapshot oracle —
// an identical service whose log is compacted to a single base record after
// every round — and a capture-parser fuzz pass mirroring the RPC
// FrameDecoder's poisoning tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dta/checkpoint.h"
#include "dta/cost_service.h"
#include "dta/stream/capture.h"
#include "dta/stream/continuous.h"
#include "dta/xml_schema.h"
#include "server/server.h"
#include "storage/datagen.h"

namespace dta::tuner::stream {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dta_dlog_" + name + ".log";
}

std::string ReadFileRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteFileRaw(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  EXPECT_TRUE(out.good()) << path;
}

// ----------------------------------------------------- record-framing unit

// An encoder for one CheckpointLog::Write argument.
std::function<std::string()> Payload(const std::string& text) {
  return [text] { return text; };
}

TEST(DeltaLogTest, BaseAndSegmentsRoundTrip) {
  const std::string path = TempPath("roundtrip");
  std::remove(path.c_str());

  CheckpointLog writer(path);
  ASSERT_TRUE(writer.Write(Payload("base-state v1"), Payload("unused")).ok());
  ASSERT_TRUE(writer.Write(Payload("unused"), Payload("segment one")).ok());
  ASSERT_EQ(writer.segment_bytes().size(), 1u);
  EXPECT_GT(writer.segment_bytes()[0], std::string("segment one").size());
  ASSERT_TRUE(writer
                  .Write(Payload("unused"),
                         Payload("segment two\nwith newline"))
                  .ok());
  EXPECT_EQ(writer.writes(), 3u);
  EXPECT_EQ(writer.bytes(), ReadFileRaw(path).size());

  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->base, "base-state v1");
  ASSERT_EQ(log->segments.size(), 2u);
  EXPECT_EQ(log->segments[0], "segment one");
  EXPECT_EQ(log->segments[1], "segment two\nwith newline");
  EXPECT_EQ(log->dropped_records, 0u);
}

TEST(DeltaLogTest, RewritingBaseTruncatesSegments) {
  const std::string path = TempPath("compact");
  std::remove(path.c_str());
  // Threshold 0: the first appended segment compacts the log at once.
  CheckpointLog writer(path, /*compact_threshold_bytes=*/0);
  ASSERT_TRUE(writer.Write(Payload("old base"), Payload("unused")).ok());
  ASSERT_TRUE(writer.Write(Payload("compacted base"), Payload("seg")).ok());
  EXPECT_EQ(writer.compactions(), 1u);
  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->base, "compacted base");
  EXPECT_TRUE(log->segments.empty());
}

// A log only appends behind a base it wrote itself: when that base is gone,
// the append is refused instead of starting a file without one.
TEST(DeltaLogTest, AppendWithoutBaseIsRefused) {
  const std::string path = TempPath("nobase");
  std::remove(path.c_str());
  CheckpointLog writer(path);
  ASSERT_TRUE(writer.Write(Payload("base"), Payload("unused")).ok());
  std::remove(path.c_str());
  const Status s = writer.Write(Payload("unused"), Payload("orphan segment"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  auto log = ReadDeltaLog(path);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kNotFound);
}

// A new CheckpointLog's first record is a base, whatever the path holds: a
// torn tail behind an earlier run's records is replaced, never appended to.
TEST(DeltaLogTest, FirstWriteReplacesAnExistingLog) {
  const std::string path = TempPath("reopen");
  std::remove(path.c_str());
  {
    CheckpointLog first(path);
    ASSERT_TRUE(first.Write(Payload("first base"), Payload("unused")).ok());
    ASSERT_TRUE(first.Write(Payload("unused"), Payload("first seg")).ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "DTAS3 seg 999 12345\ntorn";
  }
  CheckpointLog second(path);
  ASSERT_TRUE(second.Write(Payload("second base"), Payload("unused")).ok());
  ASSERT_TRUE(second.Write(Payload("unused"), Payload("second seg")).ok());
  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->base, "second base");
  EXPECT_EQ(log->segments, std::vector<std::string>{"second seg"});
  EXPECT_EQ(log->dropped_records, 0u);
}

TEST(DeltaLogTest, MissingFileIsNotFound) {
  auto log = ReadDeltaLog(TempPath("never_written"));
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kNotFound);
}

// A crash mid-append leaves a torn tail. Truncating the log at EVERY byte
// boundary must yield either a clean read of some record prefix (with the
// torn tail counted) or, when the base itself is damaged, a refusal —
// never a crash, never a half-applied record.
TEST(DeltaLogTest, TruncationAtEveryByteIsTornNeverCorrupt) {
  const std::string path = TempPath("truncate_sweep");
  std::remove(path.c_str());
  CheckpointLog writer(path);
  ASSERT_TRUE(
      writer.Write(Payload("the base record payload"), Payload("unused"))
          .ok());
  std::vector<size_t> boundaries;  // file sizes at clean record boundaries
  boundaries.push_back(ReadFileRaw(path).size());
  ASSERT_TRUE(writer.Write(Payload("unused"), Payload("first segment")).ok());
  boundaries.push_back(ReadFileRaw(path).size());
  ASSERT_TRUE(writer.Write(Payload("unused"), Payload("second segment")).ok());
  const std::string full = ReadFileRaw(path);
  boundaries.push_back(full.size());

  auto intact = ReadDeltaLog(path);
  ASSERT_TRUE(intact.ok());
  const size_t all_segments = intact->segments.size();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileRaw(path, full.substr(0, cut));
    auto log = ReadDeltaLog(path);
    if (!log.ok()) {
      // Only acceptable when the base record itself is incomplete.
      EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument)
          << "cut=" << cut;
      continue;
    }
    EXPECT_EQ(log->base, "the base record payload") << "cut=" << cut;
    EXPECT_LE(log->segments.size(), all_segments) << "cut=" << cut;
    // A cut exactly on a record boundary tears nothing; anywhere else the
    // partial record must be counted.
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(), cut) !=
        boundaries.end();
    EXPECT_EQ(log->dropped_records, on_boundary ? 0u : 1u) << "cut=" << cut;
    for (const std::string& seg : log->segments) {
      EXPECT_TRUE(seg == "first segment" || seg == "second segment")
          << "cut=" << cut;
    }
  }
}

// Garbage appended past valid records (a crashed writer's scribble) is
// dropped; flipped payload bytes fail the checksum and stop the read there.
TEST(DeltaLogTest, GarbageTailAndChecksumDamageAreDropped) {
  const std::string path = TempPath("garbage");
  std::remove(path.c_str());
  CheckpointLog writer(path);
  ASSERT_TRUE(writer.Write(Payload("base"), Payload("unused")).ok());
  ASSERT_TRUE(writer.Write(Payload("unused"), Payload("good segment")).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "DTAS3 seg 999 12345\nnot really that long";
  }
  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->segments.size(), 1u);
  EXPECT_EQ(log->segments[0], "good segment");
  EXPECT_EQ(log->dropped_records, 1u);

  // Flip one payload byte of the good segment: checksum catches it.
  std::string full = ReadFileRaw(path);
  const size_t at = full.find("good segment");
  ASSERT_NE(at, std::string::npos);
  full[at] ^= 0x20;
  WriteFileRaw(path, full);
  auto damaged = ReadDeltaLog(path);
  ASSERT_TRUE(damaged.ok());
  EXPECT_TRUE(damaged->segments.empty());
  EXPECT_EQ(damaged->dropped_records, 1u);
}

TEST(DeltaLogTest, DamagedBaseRefusesToLoad) {
  const std::string path = TempPath("bad_base");
  std::remove(path.c_str());
  CheckpointLog writer(path);
  ASSERT_TRUE(writer.Write(Payload("precious state"), Payload("unused")).ok());
  std::string full = ReadFileRaw(path);
  const size_t at = full.find("precious");
  ASSERT_NE(at, std::string::npos);
  full[at] = 'q';
  WriteFileRaw(path, full);
  auto log = ReadDeltaLog(path);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ service prop

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

// A randomized capture over a fixed statement pool, with ticks, comments,
// garbage SQL, and malformed directives mixed in — each seed is one
// workload history.
std::string RandomCapture(uint64_t seed, size_t lines) {
  static const char* kPool[] = {
      "SELECT o_price FROM orders WHERE o_id = 55",
      "SELECT o_price FROM orders WHERE o_id = 120",
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust",
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust",
      "SELECT i_qty FROM items WHERE i_part = 77",
      "SELECT i_part, SUM(i_qty) FROM items GROUP BY i_part",
      "SELECT o_date FROM orders WHERE o_cust = 9",
  };
  Random rng(seed);
  std::string capture;
  for (size_t i = 0; i < lines; ++i) {
    const int64_t kind = rng.Uniform(0, 9);
    if (kind == 0) {
      capture += "@tick " + std::to_string(rng.Uniform(1, 500)) + "\n";
    } else if (kind == 1) {
      capture += "# comment line\n";
    } else if (kind == 2) {
      capture += "garbage ((\n";
    } else if (kind == 3) {
      capture += "@bogus directive\n";
    } else {
      capture += kPool[rng.Uniform(0, 6)];
      capture += "\n";
    }
  }
  return capture;
}

ContinuousTuner::Config PropConfig(server::Server* server) {
  ContinuousTuner::Config config;
  config.server = server;
  config.options.num_threads = 2;
  config.retune_interval_events = 5;
  config.max_templates = 4;  // small: eviction paths get exercised
  config.decay = 0.5;        // decay paths too
  return config;
}

// The oracle: the same service, but its log is compacted to a single
// full-snapshot base record after every round (threshold 0 forces it), and
// it never dies. Whatever a kill/resume chain over an append-only log
// produces must match this byte for byte.
std::string OracleDeltaText(const std::string& capture,
                            const std::string& path) {
  std::remove(path.c_str());
  auto prod = MakeProduction();
  ContinuousTuner::Config config = PropConfig(prod.get());
  config.checkpoint_path = path;
  config.compact_threshold_bytes = 0;  // every append compacts immediately
  ContinuousTuner tuner(std::move(config));
  EXPECT_TRUE(tuner.Init().ok());
  EXPECT_TRUE(tuner.Feed(capture).ok());
  EXPECT_TRUE(tuner.Finish().ok());
  return tuner.delta_text();
}

TEST(StreamCheckpointPropertyTest, RandomKillResumeChainsMatchOracle) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string capture = RandomCapture(seed, 60);
    const std::string oracle =
        OracleDeltaText(capture, TempPath("oracle_" + std::to_string(seed)));

    // Reference rounds for this capture, to bound the kill schedule.
    uint64_t total_rounds = 0;
    {
      auto prod = MakeProduction();
      ContinuousTuner tuner(PropConfig(prod.get()));
      ASSERT_TRUE(tuner.Init().ok());
      ASSERT_TRUE(tuner.Feed(capture).ok());
      ASSERT_TRUE(tuner.Finish().ok());
      total_rounds = tuner.rounds();
      EXPECT_EQ(oracle, tuner.delta_text()) << "seed=" << seed;
    }
    if (total_rounds == 0) continue;

    // A random kill/resume chain: die at a random round boundary, resume on
    // a fresh server, repeat until the capture is exhausted. A tiny compact
    // threshold on odd seeds forces mid-chain compactions.
    Random rng(seed * 977);
    const std::string path = TempPath("chain_" + std::to_string(seed));
    std::remove(path.c_str());
    std::string combined;
    uint64_t done = 0;
    while (done < total_rounds) {
      const uint64_t next_kill =
          std::min<uint64_t>(total_rounds,
                             done + static_cast<uint64_t>(rng.Uniform(1, 3)));
      auto prod = MakeProduction();
      ContinuousTuner::Config config = PropConfig(prod.get());
      config.checkpoint_path = path;
      if (seed % 2 == 1) config.compact_threshold_bytes = 1024;
      ContinuousTuner tuner(std::move(config));
      ASSERT_TRUE(tuner.Init().ok()) << "seed=" << seed << " done=" << done;
      EXPECT_EQ(tuner.resumed(), done > 0);
      EXPECT_EQ(tuner.rounds(), done);
      tuner.set_max_rounds(next_kill);
      ASSERT_TRUE(tuner.Feed(capture).ok());
      if (next_kill >= total_rounds) {
        ASSERT_TRUE(tuner.Finish().ok());
      }
      combined += tuner.delta_text();
      done = tuner.rounds();
      ASSERT_EQ(done, next_kill) << "seed=" << seed;
    }
    EXPECT_EQ(oracle, combined) << "seed=" << seed;
  }
}

// A crash mid-append leaves a torn record behind round 2's segment. The
// restarted service's first record is a base that replaces the whole file,
// so a second restart resumes from the last round the first restart
// persisted — not from the round before the torn bytes, which would drop
// every round appended behind them.
TEST(StreamCheckpointPropertyTest, TornTailDoesNotBuryLaterRounds) {
  const std::string capture = RandomCapture(2, 60);
  const std::string oracle = OracleDeltaText(capture, TempPath("torn_oracle"));
  const std::string path = TempPath("torn_tail");
  std::remove(path.c_str());
  std::string combined;
  // Starts a service on a fresh server, as a restarted process would; it
  // must resume at `start` and stops after round `stop` (0: the capture's
  // end).
  auto run = [&](uint64_t start, uint64_t stop) {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = PropConfig(prod.get());
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    ASSERT_EQ(tuner.rounds(), start);
    tuner.set_max_rounds(stop);
    ASSERT_TRUE(tuner.Feed(capture).ok());
    if (stop == 0) {
      ASSERT_TRUE(tuner.Finish().ok());
    } else {
      ASSERT_EQ(tuner.rounds(), stop);
    }
    combined += tuner.delta_text();
  };
  run(0, 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "DTAS3 seg 4096 12345\n<DTAStream Version=\"4\" Round=\"3\"";
  }
  run(2, 4);
  run(4, 0);
  EXPECT_EQ(oracle, combined);
}

// A log whose stream records escaped their cost lines into a <Memo>
// element (version 3) is refused with a status that names the format, the
// way a session refuses a version 2 document, instead of being misread.
TEST(StreamCheckpointPropertyTest, Version3LogIsRefusedByName) {
  const std::string path = TempPath("version3");
  std::remove(path.c_str());
  const std::string base =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<DTAStream Version=\"3\" Fingerprint=\"1\" Round=\"1\" "
      "LinesConsumed=\"1\" Events=\"1\">\n"
      "  <Templates/>\n"
      "  <Memo>4392475294053075884 0x1.2ae978d4fdf3bp+5 0 0 </Memo>\n"
      "  <CreatedStats/>\n"
      "</DTAStream>\n";
  CheckpointLog writer(path);
  ASSERT_TRUE(writer.Write(Payload(base), Payload("unused")).ok());
  auto prod = MakeProduction();
  ContinuousTuner::Config config = PropConfig(prod.get());
  config.checkpoint_path = path;
  ContinuousTuner tuner(std::move(config));
  const Status s = tuner.Init();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("version 3 DTAStream"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(tuner.resumed());
}

// Per-round appended segments must stay O(new work), not O(total state):
// once the workload stops changing, a round touches one template and no new
// memo entries, so its segment must be a small fraction of the base record
// that carries the whole state.
TEST(StreamCheckpointPropertyTest, SteadyStateSegmentsAreONewWork) {
  // Three diverse rounds build up state; six steady rounds repeat a single
  // statement the memo already prices under every explored configuration.
  std::string capture;
  static const char* kDiverse[] = {
      "SELECT o_price FROM orders WHERE o_id = 55",
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust",
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust",
      "SELECT i_qty FROM items WHERE i_part = 77",
      "SELECT i_part, SUM(i_qty) FROM items GROUP BY i_part",
  };
  for (int round = 0; round < 3; ++round) {
    for (const char* stmt : kDiverse) {
      capture += stmt;
      capture += "\n";
    }
  }
  for (int i = 0; i < 30; ++i) {
    capture += "SELECT o_price FROM orders WHERE o_id = 55\n";
  }

  const std::string path = TempPath("bounded");
  std::remove(path.c_str());
  auto prod = MakeProduction();
  ContinuousTuner::Config config = PropConfig(prod.get());
  config.max_templates = 8;  // no evictions: pure steady state
  config.decay = 1.0;
  config.checkpoint_path = path;
  config.compact_threshold_bytes = 1 << 30;  // never compact: pure appends
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(capture).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  ASSERT_EQ(tuner.rounds(), 9u);
  ASSERT_FALSE(tuner.base_bytes_history().empty());
  const double base_bytes =
      static_cast<double>(tuner.base_bytes_history().front());
  const auto& history = tuner.delta_bytes_history();
  ASSERT_EQ(history.size(), 8u);  // rounds 2..9 appended segments
  // Steady-state rounds: 5..9 → history[3..7].
  for (size_t i = 3; i < history.size(); ++i) {
    EXPECT_LT(static_cast<double>(history[i]), base_bytes / 2)
        << "round " << i + 2;
  }
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

// The chains above compare the service with itself; these literals pin its
// cost-cache accounting. Round 3 builds a statistic while the cache still
// holds entries of the templates evicted before it: 102 of its 136 entries
// belong to the round's statements (seeded=102), and the other 34 must
// leave with the statistic — memo=181 is those 102 plus the round's own.
TEST(StreamCheckpointPropertyTest, CounterLinesArePinnedAcrossEvictions) {
  const std::vector<std::string> expected = {
      "whatif_calls=40 seeded=0 quarantined=0 pinned=0 memo=51",
      "whatif_calls=125 seeded=51 quarantined=0 pinned=0 memo=136",
      "whatif_calls=52 seeded=102 quarantined=0 pinned=0 memo=181",
      "whatif_calls=21 seeded=80 quarantined=0 pinned=0 memo=205",
      "whatif_calls=8 seeded=183 quarantined=0 pinned=0 memo=231",
      "whatif_calls=3 seeded=173 quarantined=0 pinned=0 memo=242",
      "whatif_calls=3 seeded=190 quarantined=0 pinned=0 memo=248",
  };
  auto prod = MakeProduction();
  ContinuousTuner tuner(PropConfig(prod.get()));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(RandomCapture(3, 60)).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  EXPECT_EQ(CounterLines(tuner.delta_text()), expected) << tuner.delta_text();
  EXPECT_EQ(tuner.memo_entries(), 248u);
}

// One cost cache lent to consecutive sessions, as the continuous tuner
// lends its cache to rounds, with threads hammering each session. Copies of
// a statement share its entries, so a text is priced once per fingerprint
// however many copies ask; a later session's known statements are seeded
// hits, and only its new statement costs what-if calls.
TEST(StreamCheckpointTest, CostServiceStressOnSharedCache) {
  auto prod = MakeProduction();
  const std::string a = "SELECT o_price FROM orders WHERE o_id = 55";
  const std::string b =
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust";
  const std::string c = "SELECT i_qty FROM items WHERE i_part = 77";
  auto unique = workload::Workload::FromScript(a + ";" + b + ";" + c);
  auto first = workload::Workload::FromScript(a + ";" + b + ";" + a);
  auto second = workload::Workload::FromScript(c + ";" + b + ";" + a);
  ASSERT_TRUE(unique.ok() && first.ok() && second.ok());

  // The empty configuration plus one index per statement's table.
  std::vector<Configuration> configs(4);
  IndexDef by_id{.table = "orders", .key_columns = {"o_id"}};
  IndexDef by_part{.table = "items", .key_columns = {"i_part"}};
  IndexDef by_oid{.table = "items", .key_columns = {"i_oid"}};
  by_oid.included_columns = {"i_qty"};
  ASSERT_TRUE(configs[1].AddIndex(by_id).ok());
  ASSERT_TRUE(configs[2].AddIndex(by_part).ok());
  ASSERT_TRUE(configs[3].AddIndex(by_oid).ok());

  // Serial reference on a private cache: costs by text, and the what-if
  // calls statements a+b and then c need.
  CostService reference(prod.get(), nullptr, &*unique);
  std::map<std::string, std::vector<double>> expected;
  size_t calls_ab = 0;
  for (size_t i = 0; i < unique->size(); ++i) {
    if (i == 2) calls_ab = reference.whatif_calls();
    for (const Configuration& config : configs) {
      auto cost = reference.StatementCost(i, config);
      ASSERT_TRUE(cost.ok()) << cost.status().ToString();
      expected[unique->statements()[i].text].push_back(*cost);
    }
  }
  const size_t calls_c = reference.whatif_calls() - calls_ab;

  // Prices every (statement, configuration) pair of `w` five times over
  // from 8 threads, each walking the grid with its own stride.
  auto hammer = [&](CostService& service, const workload::Workload& w) {
    const size_t grid = w.size() * configs.size();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (size_t n = 0; n < 5 * grid; ++n) {
          const size_t pos = (n * (t + 1) + t) % grid;
          const size_t i = pos % w.size();
          const size_t j = pos / w.size();
          auto cost = service.StatementCost(i, configs[j]);
          if (!cost.ok() || *cost != expected.at(w.statements()[i].text)[j]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    return mismatches.load();
  };

  CostCache cache;
  SingleServerBackend backend(prod.get());
  {
    CostService session(&backend, nullptr, &*first, CostService::Config(),
                        &cache);
    EXPECT_EQ(session.seeded_entries(), 0u);
    EXPECT_EQ(hammer(session, *first), 0);
    EXPECT_EQ(session.whatif_calls(), calls_ab);
  }
  const size_t after_first = cache.size();
  ASSERT_GT(after_first, 0u);
  {
    CostService session(&backend, nullptr, &*second, CostService::Config(),
                        &cache);
    EXPECT_EQ(session.seeded_entries(), after_first);
    EXPECT_EQ(hammer(session, *second), 0);
    EXPECT_EQ(session.whatif_calls(), calls_c);
  }
}

// ------------------------------------------------------- capture fuzz pass

// Random byte soup through the reader: never crashes, never produces an
// event after poisoning, and chunking never changes the event sequence.
TEST(CaptureFuzzTest, RandomBytesNeverBreakFraming) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed * 131);
    std::string soup;
    const size_t n = static_cast<size_t>(rng.Uniform(0, 2000));
    for (size_t i = 0; i < n; ++i) {
      const int64_t roll = rng.Uniform(0, 99);
      if (roll < 12) {
        soup += '\n';
      } else if (roll < 18) {
        soup += '@';
      } else if (roll < 24) {
        soup += '#';
      } else {
        soup += static_cast<char>(rng.Uniform(32, 126));
      }
    }

    CaptureReader whole(/*max_line_bytes=*/128);
    whole.Consume(soup);
    whole.Finish();
    std::vector<CaptureEvent> whole_events = whole.Drain();

    CaptureReader chunked(/*max_line_bytes=*/128);
    size_t i = 0;
    while (i < soup.size()) {
      const size_t len = static_cast<size_t>(rng.Uniform(1, 17));
      chunked.Consume(std::string_view(soup).substr(i, len));
      i += len;
    }
    chunked.Finish();
    std::vector<CaptureEvent> chunked_events = chunked.Drain();

    ASSERT_EQ(whole_events.size(), chunked_events.size()) << "seed=" << seed;
    for (size_t e = 0; e < whole_events.size(); ++e) {
      EXPECT_EQ(whole_events[e].kind, chunked_events[e].kind);
      EXPECT_EQ(whole_events[e].text, chunked_events[e].text);
      EXPECT_EQ(whole_events[e].tick_ms, chunked_events[e].tick_ms);
    }
    EXPECT_EQ(whole.poisoned(), chunked.poisoned()) << "seed=" << seed;
    EXPECT_EQ(whole.lines_consumed(), chunked.lines_consumed());
    EXPECT_EQ(whole.parse_errors(), chunked.parse_errors());
    EXPECT_EQ(whole.torn_lines(), chunked.torn_lines());
  }
}

TEST(CaptureFuzzTest, TornFinalLineIsCountedNotParsed) {
  CaptureReader reader;
  reader.Consume("SELECT 1 FROM t\nSELECT 2 FROM");  // no trailing newline
  reader.Finish();
  auto events = reader.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].text, "SELECT 1 FROM t");
  EXPECT_EQ(reader.torn_lines(), 1u);
  EXPECT_EQ(reader.lines_consumed(), 1u);  // the torn line was never consumed
}

TEST(CaptureFuzzTest, PoisonIsPermanent) {
  CaptureReader reader(/*max_line_bytes=*/8);
  reader.Consume("0123456789abcdef\n");  // over the bound
  EXPECT_TRUE(reader.poisoned());
  reader.Consume("SELECT 1\n");  // perfectly fine line — too late
  reader.Finish();
  EXPECT_TRUE(reader.Drain().empty());
  EXPECT_TRUE(reader.poisoned());
}

TEST(CaptureFuzzTest, SkipLinesDiscardsExactPrefix) {
  const std::string capture =
      "SELECT 1 FROM t\n# comment\n@tick 5\nSELECT 2 FROM t\n";
  CaptureReader reader;
  reader.SkipLines(3);  // statement + comment + tick
  reader.Consume(capture);
  reader.Finish();
  auto events = reader.Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].text, "SELECT 2 FROM t");
  EXPECT_EQ(reader.lines_consumed(), 4u);
}

}  // namespace
}  // namespace dta::tuner::stream
