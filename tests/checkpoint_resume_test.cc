// Crash-safety tests: kill the tuning session immediately after every
// checkpoint it writes (via TuningSession::SetCheckpointProbe), resume on a
// fresh server, and require the resumed run to produce the bit-identical
// recommendation, costs, and report of an uninterrupted run — including
// under injected faults. Also covers checkpoint record round-trip stability,
// the log's torn-tail and version 2 handling, and the workload/options
// fingerprint guards.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "dta/checkpoint.h"
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
// real data. Every run gets a fresh server, as a restarted process would.
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

std::string CheckpointPath(const std::string& name) {
  return ::testing::TempDir() + "dta_" + name + ".ckpt.log";
}

// `checkpoint` encoded as one base record, its cost lines restored into a
// cache first (the encoder reads entries from a cache).
std::string BaseRecord(const SessionCheckpoint& checkpoint) {
  CostCache cache;
  for (const CostLine& line : checkpoint.cache) {
    cache.Restore(line.id, line.fingerprint, line.entry);
  }
  return EncodeSessionRecord(checkpoint, &cache, /*base=*/true,
                             /*cleared=*/false);
}

// The recommendation serialized exactly as the output document renders it;
// string equality here is the "bit-identical recommendation" bar.
std::string RecommendationXml(const TuningResult& r) {
  return ConfigurationToXml(r.recommendation)->ToString();
}

void ExpectIdenticalOutcome(const TuningResult& expected,
                            const TuningResult& actual,
                            const std::string& label) {
  EXPECT_EQ(expected.current_cost, actual.current_cost) << label;
  EXPECT_EQ(expected.recommended_cost, actual.recommended_cost) << label;
  EXPECT_EQ(RecommendationXml(expected), RecommendationXml(actual)) << label;
  // The counters a checkpoint record carries. enumeration_evaluations is
  // left out: a resumed search does not redo the evaluations before its
  // snapshot.
  EXPECT_EQ(expected.stats_requested, actual.stats_requested) << label;
  EXPECT_EQ(expected.stats_created, actual.stats_created) << label;
  EXPECT_EQ(expected.stats_creation_ms, actual.stats_creation_ms) << label;
  EXPECT_EQ(expected.candidates_generated, actual.candidates_generated)
      << label;
  EXPECT_EQ(expected.created_stats, actual.created_stats) << label;
  ASSERT_EQ(expected.report.statements.size(),
            actual.report.statements.size())
      << label;
  for (size_t i = 0; i < expected.report.statements.size(); ++i) {
    EXPECT_EQ(expected.report.statements[i].current_cost,
              actual.report.statements[i].current_cost)
        << label << " statement " << i;
    EXPECT_EQ(expected.report.statements[i].recommended_cost,
              actual.report.statements[i].recommended_cost)
        << label << " statement " << i;
    EXPECT_EQ(expected.report.statements[i].degraded,
              actual.report.statements[i].degraded)
        << label << " statement " << i;
  }
}

Result<TuningResult> RunTune(const TuningOptions& opts,
                             TuningSession::CheckpointProbe probe = nullptr) {
  auto prod = MakeProduction();
  TuningSession session(prod.get(), opts);
  if (probe) session.SetCheckpointProbe(std::move(probe));
  return session.Tune(SeedWorkload());
}

TuningOptions BaseOptions() {
  TuningOptions opts;
  opts.num_threads = 2;
  return opts;
}

// ------------------------------------------------- kill at every checkpoint

TEST(CheckpointResumeTest, KillAtEveryCheckpointResumesBitIdentically) {
  const std::string path = CheckpointPath("kill_everywhere");

  // Uninterrupted reference, no checkpointing involved.
  auto baseline = RunTune(BaseOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Checkpointing alone must not perturb the outcome; count the writes.
  TuningOptions writing = BaseOptions();
  writing.checkpoint_path = path;
  int total_checkpoints = 0;
  auto counting = RunTune(writing, [&total_checkpoints](int ordinal) {
    total_checkpoints = std::max(total_checkpoints, ordinal);
    return Status::Ok();
  });
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  ExpectIdenticalOutcome(*baseline, *counting, "checkpointing run");
  // At minimum: current costs, pool, enumeration phase 1, one greedy pick.
  ASSERT_GE(total_checkpoints, 3);

  TuningOptions resuming = writing;
  resuming.resume_path = path;
  for (int kill_at = 1; kill_at <= total_checkpoints; ++kill_at) {
    // Crash immediately after checkpoint `kill_at` lands on disk.
    auto killed = RunTune(writing, [kill_at](int ordinal) {
      return ordinal == kill_at ? Status::Aborted("simulated crash")
                                : Status::Ok();
    });
    ASSERT_FALSE(killed.ok()) << "kill_at " << kill_at;
    EXPECT_EQ(killed.status().code(), StatusCode::kAborted)
        << killed.status().ToString();

    // Restart: fresh server (fresh process), restore, finish.
    auto resumed = RunTune(resuming);
    ASSERT_TRUE(resumed.ok())
        << "kill_at " << kill_at << ": " << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed) << "kill_at " << kill_at;
    ExpectIdenticalOutcome(
        *baseline, *resumed,
        "resume after kill at checkpoint " + std::to_string(kill_at));
  }
}

// A quarantined pool candidate is counted once, when the pool is filtered;
// a session resumed past that point reports the count its record carries.
TEST(CheckpointResumeTest, ResumePastPoolReadyKeepsQuarantineCount) {
  const std::string path = CheckpointPath("quarantine");
  auto probe = RunTune(BaseOptions());
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  // A recommended index the search chose from the pool (the primary key
  // is part of the base, not a candidate).
  const Configuration& recommended = probe->recommendation;
  std::string chosen;
  for (size_t i = 0; i < recommended.indexes().size(); ++i) {
    if (recommended.indexes()[i].constraint_enforcing) continue;
    chosen = recommended.index_names()[i];
    break;
  }
  ASSERT_FALSE(chosen.empty());

  TuningOptions opts = BaseOptions();
  opts.quarantined_structures = {chosen};
  auto uninterrupted = RunTune(opts);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  EXPECT_EQ(uninterrupted->quarantined_candidates, 1u);

  opts.checkpoint_path = path;
  auto killed = RunTune(opts, [](int ordinal) {
    return ordinal == 2 ? Status::Aborted("simulated crash") : Status::Ok();
  });
  ASSERT_FALSE(killed.ok());
  opts.resume_path = path;
  auto resumed = RunTune(opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->quarantined_candidates, 1u);
  ExpectIdenticalOutcome(*uninterrupted, *resumed, "quarantine resume");
}

TEST(CheckpointResumeTest, ResumeUnderInjectedFaultsKeepsDegradedState) {
  const std::string path = CheckpointPath("faulty");

  TuningOptions opts = BaseOptions();
  opts.fault_spec = "seed=17,permanent=0.3";
  opts.retry.initial_backoff_ms = 0.01;

  // Uninterrupted faulty reference (deterministic: injected faults are a
  // pure hash of seed + call key).
  auto baseline = RunTune(opts);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->degraded_calls, 0u);

  TuningOptions writing = opts;
  writing.checkpoint_path = path;
  int total_checkpoints = 0;
  auto counting = RunTune(writing, [&total_checkpoints](int ordinal) {
    total_checkpoints = std::max(total_checkpoints, ordinal);
    return Status::Ok();
  });
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  ASSERT_GE(total_checkpoints, 2);

  // Kill after every checkpoint; the log carries degraded cache entries.
  TuningOptions resuming = writing;
  resuming.resume_path = path;
  for (int kill_at = 1; kill_at <= total_checkpoints; ++kill_at) {
    auto killed = RunTune(writing, [kill_at](int ordinal) {
      return ordinal == kill_at ? Status::Aborted("simulated crash")
                                : Status::Ok();
    });
    ASSERT_FALSE(killed.ok()) << "kill_at " << kill_at;

    auto resumed = RunTune(resuming);
    ASSERT_TRUE(resumed.ok())
        << "kill_at " << kill_at << ": " << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed);
    ExpectIdenticalOutcome(
        *baseline, *resumed,
        "faulty resume after kill at checkpoint " + std::to_string(kill_at));
  }
}

// ------------------------------------------------- shard topology remap

// A checkpoint written by a 4-shard run resumes on a 2-shard topology.
// Cache entries are keyed by (statement, fingerprint) — never by shard —
// so resume remaps deterministically: the outcome is bit-identical to an
// uninterrupted, unsharded baseline.
TEST(CheckpointResumeTest, FourShardCheckpointResumesOnTwoShards) {
  const std::string path = CheckpointPath("shard_remap");

  auto baseline = RunTune(BaseOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  TuningOptions writing = BaseOptions();
  writing.shards = 4;
  writing.checkpoint_path = path;
  int total_checkpoints = 0;
  auto counting = RunTune(writing, [&total_checkpoints](int ordinal) {
    total_checkpoints = std::max(total_checkpoints, ordinal);
    return Status::Ok();
  });
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  ASSERT_GE(total_checkpoints, 2);

  // Crash the 4-shard run after every checkpoint and restart it on a
  // smaller fleet (shards is excluded from the options fingerprint
  // precisely so topology can change across restarts).
  TuningOptions resuming = writing;
  resuming.shards = 2;
  resuming.resume_path = path;
  for (int kill_at = 1; kill_at <= total_checkpoints; ++kill_at) {
    auto killed = RunTune(writing, [kill_at](int ordinal) {
      return ordinal == kill_at ? Status::Aborted("simulated crash")
                                : Status::Ok();
    });
    ASSERT_FALSE(killed.ok()) << "kill_at " << kill_at;

    // The log records the writer's topology; a corrupted topology is
    // refused with a clear status instead of resuming into undefined
    // behavior. (Inspect before resuming — the resumed run checkpoints
    // too, replacing the log with its own topology.)
    if (kill_at == (total_checkpoints + 1) / 2) {
      auto prod = MakeProduction();
      auto loaded = LoadCheckpoint(path, prod->catalog());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->shards, 4);
      std::string record = BaseRecord(*loaded);
      const std::string good = "Shards=\"4\"";
      const std::string bad = "Shards=\"0\"";
      const size_t at = record.find(good);
      ASSERT_NE(at, std::string::npos);
      record.replace(at, good.size(), bad);
      SessionCheckpoint corrupt;
      const Status refused = ApplySessionRecord(record, /*base=*/true,
                                                prod->catalog(), &corrupt);
      ASSERT_FALSE(refused.ok());
      EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
          << refused.ToString();
    }

    auto resumed = RunTune(resuming);
    ASSERT_TRUE(resumed.ok())
        << "kill_at " << kill_at << ": " << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed);
    EXPECT_EQ(resumed->shards_used, 2);
    ExpectIdenticalOutcome(*baseline, *resumed,
                           "4-shard -> 2-shard resume after kill at "
                           "checkpoint " +
                               std::to_string(kill_at));
  }
}

// ------------------------------------------------------------- guard rails

TEST(CheckpointResumeTest, ResumeRejectsMismatchedWorkloadOrOptions) {
  const std::string path = CheckpointPath("mismatch");

  TuningOptions writing = BaseOptions();
  writing.checkpoint_path = path;
  auto killed = RunTune(writing, [](int ordinal) {
    return ordinal == 1 ? Status::Aborted("simulated crash") : Status::Ok();
  });
  ASSERT_FALSE(killed.ok());

  // Different search options: the checkpointed state would be meaningless.
  TuningOptions other_options = writing;
  other_options.resume_path = path;
  other_options.enumeration_k = writing.enumeration_k + 1;
  auto bad_options = RunTune(other_options);
  ASSERT_FALSE(bad_options.ok());
  EXPECT_EQ(bad_options.status().code(), StatusCode::kFailedPrecondition)
      << bad_options.status().ToString();

  // Different workload under matching options.
  TuningOptions resuming = writing;
  resuming.resume_path = path;
  auto prod = MakeProduction();
  TuningSession session(prod.get(), resuming);
  auto other = workload::Workload::FromScript(
      "SELECT i_qty FROM items WHERE i_part = 3");
  ASSERT_TRUE(other.ok());
  auto bad_workload = session.Tune(*other);
  ASSERT_FALSE(bad_workload.ok());
  EXPECT_EQ(bad_workload.status().code(), StatusCode::kFailedPrecondition)
      << bad_workload.status().ToString();

  // The matching pair still resumes fine.
  auto good = RunTune(resuming);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(CheckpointResumeTest, MissingResumeFileFails) {
  TuningOptions opts = BaseOptions();
  opts.resume_path = CheckpointPath("never_written");
  auto r = RunTune(opts);
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------- round trip

TEST(CheckpointResumeTest, CheckpointXmlRoundTripsExactly) {
  const std::string path = CheckpointPath("roundtrip");

  // Fold a finished session's log so every section (cache, pool,
  // enumeration state) is populated.
  TuningOptions writing = BaseOptions();
  writing.checkpoint_path = path;
  auto run = RunTune(writing);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto prod = MakeProduction();
  auto loaded = LoadCheckpoint(path, prod->catalog());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->phase, kCheckpointEnumeration);
  EXPECT_FALSE(loaded->cache.empty());
  EXPECT_FALSE(loaded->pool.empty());
  EXPECT_TRUE(loaded->enumeration.phase1_done);

  // Encode -> parse -> encode is a fixed point: doubles are hex floats, so
  // nothing drifts.
  const std::string record = BaseRecord(*loaded);
  SessionCheckpoint reparsed;
  const Status parsed =
      ApplySessionRecord(record, /*base=*/true, prod->catalog(), &reparsed);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  EXPECT_EQ(BaseRecord(reparsed), record);
  EXPECT_EQ(reparsed.workload_fingerprint, loaded->workload_fingerprint);
  EXPECT_EQ(reparsed.options_fingerprint, loaded->options_fingerprint);
  EXPECT_EQ(reparsed.current_costs, loaded->current_costs);
  EXPECT_EQ(reparsed.pool.size(), loaded->pool.size());
}

// ------------------------------------------------------------- the log

// A session's log is O(new work) per write: the base carries the cache
// priced so far, each segment only what was priced since the previous
// record, so every cache entry is written exactly once. A warm server (its
// statistics built by an earlier session, as in bench_pipeline) creates no
// statistics, so nothing clears the cache mid-session.
TEST(CheckpointResumeTest, LogWritesEachCacheEntryOnce) {
  const std::string path = CheckpointPath("each_entry_once");
  auto warm_run = [](const TuningOptions& opts) {
    auto prod = MakeProduction();
    TuningSession warmup(prod.get(), TuningOptions());
    EXPECT_TRUE(warmup.Tune(SeedWorkload()).ok());
    TuningSession session(prod.get(), opts);
    return session.Tune(SeedWorkload());
  };
  TuningOptions writing = BaseOptions();
  writing.checkpoint_path = path;
  auto run = warm_run(writing);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GE(run->checkpoint_writes, 4u);

  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->dropped_records, 0u);
  std::vector<std::string> records = {log->base};
  records.insert(records.end(), log->segments.begin(), log->segments.end());
  ASSERT_EQ(records.size(), run->checkpoint_writes);

  auto prod = MakeProduction();
  std::map<std::pair<uint64_t, std::string>, int> written;
  size_t lines = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(records[r].find("CacheCleared"), std::string::npos)
        << "record " << r;
    // Each record decoded on its own: its phase, pool and cost lines. The
    // base after the current-cost pass, the pool-ready segment with the
    // pool, then one segment per enumeration snapshot.
    SessionCheckpoint one;
    const Status decoded =
        ApplySessionRecord(records[r], /*base=*/true, prod->catalog(), &one);
    ASSERT_TRUE(decoded.ok()) << decoded.ToString();
    EXPECT_EQ(one.phase, std::min<int>(static_cast<int>(r) + 1,
                                       kCheckpointEnumeration))
        << "record " << r;
    EXPECT_EQ(!one.pool.empty(), r == 1) << "record " << r;
    for (const CostLine& line : one.cache) {
      ++written[{line.id, line.fingerprint}];
    }
    lines += one.cache.size();
  }
  EXPECT_EQ(written.size(), lines) << "an entry was written twice";

  // Nothing the session held at its last record is missing: a resumed run
  // prices only what the uninterrupted run priced after that record (its
  // final, unsuccessful greedy round and the report).
  TuningOptions resuming = BaseOptions();
  resuming.resume_path = path;
  auto resumed = warm_run(resuming);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalOutcome(*run, *resumed, "resume from the finished log");
  EXPECT_EQ(lines + resumed->whatif_calls + resumed->whatif_calls_saved,
            run->whatif_calls + run->whatif_calls_saved);
}

// A crash mid-append leaves a torn record at the log's tail. The resumed
// session's first record is a base that replaces the whole file, so a
// later restart reads everything it wrote instead of stopping at the
// torn bytes.
TEST(CheckpointResumeTest, TornTailIsReplacedByTheResumedBase) {
  const std::string path = CheckpointPath("torn_tail");
  auto baseline = RunTune(BaseOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  TuningOptions writing = BaseOptions();
  writing.checkpoint_path = path;
  auto killed = RunTune(writing, [](int ordinal) {
    return ordinal == 2 ? Status::Aborted("simulated crash") : Status::Ok();
  });
  ASSERT_FALSE(killed.ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "DTAS3 seg 4096 12345\n<DTASession Version=\"3\" Pha";
  }
  auto torn = ReadDeltaLog(path);
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn->dropped_records, 1u);

  // Resume from the torn log and die again two records later.
  TuningOptions resuming = writing;
  resuming.resume_path = path;
  auto second = RunTune(resuming, [](int ordinal) {
    return ordinal == 2 ? Status::Aborted("simulated crash") : Status::Ok();
  });
  ASSERT_FALSE(second.ok());
  auto rewritten = ReadDeltaLog(path);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten->dropped_records, 0u);
  EXPECT_EQ(rewritten->segments.size(), 1u);
  auto prod = MakeProduction();
  auto progress = LoadCheckpoint(path, prod->catalog());
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress->phase, kCheckpointEnumeration);

  auto resumed = RunTune(resuming);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectIdenticalOutcome(*baseline, *resumed, "resume after a torn tail");
}

// ------------------------------------------------------------- log bytes

// The hash of the whole log file after each checkpoint write of one run,
// which a probe may kill at `kill_at`.
std::vector<uint64_t> LogHashes(const TuningOptions& opts, int kill_at = 0) {
  std::vector<uint64_t> hashes;
  auto run = RunTune(opts, [&](int ordinal) {
    std::ifstream in(opts.checkpoint_path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    hashes.push_back(HashBytes(bytes));
    return ordinal == kill_at ? Status::Aborted("simulated crash")
                              : Status::Ok();
  });
  EXPECT_EQ(run.ok(), kill_at == 0) << run.status().ToString();
  return hashes;
}

// Every byte a session writes to its log, pinned after each write under
// four option sets and for a run resumed mid-log: a change to what a record
// carries, or to when it is written, fails here by name.
TEST(CheckpointResumeTest, SessionLogBytesArePinned) {
  TuningOptions plain = BaseOptions();
  plain.checkpoint_path = CheckpointPath("pinned");
  TuningOptions underived = plain;
  underived.derived_costing = false;
  TuningOptions faulty = plain;
  faulty.fault_spec = "seed=17,permanent=0.3";
  faulty.retry.initial_backoff_ms = 0.01;
  TuningOptions sharded = plain;
  sharded.shards = 4;

  const std::vector<uint64_t> plain_hashes = {
      0x7cdaa9a5be75d335ull, 0x4302fd97c1a0b5a8ull, 0xe3e9507c8ef611f4ull,
      0xdc83a0b049150d14ull};
  const std::vector<uint64_t> underived_hashes = {
      0x53b951d450f1b0c1ull, 0x55862a254e8fbc2bull, 0x94aa2e83d65b5cebull,
      0x52e0c068afaf8409ull};
  const std::vector<uint64_t> faulty_hashes = {
      0x40ec57cbe5034dafull, 0x348821b3a377c05dull, 0x0d70e14a82a83d5cull,
      0xfb8650206061b8d0ull, 0xbbb6c4904f455ec5ull, 0x8b9adc6564f9f185ull};
  const std::vector<uint64_t> sharded_hashes = {
      0xef7d5ca8cf5a0268ull, 0xb84fa4a1e7ff416bull, 0x2b7e9bd473e8401bull,
      0x96101ed63c6619caull};
  EXPECT_EQ(LogHashes(plain), plain_hashes);
  EXPECT_EQ(LogHashes(underived), underived_hashes);
  EXPECT_EQ(LogHashes(faulty), faulty_hashes);
  EXPECT_EQ(LogHashes(sharded), sharded_hashes);

  // Killed after the middle write, then resumed into the same path: the
  // resumed run's first record is a base that replaces the file.
  const int middle = static_cast<int>(plain_hashes.size() + 1) / 2;
  EXPECT_EQ(LogHashes(plain, middle),
            std::vector<uint64_t>(plain_hashes.begin(),
                                  plain_hashes.begin() + middle));
  TuningOptions resuming = plain;
  resuming.resume_path = plain.checkpoint_path;
  const std::vector<uint64_t> resumed_hashes = {0xaa98733974bdb850ull,
                                                0x3d511ad1cb389280ull};
  EXPECT_EQ(LogHashes(resuming), resumed_hashes);
}

// Version 2 wrote one <DTACheckpoint> document; resuming from one names the
// format and the way out instead of reporting a damaged log.
TEST(CheckpointResumeTest, Version2DocumentIsRefusedByName) {
  const std::string path = CheckpointPath("version2");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
           "<DTACheckpoint Version=\"2\" WorkloadFingerprint=\"1\" "
           "OptionsFingerprint=\"2\" Phase=\"1\" Shards=\"1\" "
           "Transport=\"inproc\" StatsRequested=\"0\" StatsCreated=\"0\" "
           "StatsCreationMs=\"0x0p+0\" CandidatesGenerated=\"0\">\n"
           "  <CurrentCosts>\n    <Cost>0x1.8p+3</Cost>\n  </CurrentCosts>\n"
           "  <MissingStats/>\n  <CreatedStats/>\n"
           "  <CostCache>0 0x1.8p+3 0 0 </CostCache>\n"
           "</DTACheckpoint>\n";
  }
  TuningOptions opts = BaseOptions();
  opts.resume_path = path;
  auto r = RunTune(opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("version 2 DTACheckpoint"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("without --resume"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace dta::tuner
