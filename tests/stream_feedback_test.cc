// DBA feedback biasing of the continuous tuning service: an accepted
// structure is pinned and survives a workload shift that would otherwise
// drop it; a rejected structure is quarantined out of the recommendation
// for the configured horizon and becomes re-eligible afterwards; unknown
// targets are counted and dropped; and the whole feedback state survives a
// kill/resume. Metrics assertions ride along: the stream.feedback.*
// counters must track exactly what was applied.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "dta/stream/continuous.h"
#include "dta/stream/feedback.h"
#include "dta/xml_schema.h"
#include "server/server.h"
#include "storage/datagen.h"

namespace dta::tuner::stream {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

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

constexpr size_t kInterval = 5;

ContinuousTuner::Config BaseConfig() {
  ContinuousTuner::Config config;
  config.options.num_threads = 2;
  config.retune_interval_events = kInterval;
  config.quarantine_rounds = 2;
  // Recency decay, so a workload shift actually shifts the compressed
  // workload instead of accumulating history forever.
  config.decay = 0.5;
  return config;
}

// One round's worth of a stable orders-heavy window.
std::string OrdersWindow() {
  std::string w;
  w += "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
       "GROUP BY o_cust\n";
  w += "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
       "GROUP BY o_cust\n";
  w += "SELECT o_price FROM orders WHERE o_id = 55\n";
  w += "SELECT o_price FROM orders WHERE o_id = 55\n";
  w += "SELECT o_price FROM orders WHERE o_id = 120\n";
  return w;
}

// One round's worth of an items-only window (the workload shift).
std::string ItemsWindow() {
  std::string w;
  w += "SELECT i_qty FROM items WHERE i_part = 77\n";
  w += "SELECT i_qty FROM items WHERE i_part = 77\n";
  w += "SELECT i_part, SUM(i_qty) FROM items GROUP BY i_part\n";
  w += "SELECT i_part, SUM(i_qty) FROM items GROUP BY i_part\n";
  w += "SELECT i_qty FROM items WHERE i_part = 9\n";
  return w;
}

// First recommended structure that is an actual tuning candidate, plus its
// 1-based feedback position. Existing constraint-enforcing indexes ride
// along in every recommendation — they are not pool candidates, so they can
// be neither dropped by a workload shift nor quarantined; feedback tests
// must target a real candidate.
std::string FirstCandidateName(const Configuration& rec,
                               size_t* position = nullptr) {
  size_t pos = 1;
  for (const auto& ix : rec.indexes()) {
    if (!ix.constraint_enforcing) {
      if (position != nullptr) *position = pos;
      return ix.CanonicalName();
    }
    ++pos;
  }
  if (!rec.views().empty()) {
    if (position != nullptr) *position = pos;
    return rec.views().begin()->CanonicalName();
  }
  return "";
}

bool RecommendationContains(const Configuration& rec,
                            const std::string& name) {
  return rec.ContainsStructure(name);
}

// Range scans on orders.o_date and items.i_part: with index and view tuning
// off, the recommendation partitions both tables.
std::string RangeWindow() {
  std::string w;
  w += "SELECT o_price FROM orders WHERE o_date < '1994-04-01'\n";
  w += "SELECT o_cust FROM orders WHERE o_date >= '1997-10-01'\n";
  w += "SELECT o_price FROM orders WHERE o_date BETWEEN '1995-01-01' AND "
       "'1995-03-01'\n";
  w += "SELECT i_qty FROM items WHERE i_part < 150\n";
  w += "SELECT i_qty FROM items WHERE i_part BETWEEN 1700 AND 1800\n";
  return w;
}

// True if `rec` partitions `table` by exactly `scheme`.
bool PartitionsBy(const Configuration& rec, const std::string& table,
                  const catalog::PartitionScheme& scheme) {
  const catalog::PartitionScheme* got = rec.FindTablePartitioning(table);
  return got != nullptr && *got == scheme;
}

// ------------------------------------------------------------------ accept

TEST(StreamFeedbackTest, AcceptedStructureSurvivesWorkloadShift) {
  // Reference: without feedback, the shift to items drops every orders
  // structure — otherwise pinning would be vacuous here.
  std::string first_name;
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig();
    config.server = prod.get();
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
    ASSERT_EQ(tuner.rounds(), 1u);
    first_name = FirstCandidateName(tuner.recommendation());
    ASSERT_FALSE(first_name.empty());
    ASSERT_TRUE(tuner.Feed(ItemsWindow() + ItemsWindow() + ItemsWindow())
                    .ok());
    ASSERT_TRUE(tuner.Finish().ok());
    EXPECT_FALSE(RecommendationContains(tuner.recommendation(), first_name))
        << "the shift was supposed to drop " << first_name;
  }

  // Accepting that structure (by position) pins it: it joins the
  // user-specified configuration of every later round and survives the
  // identical shift.
  MetricsRegistry metrics;
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig();
  config.server = prod.get();
  config.metrics = &metrics;
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 1u);
  size_t position = 0;
  EXPECT_EQ(FirstCandidateName(tuner.recommendation(), &position),
            first_name);

  tuner.ConsumeFeedback("accept " + std::to_string(position) + "\n");
  ASSERT_TRUE(tuner.Feed(ItemsWindow() + ItemsWindow() + ItemsWindow()).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  ASSERT_EQ(tuner.rounds(), 4u);
  EXPECT_TRUE(RecommendationContains(tuner.recommendation(), first_name));
  EXPECT_EQ(tuner.feedback().accepted(), 1u);
  EXPECT_EQ(metrics.GetCounter("stream.feedback.accepted")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("stream.feedback.rejected")->value(), 0u);
  // The delta text reports the pin from the accepting round on.
  EXPECT_NE(tuner.delta_text().find("pinned=1"), std::string::npos);
}

// ------------------------------------------------------------------ reject

TEST(StreamFeedbackTest, RejectedStructureIsQuarantinedThenReEligible) {
  MetricsRegistry metrics;
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig();  // quarantine_rounds = 2
  config.server = prod.get();
  config.metrics = &metrics;
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());

  // Round 1 under the stable window recommends something.
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 1u);
  const std::string name = FirstCandidateName(tuner.recommendation());
  ASSERT_FALSE(name.empty());

  // Reject it by name; rounds 2 and 3 run the *same* workload but must not
  // recommend it (the quarantine horizon covers both rounds).
  tuner.ConsumeFeedback("reject " + name + "\n");
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 2u);
  EXPECT_FALSE(RecommendationContains(tuner.recommendation(), name));
  EXPECT_FALSE(tuner.feedback().QuarantinedAt(2).empty());

  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 3u);
  EXPECT_FALSE(RecommendationContains(tuner.recommendation(), name));

  // Round 4: the horizon expired; the structure must re-earn its seat — and
  // under the unchanged workload it does.
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  ASSERT_EQ(tuner.rounds(), 4u);
  EXPECT_TRUE(tuner.feedback().QuarantinedAt(4).empty());
  EXPECT_TRUE(RecommendationContains(tuner.recommendation(), name));

  EXPECT_EQ(tuner.feedback().rejected(), 1u);
  EXPECT_EQ(metrics.GetCounter("stream.feedback.rejected")->value(), 1u);
  // The rejecting round reports the candidates it filtered.
  EXPECT_NE(tuner.delta_text().find("quarantined=1"), std::string::npos)
      << tuner.delta_text();
  // And the recommendation transition shows up as delta lines: dropped at
  // round 2, re-added at round 4.
  EXPECT_NE(tuner.delta_text().find("- " + name), std::string::npos);
  const size_t round4 = tuner.delta_text().find("== round 4 ==");
  ASSERT_NE(round4, std::string::npos);
  EXPECT_NE(tuner.delta_text().find("+ " + name, round4), std::string::npos);
}

// A recommended table partitioning rejected by position leaves the
// candidate pool for the horizon, and a reject after an accept also unpins
// it. The recommendation names a partitioning the way the pool does, so the
// quarantine matches the pool candidate.
TEST(StreamFeedbackTest, RejectedPartitioningIsQuarantined) {
  for (const bool accept_first : {false, true}) {
    SCOPED_TRACE(accept_first ? "accept, then reject" : "reject");
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig();  // quarantine_rounds = 2
    config.server = prod.get();
    config.options.tune_indexes = false;
    config.options.tune_materialized_views = false;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());

    ASSERT_TRUE(tuner.Feed(RangeWindow()).ok());
    ASSERT_EQ(tuner.rounds(), 1u);
    ASSERT_FALSE(tuner.recommendation().table_partitioning().empty());
    const auto [table, scheme] =
        *tuner.recommendation().table_partitioning().begin();
    // Partitioned tables print after every index and view.
    auto first_partitioning_position = [&] {
      const Configuration& rec = tuner.recommendation();
      return std::to_string(rec.indexes().size() + rec.views().size() + 1);
    };

    // The feedback file only grows; the tuner consumes it by line cursor.
    std::string feedback_file;
    if (accept_first) {
      feedback_file += "accept " + first_partitioning_position() + "\n";
      tuner.ConsumeFeedback(feedback_file);
      ASSERT_TRUE(tuner.Feed(RangeWindow()).ok());
      ASSERT_TRUE(PartitionsBy(tuner.recommendation(), table, scheme));
      EXPECT_TRUE(PartitionsBy(tuner.feedback().pinned(), table, scheme));
    }
    const uint64_t rejecting_round = tuner.rounds() + 1;
    feedback_file += "reject " + first_partitioning_position() + "\n";
    tuner.ConsumeFeedback(feedback_file);
    for (uint64_t round = rejecting_round; round < rejecting_round + 2;
         ++round) {
      ASSERT_TRUE(tuner.Feed(RangeWindow()).ok());
      ASSERT_EQ(tuner.rounds(), round);
      EXPECT_FALSE(PartitionsBy(tuner.recommendation(), table, scheme))
          << table << " is still partitioned in round " << round;
    }
    EXPECT_TRUE(tuner.feedback().pinned().table_partitioning().empty());
    const std::string rejecting =
        "== round " + std::to_string(rejecting_round) + " ==";
    const size_t at = tuner.delta_text().find(rejecting);
    ASSERT_NE(at, std::string::npos);
    EXPECT_NE(tuner.delta_text().find("quarantined=1", at), std::string::npos)
        << tuner.delta_text();
    ASSERT_TRUE(tuner.Finish().ok());
  }
}

// ----------------------------------------------------------------- unknown

TEST(StreamFeedbackTest, UnknownTargetsAreCountedAndDropped) {
  MetricsRegistry metrics;
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig();
  config.server = prod.get();
  config.metrics = &metrics;
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 1u);

  tuner.ConsumeFeedback(
      "accept 99\n"               // no such position
      "accept no_such_index\n"    // accepts need a resolvable definition
      "frobnicate everything\n"   // no such verb
      "reject by_name_is_fine\n"  // rejects work by name alone
      );
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  EXPECT_EQ(tuner.feedback().unknown(), 3u);
  EXPECT_EQ(tuner.feedback().rejected(), 1u);
  EXPECT_EQ(metrics.GetCounter("stream.feedback.unknown")->value(), 3u);
}

// Re-reading a growing feedback file is idempotent: the consumed-lines
// cursor skips everything already taken.
TEST(StreamFeedbackTest, FeedbackFileRereadsAreIdempotent) {
  FeedbackState state;
  state.Consume("reject idx_a\n");
  state.Consume("reject idx_a\nreject idx_b\n");
  state.Consume("reject idx_a\nreject idx_b\n");
  ASSERT_EQ(state.pending().size(), 2u);
  EXPECT_EQ(state.pending()[0].target, "idx_a");
  EXPECT_EQ(state.pending()[1].target, "idx_b");
  // An unterminated trailing line is not consumed — the writer may still be
  // appending it.
  state.Consume("reject idx_a\nreject idx_b\nreject idx_");
  EXPECT_EQ(state.pending().size(), 2u);
  state.Consume("reject idx_a\nreject idx_b\nreject idx_c\n");
  ASSERT_EQ(state.pending().size(), 3u);
  EXPECT_EQ(state.pending()[2].target, "idx_c");
}

// Round-tagged directives wait for their round.
TEST(StreamFeedbackTest, RoundTaggedDirectivesWaitForTheirRound) {
  auto prod = MakeProduction();
  ContinuousTuner::Config config = BaseConfig();
  config.server = prod.get();
  ContinuousTuner tuner(std::move(config));
  ASSERT_TRUE(tuner.Init().ok());
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  const std::string name = FirstCandidateName(tuner.recommendation());
  ASSERT_FALSE(name.empty());

  // Tagged for round 3: round 2 must still recommend it.
  tuner.ConsumeFeedback("@3 reject " + name + "\n");
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_EQ(tuner.rounds(), 2u);
  EXPECT_TRUE(RecommendationContains(tuner.recommendation(), name));
  ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
  ASSERT_TRUE(tuner.Finish().ok());
  ASSERT_EQ(tuner.rounds(), 3u);
  EXPECT_FALSE(RecommendationContains(tuner.recommendation(), name));
}

// -------------------------------------------------------------- kill/resume

// Feedback state — the pin, the quarantine horizon, and the not-yet-applied
// pending directives — must survive a kill/resume with the identical
// round-by-round effect.
TEST(StreamFeedbackTest, FeedbackStateSurvivesKillAndResume) {
  const std::string path =
      ::testing::TempDir() + "dta_stream_feedback_resume.log";
  std::remove(path.c_str());
  const std::string capture =
      OrdersWindow() + OrdersWindow() + OrdersWindow() + OrdersWindow();

  // Uninterrupted reference with feedback applied between rounds 1 and 2.
  std::string reference_tail;
  std::string name;
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig();
    config.server = prod.get();
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    ASSERT_TRUE(tuner.Feed(OrdersWindow()).ok());
    name = FirstCandidateName(tuner.recommendation());
    tuner.ConsumeFeedback("reject " + name + "\n@4 reject extra_name\n");
    ASSERT_TRUE(
        tuner.Feed(OrdersWindow() + OrdersWindow() + OrdersWindow()).ok());
    ASSERT_TRUE(tuner.Finish().ok());
    ASSERT_EQ(tuner.rounds(), 4u);
    const size_t round2 = tuner.delta_text().find("== round 2 ==");
    ASSERT_NE(round2, std::string::npos);
    reference_tail = tuner.delta_text().substr(round2);
  }

  // Same service, checkpointed, killed right after consuming the feedback
  // (round boundary 1).
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig();
    config.server = prod.get();
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    tuner.set_max_rounds(1);
    ASSERT_TRUE(tuner.Feed(capture).ok());
    ASSERT_EQ(tuner.rounds(), 1u);
    tuner.ConsumeFeedback("reject " + name + "\n@4 reject extra_name\n");
    // The consumed-but-unapplied directives only reach the log at the next
    // round boundary — which the kill preempts. Re-reading the feedback
    // file after resume must re-consume them (the cursor checkpointed at 0
    // lines... no: the cursor checkpoints at the last boundary, so resume
    // re-reads both lines).
  }
  {
    auto prod = MakeProduction();
    ContinuousTuner::Config config = BaseConfig();
    config.server = prod.get();
    config.checkpoint_path = path;
    ContinuousTuner tuner(std::move(config));
    ASSERT_TRUE(tuner.Init().ok());
    EXPECT_TRUE(tuner.resumed());
    // The CLI re-reads the whole feedback file on resume; the cursor in the
    // checkpoint decides what is new.
    tuner.ConsumeFeedback("reject " + name + "\n@4 reject extra_name\n");
    ASSERT_TRUE(tuner.Feed(capture).ok());
    ASSERT_TRUE(tuner.Finish().ok());
    ASSERT_EQ(tuner.rounds(), 4u);
    EXPECT_EQ(tuner.delta_text(), reference_tail);
    // The quarantine from round 2 covered rounds 2 and 3; by round 4 the
    // structure re-earned its seat under the unchanged workload.
    EXPECT_TRUE(RecommendationContains(tuner.recommendation(), name));
  }
}

}  // namespace
}  // namespace dta::tuner::stream
