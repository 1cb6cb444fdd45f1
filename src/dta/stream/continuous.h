// Continuous tuning service (always-on mode; ROADMAP "Continuous tuning").
//
// The one-shot pipeline tunes a fixed workload once. This driver runs the
// same pipeline as a *service*: it ingests a query-capture stream
// (dta/stream/capture.h), folds events into an incrementally maintained
// compressed workload (dta/stream/stream_workload.h), re-tunes on a cadence
// (every N events and/or every T fake-clock milliseconds of `@tick` time),
// applies DBA feedback between rounds (dta/stream/feedback.h), and emits
// one *recommendation delta* per round — the structures added and dropped
// versus the previous round, plus the round's costs and counters.
//
// What keeps steady-state rounds cheap:
//   * one cost cache (CostCache) for the service's lifetime, keyed on
//     (statement id, configuration fingerprint): the id hashes the text,
//     so it survives template arrivals and evictions. Every round's session
//     prices straight into it (TuningSession::SetCostCache), so statements
//     the stream did not change re-price from cache, not the optimizer;
//   * statistics persist on the long-lived server, so later rounds' stats
//     phases are no-ops. A round that DOES create statistics invalidates
//     costs priced without them: only its own statements' entries survive;
//   * checkpoints are append-only delta segments in the checkpoint log that
//     one-shot sessions also write (dta/checkpoint.h CheckpointLog), in the
//     sessions' record layout: a <DTAStream Version="4"> document, then the
//     cost lines. A round appends only the templates it touched, the (small)
//     recommendation/feedback state and the cache entries it inserted — or,
//     marked CacheCleared, the whole cache after creating statistics: O(new
//     work), not O(total state), compacted into one base record past a byte
//     threshold.
//
// The determinism contract extends the repo-wide one: with a fixed capture
// (and fake clock), the per-round delta text is byte-identical at any
// (threads × shards × tenants) combination, and a service killed at any
// round boundary and resumed from the delta log reproduces the remaining
// rounds bit-exactly. The replay and property tests in tests/ hold it.
//
// Single-threaded by design: one thread owns Feed()/Finish(); parallelism
// lives inside each round's TuningSession, which fans costing out across
// its own pool. No locks here.

#ifndef DTA_DTA_STREAM_CONTINUOUS_H_
#define DTA_DTA_STREAM_CONTINUOUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/physical_design.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "dta/checkpoint.h"
#include "dta/cost_service.h"
#include "dta/stream/capture.h"
#include "dta/stream/feedback.h"
#include "dta/stream/stream_workload.h"
#include "dta/tuning_options.h"
#include "dta/tuning_session.h"
#include "server/server.h"

namespace dta::tuner::stream {

class ContinuousTuner {
 public:
  struct Config {
    server::Server* server = nullptr;  // long-lived tuning server
    TuningOptions options;             // base options for every round

    // Retune cadence: after this many successfully parsed statement events
    // (0 disables) and/or after this much accumulated `@tick` stream time
    // (0 disables). At least one must be set.
    size_t retune_interval_events = 0;
    double retune_interval_ms = 0;

    // Template table bounds (stream_workload.h).
    size_t max_templates = 256;
    double decay = 1.0;

    // Rejected structures stay quarantined for this many rounds.
    uint64_t quarantine_rounds = 3;

    // Delta-log checkpoint path (empty disables checkpointing) and the
    // cumulative-segment-bytes threshold past which the log is compacted
    // back into a single base record.
    std::string checkpoint_path;
    size_t compact_threshold_bytes = 256 * 1024;

    // Capture framing bound (capture.h).
    size_t max_line_bytes = CaptureReader::kDefaultMaxLineBytes;

    // Observability (all optional; clock only times in-session phases —
    // cadence time comes from `@tick` directives, never a real clock).
    MetricsRegistry* metrics = nullptr;
    Tracer* tracer = nullptr;
    const Clock* clock = nullptr;

    // Multi-tenant identity (tenant_driver.h); null admission = standalone.
    TenantContext tenant;

    // Invoked with each round's delta text as it is produced (the CLI
    // streams these to stdout). The same text also accumulates in
    // delta_text() regardless.
    std::function<void(const std::string&)> delta_sink;
  };

  explicit ContinuousTuner(Config config);

  // Validates the config and, when a delta log exists at checkpoint_path,
  // resumes from it: restores the stream state and re-creates the
  // accumulated statistics on the (fresh) server so the restored cost cache
  // stays valid. Call exactly once, before Feed.
  Status Init();

  // Feeds raw capture bytes; complete events are processed immediately and
  // tuning rounds run inline as the cadence fires. Returns the first
  // round's error, if any (the service stops there).
  Status Feed(std::string_view bytes);

  // End of capture: accounts a torn trailing line. Does NOT force a final
  // round — rounds fire on cadence only, so a partial window's events wait
  // (they are checkpointed as ingested state, not lost).
  Status Finish();

  // Feedback file contents (full text; consumed incrementally by line
  // cursor — see feedback.h). The CLI re-reads the file before each Feed.
  void ConsumeFeedback(const std::string& text);

  // ---- Round outputs.
  const std::string& delta_text() const { return delta_text_; }
  uint64_t rounds() const { return rounds_; }
  const catalog::Configuration& recommendation() const {
    return previous_recommendation_;
  }
  // True once the stream is poisoned or max_rounds was reached.
  bool stopped() const { return stopped_; }

  // ---- Test hooks.
  // Stop consuming input once `n` rounds have completed — a deterministic
  // "kill at round boundary n" for the replay/resume tests. 0 = unlimited.
  void set_max_rounds(uint64_t n) { max_rounds_ = n; }
  // Per-round appended segment bytes (base writes and compactions excluded
  // — those are O(total state) by design and amortized by the threshold).
  const std::vector<size_t>& delta_bytes_history() const {
    return log_.segment_bytes();
  }
  const std::vector<size_t>& base_bytes_history() const {
    return log_.base_bytes();
  }
  // True when Init() resumed from an existing delta log.
  bool resumed() const { return resumed_; }
  // Entries in the cross-round cost cache.
  size_t memo_entries() const { return cache_.size(); }
  const StreamWorkload& stream_workload() const { return workload_; }
  const FeedbackState& feedback() const { return feedback_; }

 private:
  Status ProcessLine(std::string_view line_with_newline);
  Status MaybeRound();
  Status RunRound();
  // One <DTAStream Version="4"> record, a base or a segment (EncodeRecord
  // in dta/checkpoint.h); takes the cache's new entries.
  std::string EncodeRecord(bool base);
  Status LoadFromLog(const DeltaLogContents& log);
  // Restores state from a base record or applies one segment.
  Status ApplyRecord(const std::string& payload, bool base);
  void ExportRoundMetrics();

  Config config_;
  CaptureReader reader_;
  StreamWorkload workload_;
  FeedbackState feedback_;

  std::string pending_;  // bytes not yet forming a complete line
  bool initialized_ = false;
  bool stopped_ = false;
  bool resumed_ = false;

  uint64_t rounds_ = 0;
  uint64_t max_rounds_ = 0;
  size_t events_at_last_round_ = 0;
  double stream_ms_ = 0;          // accumulated @tick time
  double round_started_ms_ = 0;   // stream_ms_ at the last round boundary

  CostCache cache_;
  catalog::Configuration previous_recommendation_;
  std::vector<stats::StatsKey> created_stats_;  // accumulated, creation order

  std::string delta_text_;
  CheckpointLog log_;

  // Per-round delta bookkeeping (what the last round's segment must carry):
  // set by RunRound for EncodeRecord. The last round created
  // created_stats_[created_stats_before_round_...].
  size_t created_stats_before_round_ = 0;
  std::vector<uint64_t> dirty_templates_last_round_;
  std::vector<uint64_t> evicted_templates_last_round_;

  // Resume bookkeeping.
  size_t restored_lines_consumed_ = 0;

  // Last-exported absolutes, so per-round metric increments stay exact.
  struct Exported {
    size_t events = 0;
    size_t parse = 0;
    size_t accepted = 0;
    size_t rejected = 0;
    size_t unknown = 0;
    size_t evictions = 0;
    size_t segments = 0;
    size_t compactions = 0;
  };
  Exported exported_;
};

}  // namespace dta::tuner::stream

#endif  // DTA_DTA_STREAM_CONTINUOUS_H_
