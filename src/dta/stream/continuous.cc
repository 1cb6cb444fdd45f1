#include "dta/stream/continuous.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dta/checkpoint.h"
#include "dta/xml_schema.h"
#include "xmlio/xml.h"

namespace dta::tuner::stream {

namespace {

size_t StructureCount(const catalog::Configuration& c) {
  return c.indexes().size() + c.views().size() + c.table_partitioning().size();
}

// Result-affecting fingerprint of the whole service configuration: the base
// tuning options plus every stream parameter that shapes rounds. Guards a
// delta-log resume the same way the options fingerprint guards a session
// resume.
uint64_t StreamFingerprint(const ContinuousTuner::Config& config) {
  return HashCombine(
      OptionsFingerprint(config.options),
      HashBytes(StrFormat(
          "%zu|%a|%llu|%zu|%a", config.retune_interval_events,
          config.retune_interval_ms,
          static_cast<unsigned long long>(config.quarantine_rounds),
          config.max_templates, config.decay)));
}

void TemplateToXml(const TemplateEntry& entry, xml::Element* parent) {
  xml::Element* t = parent->AddChild("T");
  t->SetAttr("Sig", U64Str(entry.signature));
  t->SetAttr("First", U64Str(entry.first_seen));
  t->SetAttr("Touch", U64Str(entry.touch_round));
  t->SetAttr("W", HexStr(entry.weight));
  t->AddTextChild("Text", entry.text);
}

TemplateEntry TemplateFromXml(const xml::Element& t) {
  TemplateEntry entry;
  entry.signature = ParseU64(t.Attr("Sig"));
  entry.first_seen = ParseU64(t.Attr("First"));
  entry.touch_round = ParseU64(t.Attr("Touch"));
  entry.weight = ParseDouble(t.Attr("W"));
  if (const xml::Element* text = t.FindChild("Text")) entry.text = text->text();
  return entry;
}

}  // namespace

ContinuousTuner::ContinuousTuner(Config config)
    : config_(std::move(config)),
      reader_(config_.max_line_bytes),
      workload_(StreamWorkload::Config{config_.max_templates, config_.decay}),
      log_(config_.checkpoint_path, config_.compact_threshold_bytes) {}

Status ContinuousTuner::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("ContinuousTuner::Init called twice");
  }
  if (config_.server == nullptr) {
    return Status::InvalidArgument("continuous tuning needs a server");
  }
  // NaN fails every ordered comparison, so the range checks below would
  // wave it through: finiteness is checked first.
  if (!std::isfinite(config_.retune_interval_ms)) {
    return Status::InvalidArgument("retune_interval_ms must be finite");
  }
  if (config_.retune_interval_events == 0 && config_.retune_interval_ms <= 0) {
    return Status::InvalidArgument(
        "continuous tuning needs a retune cadence (events and/or stream ms)");
  }
  if (config_.max_templates == 0) {
    return Status::InvalidArgument("max_templates must be positive");
  }
  if (!std::isfinite(config_.decay) || config_.decay <= 0 ||
      config_.decay > 1) {
    return Status::InvalidArgument("decay must be in (0, 1]");
  }
  if (!config_.checkpoint_path.empty()) {
    auto log = ReadDeltaLog(config_.checkpoint_path);
    if (log.ok()) {
      DTA_RETURN_IF_ERROR(LoadFromLog(*log));
    } else if (log.status().code() != StatusCode::kNotFound) {
      return log.status();
    }
  }
  workload_.BeginRound(rounds_ + 1);
  initialized_ = true;
  return Status::Ok();
}

Status ContinuousTuner::Feed(std::string_view bytes) {
  if (!initialized_) {
    return Status::FailedPrecondition("ContinuousTuner::Init must run first");
  }
  pending_.append(bytes.data(), bytes.size());
  // One line at a time, so the reader's consumed-lines cursor is exact at
  // every round boundary — a kill at a boundary resumes by skipping exactly
  // the processed prefix.
  while (!stopped_) {
    const size_t nl = pending_.find('\n');
    if (nl == std::string::npos) break;
    const Status s = ProcessLine(std::string_view(pending_).substr(0, nl + 1));
    pending_.erase(0, nl + 1);
    if (!s.ok()) {
      stopped_ = true;
      return s;
    }
  }
  return Status::Ok();
}

Status ContinuousTuner::Finish() {
  if (!initialized_) {
    return Status::FailedPrecondition("ContinuousTuner::Init must run first");
  }
  if (!stopped_ && !pending_.empty()) {
    reader_.Consume(pending_);
    pending_.clear();
  }
  reader_.Finish();
  return Status::Ok();
}

void ContinuousTuner::ConsumeFeedback(const std::string& text) {
  feedback_.Consume(text);
}

Status ContinuousTuner::ProcessLine(std::string_view line_with_newline) {
  reader_.Consume(line_with_newline);
  if (reader_.poisoned()) {
    return Status::InvalidArgument(
        "capture stream poisoned: line exceeds the framing bound");
  }
  for (CaptureEvent& ev : reader_.Drain()) {
    if (ev.kind == CaptureEvent::Kind::kTick) {
      stream_ms_ += ev.tick_ms;
    } else {
      (void)workload_.Ingest(ev.text);
    }
    DTA_RETURN_IF_ERROR(MaybeRound());
    if (stopped_) break;
  }
  return Status::Ok();
}

Status ContinuousTuner::MaybeRound() {
  const bool events_due =
      config_.retune_interval_events > 0 &&
      workload_.events() - events_at_last_round_ >=
          config_.retune_interval_events;
  const bool time_due = config_.retune_interval_ms > 0 &&
                        stream_ms_ - round_started_ms_ >=
                            config_.retune_interval_ms;
  if (!events_due && !time_due) return Status::Ok();
  return RunRound();
}

Status ContinuousTuner::RunRound() {
  const uint64_t round = rounds_ + 1;
  DTA_TRACE_PHASE(config_.tracer, "stream_round");

  feedback_.ApplyBefore(round, previous_recommendation_,
                        config_.quarantine_rounds);

  const workload::Workload wl = workload_.Snapshot();
  const size_t parse_errors = workload_.parse_errors() +
                              reader_.parse_errors();

  std::string delta;
  delta += "== round ";
  AppendU64(&delta, round);
  delta += " ==\n";
  delta += "events=";
  AppendU64(&delta, workload_.events());
  delta += " templates=";
  AppendU64(&delta, wl.size());
  delta += " parse_errors=";
  AppendU64(&delta, parse_errors);
  delta += " evictions=";
  AppendU64(&delta, workload_.evictions());
  delta += " feedback(accepted=";
  AppendU64(&delta, feedback_.accepted());
  delta += " rejected=";
  AppendU64(&delta, feedback_.rejected());
  delta += " unknown=";
  AppendU64(&delta, feedback_.unknown());
  delta += ")\n";

  created_stats_before_round_ = created_stats_.size();

  if (wl.empty()) {
    delta += "= no templates; tuning skipped\n";
  } else {
    TuningOptions opts = config_.options;
    // The template table IS the compressed workload; per-round snapshots
    // must not re-compress (weights would collapse).
    opts.workload_compression = false;
    // The service's log owns persistence. A per-round session never logs
    // itself: it would take the new cache entries the round's segment
    // carries.
    opts.checkpoint_path.clear();
    opts.resume_path.clear();
    // DBA feedback: pins join the user-specified configuration (duplicates
    // with the base options tolerated), quarantines filter the pool.
    const catalog::Configuration& pinned = feedback_.pinned();
    for (size_t i = 0; i < pinned.indexes().size(); ++i) {
      (void)opts.user_specified.AddIndex(pinned.indexes()[i],
                                         pinned.index_names()[i]);
    }
    for (size_t i = 0; i < pinned.views().size(); ++i) {
      (void)opts.user_specified.AddView(pinned.views()[i],
                                        pinned.view_names()[i]);
    }
    for (const auto& [table, scheme] : pinned.table_partitioning()) {
      opts.user_specified.SetTablePartitioning(table, scheme);
    }
    opts.quarantined_structures = feedback_.QuarantinedAt(round);

    TuningSession session(config_.server, opts);
    session.SetObservability(
        {config_.metrics, config_.tracer, config_.clock});
    session.SetTenantContext(config_.tenant);

    // The session prices straight into the service's cache; the entries it
    // adds are the cache's new entries, which the round's segment takes.
    session.SetCostCache(&cache_);

    auto result = session.Tune(wl);
    if (!result.ok()) return result.status();

    // Recommendation delta vs the previous round, as sorted set differences
    // over canonical structure names.
    std::vector<std::string> prev_names =
        StructureNames(previous_recommendation_);
    std::vector<std::string> next_names =
        StructureNames(result->recommendation);
    std::sort(prev_names.begin(), prev_names.end());
    std::sort(next_names.begin(), next_names.end());
    std::vector<std::string> added;
    std::vector<std::string> removed;
    std::set_difference(next_names.begin(), next_names.end(),
                        prev_names.begin(), prev_names.end(),
                        std::back_inserter(added));
    std::set_difference(prev_names.begin(), prev_names.end(),
                        next_names.begin(), next_names.end(),
                        std::back_inserter(removed));
    for (const auto& name : added) delta += "+ " + name + "\n";
    for (const auto& name : removed) delta += "- " + name + "\n";
    if (added.empty() && removed.empty()) {
      delta += "= no configuration change\n";
    }
    delta += "current_cost=" + HexStr(result->current_cost) +
             " recommended_cost=" + HexStr(result->recommended_cost) +
             StrFormat(" improvement=%.2f%%\n",
                       result->ImprovementPercent());

    // A round that created statistics invalidates every cost priced
    // without them: only its own statements' entries survive (the session
    // cleared the cache if it built candidate statistics). Self-limiting:
    // statistics only appear when new templates bring new candidate columns.
    if (!result->created_stats.empty()) {
      std::set<uint64_t> ids;
      for (const auto& ws : wl.statements()) ids.insert(ws.id);
      cache_.Retain(ids);
    }
    created_stats_.insert(created_stats_.end(), result->created_stats.begin(),
                          result->created_stats.end());

    delta += "whatif_calls=";
    AppendU64(&delta, result->whatif_calls);
    delta += " seeded=";
    AppendU64(&delta, result->seeded_cache_entries);
    delta += " quarantined=";
    AppendU64(&delta, result->quarantined_candidates);
    delta += " pinned=";
    AppendU64(&delta, StructureCount(feedback_.pinned()));
    delta += " memo=";
    AppendU64(&delta, cache_.size());
    delta += "\n";

    previous_recommendation_ = result->recommendation;
  }

  // Round boundary: advance the cadence cursors and the decay epoch before
  // checkpointing, so the snapshot restores to exactly this state. Taking
  // the dirty/evicted template sets every round (checkpointing or not)
  // keeps them bounded by per-round churn.
  rounds_ = round;
  events_at_last_round_ = workload_.events();
  round_started_ms_ = stream_ms_;
  workload_.BeginRound(round + 1);
  dirty_templates_last_round_ = workload_.TakeDirty();
  evicted_templates_last_round_ = workload_.TakeEvicted();

  delta_text_ += delta;
  if (config_.delta_sink) config_.delta_sink(delta);

  DTA_RETURN_IF_ERROR(log_.Write([this] { return EncodeRecord(true); },
                                 [this] { return EncodeRecord(false); }));
  ExportRoundMetrics();

  if (max_rounds_ != 0 && rounds_ >= max_rounds_) stopped_ = true;
  return Status::Ok();
}

// ---- Delta-log serialization ----------------------------------------------

namespace {

void FeedbackToXml(const FeedbackState& feedback, xml::Element* root) {
  xml::Element* pinned = root->AddChild("Pinned");
  pinned->AddChild(ConfigurationToXml(feedback.pinned()));
  xml::Element* quarantine = root->AddChild("Quarantine");
  for (const auto& [name, expires] : feedback.quarantine()) {
    xml::Element* q = quarantine->AddChild("Q");
    q->SetAttr("Expires", U64Str(expires));
    q->AddTextChild("Name", name);
  }
  xml::Element* pending = root->AddChild("PendingFeedback");
  for (const auto& d : feedback.pending()) {
    xml::Element* f = pending->AddChild("F");
    f->SetAttr("Round", U64Str(d.round));
    f->SetAttr("Accept", d.accept ? "true" : "false");
    f->AddTextChild("Target", d.target);
  }
  root->SetAttr("FeedbackConsumed", U64Str(feedback.consumed_lines()));
  root->SetAttr("FeedbackAccepted", U64Str(feedback.accepted()));
  root->SetAttr("FeedbackRejected", U64Str(feedback.rejected()));
  root->SetAttr("FeedbackUnknown", U64Str(feedback.unknown()));
}

Result<catalog::Configuration> ConfigurationFromParent(
    const xml::Element& root, const char* name) {
  const xml::Element* parent = root.FindChild(name);
  if (parent == nullptr) return catalog::Configuration();
  const xml::Element* cfg = parent->FindChild("Configuration");
  if (cfg == nullptr) return catalog::Configuration();
  return ConfigurationFromXml(*cfg);
}

}  // namespace

std::string ContinuousTuner::EncodeRecord(bool base) {
  xml::Element root("DTAStream");
  root.SetAttr("Version", "4");
  if (base) {
    root.SetAttr("Fingerprint", U64Str(StreamFingerprint(config_)));
  } else if (created_stats_.size() > created_stats_before_round_) {
    // The round created statistics and kept only its own statements'
    // entries: the segment carries the whole cache.
    root.SetAttr("CacheCleared", "true");
  }
  root.SetAttr("Round", U64Str(rounds_));
  root.SetAttr("LinesConsumed", U64Str(reader_.lines_consumed()));
  root.SetAttr("Events", U64Str(workload_.events()));
  root.SetAttr("SqlParseErrors", U64Str(workload_.parse_errors()));
  root.SetAttr("DirectiveErrors", U64Str(reader_.parse_errors()));
  root.SetAttr("TornLines", U64Str(reader_.torn_lines()));
  root.SetAttr("NextOrdinal", U64Str(workload_.next_ordinal()));
  root.SetAttr("Evictions", U64Str(workload_.evictions()));
  root.SetAttr("StreamMs", HexStr(stream_ms_));

  // A base carries every template and statistic; a segment the templates
  // the last round touched, those it evicted (as signatures) and the
  // statistics it created.
  xml::Element* templates = root.AddChild("Templates");
  if (base) {
    for (const auto& [sig, entry] : workload_.entries()) {
      TemplateToXml(entry, templates);
    }
  } else {
    for (uint64_t sig : dirty_templates_last_round_) {
      auto it = workload_.entries().find(sig);
      if (it != workload_.entries().end()) {
        TemplateToXml(it->second, templates);
      }
    }
    xml::Element* evicted = root.AddChild("EvictedTemplates");
    for (uint64_t sig : evicted_templates_last_round_) {
      evicted->AddChild("E")->SetAttr("Sig", U64Str(sig));
    }
  }
  xml::Element* created = root.AddChild("CreatedStats");
  for (size_t i = base ? 0 : created_stats_before_round_;
       i < created_stats_.size(); ++i) {
    StatsKeyToXml(created_stats_[i], created);
  }

  // Small, bounded state — carried whole: the recommendation and the
  // feedback tables are O(recommendation), not O(cache).
  xml::Element* rec = root.AddChild("Recommendation");
  rec->AddChild(ConfigurationToXml(previous_recommendation_));
  FeedbackToXml(feedback_, &root);
  return tuner::EncodeRecord(root, base, &cache_);
}

Status ContinuousTuner::LoadFromLog(const DeltaLogContents& log) {
  DTA_RETURN_IF_ERROR(ApplyRecord(log.base, /*base=*/true));
  for (const std::string& segment : log.segments) {
    DTA_RETURN_IF_ERROR(ApplyRecord(segment, /*base=*/false));
  }

  // The restored cache was priced under the statistics the original service
  // created; re-create them on this (fresh) server before the first round
  // — statistics builds are deterministic in the data, so the rebuilt
  // statistics match and the cache stays valid. Per-round sessions then
  // find them present and never clear it.
  for (const auto& key : created_stats_) {
    if (!config_.server->HasStatistics(key)) {
      // Same tolerance as session resume: a table that cannot produce
      // statistics was skipped by the original run too.
      (void)config_.server->CreateStatistics(key);
    }
  }

  // Re-feeding the same capture: skip the already-processed prefix and
  // restore the reader's error totals (skipped lines re-produce nothing).
  // The next round's record is a base (CheckpointLog's first write), which
  // also drops a torn tail the log was read past.
  reader_.SkipLines(restored_lines_consumed_);
  resumed_ = true;
  return Status::Ok();
}

Status ContinuousTuner::ApplyRecord(const std::string& payload, bool base) {
  auto record = SplitRecord(payload, base, "DTAStream");
  if (!record.ok()) return record.status();
  const xml::Element& root = *record->document;
  if (root.Attr("Version") == "3") {
    return Status::FailedPrecondition(StrFormat(
        "%s is a version 3 DTAStream log, a format this build no longer "
        "reads; remove it or choose another checkpoint path "
        "(--stream-checkpoint) to start a fresh service",
        config_.checkpoint_path.c_str()));
  }
  if (root.Attr("Version") != "4") {
    return Status::InvalidArgument("not a version 4 DTAStream record");
  }
  if (base) {
    if (ParseU64(root.Attr("Fingerprint")) != StreamFingerprint(config_)) {
      return Status::FailedPrecondition(
          "delta log was written under different tuning options or stream "
          "parameters; refusing to resume");
    }
  } else if (const xml::Element* evicted = root.FindChild("EvictedTemplates")) {
    // Segment evictions first, then upserts — an evicted-then-reinserted
    // template must survive.
    for (const xml::Element* e : evicted->FindChildren("E")) {
      workload_.EraseEntry(ParseU64(e->Attr("Sig")));
    }
  }
  if (const xml::Element* templates = root.FindChild("Templates")) {
    for (const xml::Element* t : templates->FindChildren("T")) {
      workload_.RestoreEntry(TemplateFromXml(*t));
    }
  }
  workload_.RestoreCounters(ParseU64(root.Attr("NextOrdinal")),
                            ParseU64(root.Attr("Events")),
                            ParseU64(root.Attr("SqlParseErrors")),
                            ParseU64(root.Attr("Evictions")));
  reader_.RestoreCounters(ParseU64(root.Attr("DirectiveErrors")),
                          ParseU64(root.Attr("TornLines")));
  restored_lines_consumed_ = ParseU64(root.Attr("LinesConsumed"));
  stream_ms_ = ParseDouble(root.Attr("StreamMs"));
  round_started_ms_ = stream_ms_;
  events_at_last_round_ = workload_.events();
  rounds_ = ParseU64(root.Attr("Round"));

  if (record->replaces_cache) cache_.Retain({});
  for (const CostLine& line : record->lines) {
    cache_.Restore(line.id, line.fingerprint, line.entry);
  }

  if (const xml::Element* created = root.FindChild("CreatedStats")) {
    for (const xml::Element* s : created->FindChildren("Stats")) {
      created_stats_.push_back(StatsKeyFromXml(*s));
    }
  }

  auto rec = ConfigurationFromParent(root, "Recommendation");
  if (!rec.ok()) return rec.status();
  previous_recommendation_ = std::move(rec).value();

  auto pinned = ConfigurationFromParent(root, "Pinned");
  if (!pinned.ok()) return pinned.status();
  std::map<std::string, uint64_t> quarantine;
  if (const xml::Element* q = root.FindChild("Quarantine")) {
    for (const xml::Element* e : q->FindChildren("Q")) {
      const xml::Element* name = e->FindChild("Name");
      if (name != nullptr) {
        quarantine[name->text()] = ParseU64(e->Attr("Expires"));
      }
    }
  }
  std::vector<FeedbackDirective> pending;
  if (const xml::Element* p = root.FindChild("PendingFeedback")) {
    for (const xml::Element* f : p->FindChildren("F")) {
      FeedbackDirective d;
      d.round = ParseU64(f->Attr("Round"));
      d.accept = f->Attr("Accept") == "true";
      if (const xml::Element* target = f->FindChild("Target")) {
        d.target = target->text();
      }
      pending.push_back(std::move(d));
    }
  }
  feedback_.Restore(std::move(pinned).value(), std::move(quarantine),
                    std::move(pending), ParseU64(root.Attr("FeedbackConsumed")),
                    ParseU64(root.Attr("FeedbackAccepted")),
                    ParseU64(root.Attr("FeedbackRejected")),
                    ParseU64(root.Attr("FeedbackUnknown")));
  return Status::Ok();
}

void ContinuousTuner::ExportRoundMetrics() {
  if (config_.metrics == nullptr) return;
  MetricsRegistry* m = config_.metrics;
  const size_t events = workload_.events();
  const size_t parse = workload_.parse_errors() + reader_.parse_errors();
  const size_t evictions = workload_.evictions();
  m->GetCounter("stream.events")->Increment(events - exported_.events);
  m->GetCounter("stream.parse_errors")->Increment(parse - exported_.parse);
  m->GetCounter("stream.rounds")->Increment(1);
  m->GetCounter("stream.feedback.accepted")
      ->Increment(feedback_.accepted() - exported_.accepted);
  m->GetCounter("stream.feedback.rejected")
      ->Increment(feedback_.rejected() - exported_.rejected);
  m->GetCounter("stream.feedback.unknown")
      ->Increment(feedback_.unknown() - exported_.unknown);
  m->GetCounter("stream.evictions")->Increment(evictions - exported_.evictions);
  const size_t segments = log_.segment_bytes().size();
  m->GetCounter("stream.checkpoint.segments")
      ->Increment(segments - exported_.segments);
  m->GetCounter("stream.checkpoint.compactions")
      ->Increment(log_.compactions() - exported_.compactions);
  exported_.events = events;
  exported_.parse = parse;
  exported_.accepted = feedback_.accepted();
  exported_.rejected = feedback_.rejected();
  exported_.unknown = feedback_.unknown();
  exported_.evictions = evictions;
  exported_.segments = segments;
  exported_.compactions = log_.compactions();

  m->GetGauge("stream.templates")
      ->Set(static_cast<double>(workload_.entries().size()));
  m->GetGauge("stream.memo.entries")->Set(static_cast<double>(cache_.size()));
  const std::vector<size_t>& history = log_.segment_bytes();
  if (!history.empty()) {
    double total = 0;
    for (size_t b : history) total += static_cast<double>(b);
    m->GetGauge("stream.checkpoint.delta_bytes_per_round")
        ->Set(total / static_cast<double>(history.size()));
    m->GetGauge("stream.checkpoint.delta_bytes_last_round")
        ->Set(static_cast<double>(history.back()));
  }
}

}  // namespace dta::tuner::stream
