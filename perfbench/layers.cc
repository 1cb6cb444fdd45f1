// Per-layer measurements for the traced run: direct calls into each layer's
// public functions, replaying the workload's own inputs, plus the numbers
// the library's tracer and metrics registry collected for the session.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "catalog/physical_design.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dta/candidates.h"
#include "dta/column_groups.h"
#include "dta/cost_service.h"
#include "dta/rpc/transport.h"
#include "dta/rpc/wire.h"
#include "dta/xml_schema.h"
#include "harness.h"
#include "sql/parser.h"
#include "sql/signature.h"
#include "workload/compression.h"
#include "xmlio/xml.h"

namespace dta::perfbench {

// Keeps results observable (external linkage) so the timed calls cannot be
// optimized away.
size_t g_sink = 0;

namespace {

// Session phases reported as phase.<name>_ms (direct children of "tune").
const char* const kPhases[] = {
    "compression",         "current_cost", "column_groups",
    "candidate_generation", "reduced_stats", "candidate_selection",
    "merging",             "enumeration",  "report",
};

// Every per-layer metric with its unit: the traced run prints all of them
// on every workload, zero where the workload does not exercise the layer.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"sql.signature_us", "us"},
    {"stream.ingest_us_per_event", "us"},
    {"stream.ingest_share_pct", "%"},
    {"stream.round_overhead_ms", "ms"},
    {"checkpoint.delta_bytes_per_round", "bytes"},
    {"workload.compress_ms", "ms"},
    {"workload.compression_ratio", "ratio"},
    {"catalog.view_identity_us", "us"},
    {"catalog.index_identity_us", "us"},
    {"catalog.config_op_us", "us"},
    {"optimizer.whatif_us", "us"},
    {"optimizer.access_paths_per_call", "count"},
    {"stats.create_ms", "ms"},
    {"stats.created", "count"},
    {"cost_service.lookups", "count"},
    {"cost_service.hit_ratio", "ratio"},
    {"cost_service.whatif_calls", "count"},
    {"cost_service.hit_us", "us"},
    {"cost_service.miss_us", "us"},
    {"derived_cost.answer_us", "us"},
    {"derived_cost.answers", "count"},
    {"derived_cost.saved_ratio", "ratio"},
    {"phase.compression_ms", "ms"},
    {"phase.current_cost_ms", "ms"},
    {"phase.column_groups_ms", "ms"},
    {"phase.candidate_generation_ms", "ms"},
    {"phase.reduced_stats_ms", "ms"},
    {"phase.candidate_selection_ms", "ms"},
    {"phase.merging_ms", "ms"},
    {"phase.enumeration_ms", "ms"},
    {"phase.report_ms", "ms"},
    {"phase.unattributed_ms", "ms"},
    {"enumeration.evaluations", "count"},
    {"rpc.encode_us", "us"},
    {"rpc.decode_us", "us"},
    {"rpc.request_bytes", "bytes"},
    {"rpc.roundtrip_us", "us"},
    {"rpc.wire_ms_per_call", "ms"},
    {"rpc.requeues", "count"},
    {"rpc.timeouts", "count"},
    {"shard_router.imbalance", "ratio"},
    {"pool.utilization", "ratio"},
    {"xml.config_roundtrip_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.tune_ms", "ms"},
};

// Minimum measured time per micro-timing, so short per-op costs are not
// lost in clock resolution.
constexpr double kMinTimedMs = 40;

// Repeats `body` (which performs `ops` operations) until kMinTimedMs have
// elapsed; returns microseconds per operation.
double UsPerOp(size_t ops, const std::function<void()>& body) {
  if (ops == 0) return 0;
  size_t reps = 0;
  const double t0 = NowMs();
  double elapsed = 0;
  do {
    body();
    ++reps;
    elapsed = NowMs() - t0;
  } while (elapsed < kMinTimedMs);
  return 1000.0 * elapsed / static_cast<double>(reps * ops);
}

uint64_t CallKey(const std::string& text, const catalog::Configuration& c) {
  const uint64_t key = HashCombine(HashBytes(text), HashBytes(c.Fingerprint()));
  return key == 0 ? 1 : key;
}

// Structures of a configuration in a stable order: indexes, then views.
struct Structures {
  std::vector<catalog::IndexDef> indexes;
  std::vector<catalog::ViewDef> views;
};

Structures NonRawStructures(const catalog::Configuration& config,
                            const catalog::Configuration& raw) {
  Structures s;
  for (const auto& ix : config.indexes()) {
    if (!raw.ContainsStructure(ix.CanonicalName())) s.indexes.push_back(ix);
  }
  for (const auto& v : config.views()) s.views.push_back(v);
  return s;
}

}  // namespace

void SpanLog::Import(const Tracer& tracer, double origin_ms, int session) {
  std::vector<int> stack;  // span ids by depth
  const int base = open_.empty() ? -1 : open_.back();
  for (const auto& v : tracer.Spans()) {
    stack.resize(static_cast<size_t>(v.depth));
    Span s;
    s.name = v.name;
    s.start_ms = origin_ms + v.start_ms;
    s.end_ms = s.start_ms + v.duration_ms;
    s.parent = stack.empty() ? base : stack.back();
    s.session = session;
    spans_.push_back(std::move(s));
    stack.push_back(static_cast<int>(spans_.size()) - 1);
  }
}

std::string SpanLog::ToJson() const {
  const double origin = spans_.empty() ? 0 : spans_.front().start_ms;
  std::string out = "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += StrFormat(
        "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
        "\"end_ms\": %.6f, \"parent\": %d, \"session\": %d}%s\n",
        i, JsonEscape(s.name).c_str(), s.start_ms - origin,
        s.end_ms - origin, s.parent, s.session,
        i + 1 < spans_.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

ReplaySet BuildReplaySet(const LayerInputs& in) {
  ReplaySet set;
  set.configs.push_back(in.raw);
  const Structures rec = NonRawStructures(in.recommendation, in.raw);
  catalog::Configuration prefix = in.raw;
  for (const auto& ix : rec.indexes) {
    if (!prefix.AddIndex(ix).ok()) continue;
    set.configs.push_back(prefix);
  }
  for (const auto& v : rec.views) {
    if (!prefix.AddView(v).ok()) continue;
    set.configs.push_back(prefix);
  }
  for (size_t c = 0; c < set.configs.size(); ++c) {
    for (size_t i = 0; i < in.workload->size(); ++i) {
      set.pairs.push_back({i, c});
    }
  }
  return set;
}

Status MeasureCommonLayers(const LayerInputs& in, const ReplaySet& replay,
                           SpanLog* log, Metrics* out) {
  const auto& stmts = in.workload->statements();

  // ---- sql: parse and template signature of the statement texts.
  std::vector<sql::Statement> parsed;
  {
    Scoped span(log, "layer.sql", in.session);
    for (const std::string& text : in.texts) {
      auto s = sql::ParseStatement(text);
      if (!s.ok()) return s.status();
      parsed.push_back(std::move(s).value());
    }
    (*out)["sql.parse_us"] = {UsPerOp(in.texts.size(),
                                      [&] {
                                        for (const auto& t : in.texts) {
                                          g_sink += sql::ParseStatement(t).ok();
                                        }
                                      }),
                              "us"};
    (*out)["sql.signature_us"] = {UsPerOp(parsed.size(),
                                          [&] {
                                            for (const auto& s : parsed) {
                                              g_sink += sql::SignatureHash(s);
                                            }
                                          }),
                                  "us"};
  }

  // ---- workload: compression of the parsed statements.
  {
    Scoped span(log, "layer.workload", in.session);
    std::vector<sql::Statement> copies;
    for (const auto& s : parsed) copies.push_back(s.Clone());
    const workload::Workload input =
        workload::Workload::FromStatements(std::move(copies));
    workload::CompressionStats stats;
    const double t0 = NowMs();
    const workload::Workload compressed =
        workload::CompressWorkload(input, {}, &stats);
    (*out)["workload.compress_ms"] = {NowMs() - t0, "ms"};
    (*out)["workload.compression_ratio"] = {
        stats.original_statements > 0
            ? static_cast<double>(compressed.size()) /
                  static_cast<double>(stats.original_statements)
            : 1.0,
        "ratio"};
  }

  // ---- catalog: identity rendering over the candidate pool, and
  // configuration operations at the recommendation's size.
  {
    Scoped span(log, "layer.catalog", in.session);
    std::vector<catalog::IndexDef> indexes;
    std::vector<catalog::ViewDef> views;
    const auto groups = tuner::InterestingColumnGroups::Unrestricted();
    for (const auto& ws : stmts) {
      auto cands = tuner::GenerateCandidatesForStatement(
          ws.stmt, in.server, groups, tuner::TuningOptions{});
      if (!cands.ok()) return cands.status();
      for (const auto& c : *cands) {
        if (c.kind == tuner::Candidate::Kind::kIndex) indexes.push_back(c.index);
        if (c.kind == tuner::Candidate::Kind::kView) views.push_back(c.view);
      }
    }
    (*out)["catalog.index_identity_us"] = {
        UsPerOp(indexes.size(),
                [&] {
                  for (const auto& ix : indexes) {
                    g_sink += ix.CanonicalName().size();
                  }
                }),
        "us"};
    (*out)["catalog.view_identity_us"] = {
        UsPerOp(views.size(),
                [&] {
                  for (const auto& v : views) g_sink += v.CanonicalName().size();
                }),
        "us"};
    // An empty recommendation (nothing pays off) falls back to the raw
    // configuration, so the operations still run at a real size.
    Structures ops = NonRawStructures(in.recommendation, in.raw);
    if (ops.indexes.empty() && ops.views.empty()) {
      ops.indexes = in.raw.indexes();
    }
    std::vector<std::string> names;
    for (const auto& ix : ops.indexes) names.push_back(ix.CanonicalName());
    for (const auto& v : ops.views) names.push_back(v.CanonicalName());
    (*out)["catalog.config_op_us"] = {
        UsPerOp(2 * names.size(),
                [&] {
                  catalog::Configuration c;
                  for (const auto& ix : ops.indexes) g_sink += c.AddIndex(ix).ok();
                  for (const auto& v : ops.views) g_sink += c.AddView(v).ok();
                  for (const auto& n : names) g_sink += c.ContainsStructure(n);
                }),
        "us"};
  }

  // ---- optimizer: what-if calls on the replayed pairs, with the
  // optimizer's own access-path counter attached.
  {
    Scoped span(log, "layer.optimizer", in.session);
    MetricsRegistry reg;
    in.server->SetMetrics(&reg);
    bool failed = false;
    (*out)["optimizer.whatif_us"] = {
        UsPerOp(replay.pairs.size(),
                [&] {
                  for (const auto& p : replay.pairs) {
                    auto r = in.server->WhatIfCost(stmts[p.statement].stmt,
                                                   replay.configs[p.config]);
                    failed |= !r.ok();
                  }
                }),
        "us"};
    in.server->SetMetrics(nullptr);
    if (failed) return Status::Internal("what-if replay failed");
    const double calls = static_cast<double>(
        reg.GetCounter("optimizer.statements_costed")->value());
    (*out)["optimizer.access_paths_per_call"] = {
        calls > 0 ? static_cast<double>(
                        reg.GetCounter("optimizer.access_paths")->value()) /
                        calls
                  : 0.0,
        "count"};
  }

  // ---- stats: CREATE STATISTICS of every key the warm server holds, on a
  // fresh server with the same schema.
  {
    Scoped span(log, "layer.stats", in.session);
    server::Server fresh("fresh", optimizer::HardwareParams());
    DTA_RETURN_IF_ERROR(in.attach(&fresh));
    std::vector<stats::StatsKey> keys;
    for (const auto* s : in.server->ExportStatistics()) keys.push_back(s->key);
    const double t0 = NowMs();
    for (const auto& key : keys) {
      auto r = fresh.CreateStatistics(key);
      if (!r.ok()) return r.status();
    }
    const double elapsed = NowMs() - t0;
    (*out)["stats.create_ms"] = {
        keys.empty() ? 0.0 : elapsed / static_cast<double>(keys.size()), "ms"};
    (*out)["stats.created"] = {static_cast<double>(keys.size()), "count"};
  }

  // ---- cost service and derived cost: StatementCost on the replayed
  // pairs, each call sorted by the service's counter deltas into a cache
  // hit, a real what-if call, or a derived answer. The second pass over the
  // same pairs is all hits.
  {
    Scoped span(log, "layer.cost_service", in.session);
    double hit_ms = 0, miss_ms = 0, derived_ms = 0;
    size_t hits = 0, misses = 0, derived = 0;
    const double t_start = NowMs();
    do {
      tuner::CostService::Config cfg;
      cfg.derived.enabled = true;
      tuner::CostService svc(in.server, nullptr, in.workload, cfg);
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& p : replay.pairs) {
          const size_t h0 = svc.cache_hits();
          const size_t c0 = svc.whatif_calls();
          const size_t d0 = svc.derived_answers();
          const double t0 = NowMs();
          auto r = svc.StatementCost(p.statement, replay.configs[p.config]);
          const double dt = NowMs() - t0;
          if (!r.ok()) return r.status();
          if (svc.derived_answers() > d0) {
            derived_ms += dt;
            ++derived;
          } else if (svc.whatif_calls() > c0) {
            miss_ms += dt;
            ++misses;
          } else if (svc.cache_hits() > h0) {
            hit_ms += dt;
            ++hits;
          }
        }
      }
    } while (NowMs() - t_start < kMinTimedMs);
    auto mean_us = [](double ms, size_t n) {
      return n > 0 ? 1000.0 * ms / static_cast<double>(n) : 0.0;
    };
    (*out)["cost_service.hit_us"] = {mean_us(hit_ms, hits), "us"};
    (*out)["cost_service.miss_us"] = {mean_us(miss_ms, misses), "us"};
    (*out)["derived_cost.answer_us"] = {mean_us(derived_ms, derived), "us"};
  }

  // ---- xml: the recommendation's configuration document, both ways.
  {
    Scoped span(log, "layer.xml", in.session);
    const catalog::Configuration& config =
        in.recommendation.StructureCount() > 0 ? in.recommendation : in.raw;
    bool failed = false;
    (*out)["xml.config_roundtrip_us"] = {
        UsPerOp(1,
                [&] {
                  const std::string text =
                      tuner::ConfigurationToXml(config)->ToString();
                  auto doc = xml::Parse(text);
                  failed |= !doc.ok() ||
                            !tuner::ConfigurationFromXml(**doc).ok();
                }),
        "us"};
    if (failed) return Status::Internal("configuration XML round trip failed");
  }
  return Status::Ok();
}

Status MeasureRpcLayer(const LayerInputs& in, const ReplaySet& replay,
                       const std::string& endpoint, SpanLog* log,
                       Metrics* out) {
  Scoped span(log, "layer.rpc", in.session);
  const auto& stmts = in.workload->statements();
  std::vector<std::string> config_xml;
  for (const auto& c : replay.configs) {
    config_xml.push_back(tuner::ConfigurationToXml(c)->ToString());
  }
  // Requests and responses exactly as the socket transport builds them.
  std::vector<rpc::WhatIfRequestMsg> requests;
  std::vector<rpc::WhatIfResponseMsg> responses;
  for (const auto& p : replay.pairs) {
    rpc::WhatIfRequestMsg req;
    req.call_key = CallKey(stmts[p.statement].text, replay.configs[p.config]);
    req.sql = stmts[p.statement].text;
    req.config_xml = config_xml[p.config];
    requests.push_back(std::move(req));
    auto r = in.server->WhatIfCost(stmts[p.statement].stmt,
                                   replay.configs[p.config]);
    if (!r.ok()) return r.status();
    rpc::WhatIfResponseMsg resp;
    resp.cost = r->cost;
    resp.simulated_ms = r->simulated_ms;
    resp.missing_stats.assign(r->missing_stats.begin(), r->missing_stats.end());
    responses.push_back(std::move(resp));
  }
  std::vector<std::string> req_bytes, resp_bytes;
  double total_bytes = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    req_bytes.push_back(rpc::EncodeWhatIfRequest(requests[i]));
    resp_bytes.push_back(rpc::EncodeWhatIfResponse(responses[i]));
    total_bytes += static_cast<double>(req_bytes.back().size());
  }
  const size_t n = requests.size();
  (*out)["rpc.request_bytes"] = {
      n > 0 ? total_bytes / static_cast<double>(n) : 0.0, "bytes"};
  (*out)["rpc.encode_us"] = {UsPerOp(n,
                                     [&] {
                                       for (size_t i = 0; i < n; ++i) {
                                         g_sink += rpc::EncodeWhatIfRequest(
                                                       requests[i])
                                                       .size();
                                         g_sink += rpc::EncodeWhatIfResponse(
                                                       responses[i])
                                                       .size();
                                       }
                                     }),
                             "us"};
  bool failed = false;
  (*out)["rpc.decode_us"] = {
      UsPerOp(n,
              [&] {
                for (size_t i = 0; i < n; ++i) {
                  failed |= !rpc::DecodeWhatIfRequest(req_bytes[i]).ok();
                  failed |= !rpc::DecodeWhatIfResponse(resp_bytes[i]).ok();
                }
              }),
      "us"};
  if (failed) return Status::Internal("wire decode failed");

  // One outstanding frame at a time to a live worker, minus the optimizer
  // time the worker spends pricing it.
  auto channel = rpc::SocketChannel::Connect("perfbench", endpoint, {});
  if (!channel.ok()) return channel.status();
  const double roundtrip_us = UsPerOp(n, [&] {
    for (const auto& p : replay.pairs) {
      tuner::WhatIfCall call;
      call.stmt = &stmts[p.statement].stmt;
      call.text = &stmts[p.statement].text;
      call.config = &replay.configs[p.config];
      call.call_key = CallKey(stmts[p.statement].text, *call.config);
      failed |= !(*channel)->Call(call).ok();
    }
  });
  if (failed) return Status::Internal("worker round trip failed");
  (*out)["rpc.roundtrip_us"] = {
      roundtrip_us - (*out)["optimizer.whatif_us"].value, "us"};
  return Status::Ok();
}

void SessionLayers(const Tracer& tracer, const MetricsRegistry& metrics,
                   double units, Metrics* out) {
  // Phase spans: the direct children of every "tune" span.
  std::map<std::string, double> phase_ms;
  double tune_ms = 0, children_ms = 0;
  int tune_depth = -1;
  for (const auto& s : tracer.Spans()) {
    if (tune_depth >= 0 && s.depth <= tune_depth) tune_depth = -1;
    if (s.name == "tune") {
      tune_depth = s.depth;
      tune_ms += s.duration_ms;
    } else if (tune_depth >= 0 && s.depth == tune_depth + 1) {
      phase_ms[s.name] += s.duration_ms;
      children_ms += s.duration_ms;
    }
  }
  for (const char* phase : kPhases) {
    (*out)[StrFormat("phase.%s_ms", phase)] = {phase_ms[phase] / units, "ms"};
  }
  (*out)["phase.unattributed_ms"] = {(tune_ms - children_ms) / units, "ms"};

  const auto counters = metrics.CounterValues();
  auto count = [&](const std::string& name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double lookups = count("whatif.lookups");
  const double calls = count("whatif.calls");
  const double saved = count("whatif.calls_saved");
  (*out)["cost_service.lookups"] = {lookups / units, "count"};
  (*out)["cost_service.whatif_calls"] = {calls / units, "count"};
  (*out)["cost_service.hit_ratio"] = {
      lookups > 0 ? count("whatif.cache_hits") / lookups : 0.0, "ratio"};
  (*out)["derived_cost.answers"] = {count("whatif.derived_answers") / units,
                                    "count"};
  (*out)["derived_cost.saved_ratio"] = {
      calls + saved > 0 ? saved / (calls + saved) : 0.0, "ratio"};
  (*out)["enumeration.evaluations"] = {count("enumeration.evaluations") / units,
                                       "count"};
  (*out)["rpc.requeues"] = {count("rpc.requeues"), "count"};
  (*out)["rpc.timeouts"] = {count("rpc.timeouts"), "count"};
  const auto histograms = metrics.HistogramValues();
  auto wire = histograms.find("rpc.wire_latency_ms");
  (*out)["rpc.wire_ms_per_call"] = {
      wire != histograms.end() && wire->second.count > 0
          ? static_cast<double>(wire->second.sum_micros) / 1000.0 /
                static_cast<double>(wire->second.count)
          : 0.0,
      "ms"};

  // Router balance: max / mean of the per-shard call counters (1 when the
  // session priced on a single server).
  std::vector<double> shard_calls;
  for (const auto& [name, value] : counters) {
    if (name.rfind("shard.", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".calls") == 0) {
      shard_calls.push_back(static_cast<double>(value));
    }
  }
  double imbalance = 1.0;
  if (!shard_calls.empty()) {
    double sum = 0;
    for (double c : shard_calls) sum += c;
    const double mean = sum / static_cast<double>(shard_calls.size());
    if (mean > 0) {
      imbalance = *std::max_element(shard_calls.begin(), shard_calls.end()) /
                  mean;
    }
  }
  (*out)["shard_router.imbalance"] = {imbalance, "ratio"};
}

void FillAbsentLayers(Metrics* out) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (out->find(m.name) == out->end()) (*out)[m.name] = {0.0, m.unit};
  }
}

}  // namespace dta::perfbench
