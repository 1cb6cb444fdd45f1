// The three benchmark workloads (see harness.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dta/rpc/worker.h"
#include "dta/stream/continuous.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "harness.h"
#include "server/server.h"
#include "workloads/customer.h"
#include "workloads/tpch.h"

namespace dta::perfbench {
namespace {

// Temporary files (sockets, the delta log) live under the build directory of
// the checkout the benchmark runs in.
constexpr const char* kTempDir = ".bench_build/tmp";

std::string TempPath(const std::string& stem) {
  std::filesystem::create_directories(kTempDir);
  return StrFormat("%s/%s-%d", kTempDir, stem.c_str(),
                   static_cast<int>(::getpid()));
}

std::string RecommendationXml(const catalog::Configuration& config) {
  return tuner::ConfigurationToXml(config)->ToString();
}

// ---- TPC-H: tpch_serial and tpch_socket -----------------------------------

constexpr double kTpchScaleFactor = 0.25;
constexpr uint64_t kTpchDataSeed = 7;
constexpr int kSocketShards = 2;
// Query sets per run. Each set's constants change how much search a session
// does (session time varies by about 14% across sets), so a run cycles
// through several sets and its median is steady from seed to seed.
constexpr uint64_t kQuerySets = 4;

class TpchWorkload : public BenchWorkload {
 public:
  // Run seed s tunes the query sets drawn with seeds s*kQuerySets ...
  // s*kQuerySets + kQuerySets - 1, one set per session in turn.
  TpchWorkload(uint64_t seed, bool socket, bool smoke) : socket_(socket) {
    for (uint64_t j = 0; j < (smoke ? 1 : kQuerySets); ++j) {
      const uint64_t query_seed = seed * kQuerySets + j;
      workloads_.push_back(smoke ? workloads::TpchQueriesPrefix(6, query_seed)
                                 : workloads::TpchQueries(query_seed));
    }
  }

  ~TpchWorkload() override { TearDown(); }

  Status Setup() override {
    TearDown();
    prod_ = std::make_unique<server::Server>("prod",
                                             optimizer::HardwareParams());
    DTA_RETURN_IF_ERROR(workloads::AttachTpch(prod_.get(), kTpchScaleFactor,
                                              /*with_data=*/false,
                                              kTpchDataSeed));
    DTA_RETURN_IF_ERROR(
        prod_->ImplementConfiguration(workloads::TpchRawConfiguration()));
    // Statistics warm-up: a session per query set creates every statistic
    // the timed sessions will read, so they all see the same server (the
    // checker fails a run whose sessions still create one). Statistics are
    // created before enumeration, so the warm-up skips it.
    tuner::TuningOptions warmup_opts = SerialOptions();
    warmup_opts.max_enumeration_candidates = 0;
    for (const workload::Workload& wl : workloads_) {
      tuner::TuningSession warmup(prod_.get(), warmup_opts);
      auto r = warmup.Tune(wl);
      if (!r.ok()) return r.status();
    }
    if (!socket_) return Status::Ok();
    for (int i = 0; i < kSocketShards; ++i) {
      auto clone = prod_->Clone(StrFormat("worker%d", i));
      if (!clone.ok()) return clone.status();
      clones_.push_back(std::move(clone).value());
      rpc::CostWorkerOptions wopts;
      wopts.threads = 1;
      workers_.push_back(
          std::make_unique<rpc::CostWorker>(clones_.back().get(), wopts));
      endpoints_.push_back(TempPath(StrFormat("w%d.sock", i)));
      std::remove(endpoints_.back().c_str());
      DTA_RETURN_IF_ERROR(workers_.back()->Listen(endpoints_.back()));
    }
    return Status::Ok();
  }

  Result<std::vector<std::string>> Reference() override {
    // tpch_serial: the same session with derived costing off — derivation
    // must never change the recommendation. tpch_socket: the serial
    // recommendation for the same seed — the transport must not either.
    tuner::TuningOptions opts = SerialOptions();
    if (!socket_) opts.derived_costing = false;
    std::vector<std::string> reference;
    for (const workload::Workload& wl : workloads_) {
      tuner::TuningSession session(prod_.get(), opts);
      auto r = session.Tune(wl);
      if (!r.ok()) return r.status();
      reference.push_back(RecommendationXml(r->recommendation));
    }
    return reference;
  }

  bool SingleThreaded() const override { return !socket_; }

  Result<Iteration> RunOnce() override {
    const size_t set = next_set_++ % workloads_.size();
    return Session(set, nullptr, nullptr, nullptr);
  }

  Result<Iteration> RunTraced(SpanLog* log, TracedRun* out) override {
    MetricsRegistry metrics;
    Tracer tracer;
    tuner::TuningResult result;
    const int session = 1;
    int root = log->Begin("traced_run", session);
    const double origin = NowMs();
    auto it = Session(0, &metrics, &tracer, &result);
    if (!it.ok()) return it.status();
    log->Import(tracer, origin, session);
    out->tune_ms = it->tune_ms.front();
    SessionLayers(tracer, metrics, 1, &out->layers);
    out->layers["pool.utilization"] = {result.ParallelSpeedup(), "ratio"};

    LayerInputs in;
    in.server = prod_.get();
    in.workload = &workloads_.front();
    for (const auto& ws : in.workload->statements()) {
      in.texts.push_back(ws.text);
    }
    in.raw = workloads::TpchRawConfiguration();
    in.recommendation = result.recommendation;
    in.attach = [](server::Server* s) {
      DTA_RETURN_IF_ERROR(workloads::AttachTpch(s, kTpchScaleFactor, false,
                                                kTpchDataSeed));
      return s->ImplementConfiguration(workloads::TpchRawConfiguration());
    };
    in.session = session;
    const ReplaySet replay = BuildReplaySet(in);
    DTA_RETURN_IF_ERROR(MeasureCommonLayers(in, replay, log, &out->layers));
    if (socket_) {
      DTA_RETURN_IF_ERROR(MeasureRpcLayer(in, replay, endpoints_.front(), log,
                                          &out->layers));
    }
    log->End(root);
    return it;
  }

 private:
  static tuner::TuningOptions SerialOptions() {
    tuner::TuningOptions opts;
    opts.num_threads = 1;
    opts.shards = 1;
    return opts;
  }

  tuner::TuningOptions Options() const {
    tuner::TuningOptions opts = SerialOptions();
    if (socket_) {
      opts.num_threads = 2;
      opts.shards = kSocketShards;
      opts.transport = tuner::TuningOptions::Transport::kSocket;
      opts.socket_endpoints = endpoints_;
    }
    return opts;
  }

  // One timed session. Server overhead is the simulated optimizer and
  // statistics time it accrued on the tuning server and every worker.
  Result<Iteration> Session(size_t set, MetricsRegistry* metrics,
                            Tracer* tracer, tuner::TuningResult* keep) {
    prod_->ResetOverhead();
    for (auto& c : clones_) c->ResetOverhead();
    tuner::TuningSession session(prod_.get(), Options());
    session.SetObservability({metrics, tracer, nullptr});
    const double t0 = NowMs();
    auto r = session.Tune(workloads_[set]);
    const double elapsed = NowMs() - t0;
    if (!r.ok()) return r.status();
    double overhead = prod_->overhead_ms();
    for (auto& c : clones_) overhead += c->overhead_ms();
    Iteration it;
    it.tune_ms.push_back(elapsed);
    it.timed_ms = elapsed;
    it.events = workloads_[set].size();
    it.reference_index = set;
    it.outputs.push_back(RecommendationXml(r->recommendation));
    it.recommended_cost_pct =
        r->current_cost > 0 ? 100.0 * r->recommended_cost / r->current_cost
                            : 100.0;
    it.server_overhead_ms = overhead;
    it.invariants = {static_cast<double>(r->whatif_calls),
                     static_cast<double>(r->whatif_cache_hits),
                     static_cast<double>(r->derived_answers),
                     static_cast<double>(r->whatif_calls_saved),
                     static_cast<double>(r->enumeration_evaluations),
                     static_cast<double>(r->stats_created)};
    if (keep != nullptr) *keep = std::move(r).value();
    return it;
  }

  // Workers shut down (joining their serve threads) before the servers
  // they price on are destroyed.
  void TearDown() {
    for (auto& w : workers_) w->Shutdown();
    workers_.clear();
    for (const std::string& path : endpoints_) std::remove(path.c_str());
    endpoints_.clear();
    clones_.clear();
    prod_.reset();
  }

  const bool socket_;
  std::vector<workload::Workload> workloads_;
  size_t next_set_ = 0;
  std::unique_ptr<server::Server> prod_;
  std::vector<std::unique_ptr<server::Server>> clones_;
  std::vector<std::unique_ptr<rpc::CostWorker>> workers_;
  std::vector<std::string> endpoints_;
};

// ---- oltp_stream ----------------------------------------------------------

// Splits accumulated delta text into one string per round.
std::vector<std::string> SplitRounds(const std::string& text) {
  std::vector<std::string> rounds;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t next = text.find("== round ", pos + 1);
    if (next == std::string::npos) next = text.size();
    rounds.push_back(text.substr(pos, next - pos));
    pos = next;
  }
  return rounds;
}

// A round's recommended workload cost as a percentage of its current cost,
// from the exact costs its delta text carries ("current_cost=<hex>
// recommended_cost=<hex>").
double RoundCostPct(const std::string& round) {
  const size_t c = round.find("current_cost=");
  const size_t r = round.find("recommended_cost=");
  if (c == std::string::npos || r == std::string::npos) return 100.0;
  const double current = std::strtod(round.c_str() + c + 13, nullptr);
  const double recommended = std::strtod(round.c_str() + r + 17, nullptr);
  return current > 0 ? 100.0 * recommended / current : 100.0;
}

class OltpStreamWorkload : public BenchWorkload {
 public:
  OltpStreamWorkload(uint64_t seed, bool smoke)
      : events_(smoke ? 2000 : 40000),
        interval_(smoke ? 500 : 10000),
        skip_(static_cast<size_t>(seed % kWindows) * kWindowStride),
        profile_(workloads::Cust3()) {}

  ~OltpStreamWorkload() override {
    if (!ckpt_path_.empty()) std::remove(ckpt_path_.c_str());
  }

  Status Setup() override {
    pristine_ = std::make_unique<server::Server>(
        "prod", optimizer::HardwareParams());
    DTA_RETURN_IF_ERROR(workloads::AttachCustomer(pristine_.get(), profile_));
    // Capture generation: every event draws its own constants; the seed
    // picks which stretch of the CUST3 event stream is captured.
    const workload::Workload wl =
        workloads::CustomerWorkload(profile_, *pristine_, skip_ + events_);
    lines_.clear();
    for (size_t i = skip_; i < wl.size(); ++i) {
      const auto& ws = wl.statements()[i];
      std::string line = ws.text;
      std::replace(line.begin(), line.end(), '\n', ' ');
      std::replace(line.begin(), line.end(), '\r', ' ');
      lines_.push_back(std::move(line));
    }
    // Each re-tune window is fed as two chunks: all but its last event
    // (pure ingest), then the last event, which fires the round.
    ingest_chunks_.clear();
    round_chunks_.clear();
    for (size_t start = 0; start + interval_ <= lines_.size();
         start += interval_) {
      std::string ingest;
      for (size_t i = start; i + 1 < start + interval_; ++i) {
        ingest += lines_[i];
        ingest += '\n';
      }
      ingest_chunks_.push_back(std::move(ingest));
      round_chunks_.push_back(lines_[start + interval_ - 1] + "\n");
    }
    ckpt_path_ = TempPath("stream.ckpt");
    return Status::Ok();
  }

  Result<std::vector<std::string>> Reference() override {
    // The first repetition's per-round delta text; every later repetition
    // must reproduce it byte for byte.
    auto it = Repetition(nullptr, nullptr, nullptr, nullptr);
    if (!it.ok()) return it.status();
    return it->outputs;
  }

  bool SingleThreaded() const override { return true; }

  Result<Iteration> RunOnce() override {
    return Repetition(nullptr, nullptr, nullptr, nullptr);
  }

  Result<Iteration> RunTraced(SpanLog* log, TracedRun* out) override {
    MetricsRegistry metrics;
    Tracer tracer;
    const int session = 1;
    int root = log->Begin("traced_run", session);
    const double origin = NowMs();
    // Declared before the tuner so it outlives it.
    std::unique_ptr<server::Server> server;
    std::unique_ptr<tuner::stream::ContinuousTuner> tuner;
    double feed_ms = 0;
    auto it = Repetition(&metrics, &tracer, &tuner, &server, &feed_ms);
    if (!it.ok()) return it.status();
    log->Import(tracer, origin, session);
    const double rounds = static_cast<double>(tuner->rounds());
    out->tune_ms = Median(it->tune_ms);

    // Ingest = Feed wall time outside the rounds; round overhead = the
    // stream_round span minus the session's tune span inside it.
    double round_span = 0;
    double tune_in_rounds = 0;
    for (const auto& s : tracer.Spans()) {
      if (s.name == "stream_round" && s.depth == 0) round_span += s.duration_ms;
      if (s.name == "tune" && s.depth == 1) tune_in_rounds += s.duration_ms;
    }
    out->layers["stream.ingest_us_per_event"] = {
        1000.0 * (feed_ms - round_span) / static_cast<double>(it->events),
        "us"};
    out->layers["stream.round_overhead_ms"] = {
        (round_span - tune_in_rounds) / rounds, "ms"};
    out->layers["stream.ingest_share_pct"] = {
        100.0 * (feed_ms - round_span) / feed_ms, "%"};
    double delta_bytes = 0;
    for (size_t b : tuner->delta_bytes_history()) {
      delta_bytes += static_cast<double>(b);
    }
    out->layers["checkpoint.delta_bytes_per_round"] = {
        tuner->delta_bytes_history().empty()
            ? 0.0
            : delta_bytes /
                  static_cast<double>(tuner->delta_bytes_history().size()),
        "bytes"};
    SessionLayers(tracer, metrics, rounds, &out->layers);
    // Rounds tune with one thread: the pool is the calling thread.
    out->layers["pool.utilization"] = {1.0, "ratio"};

    const workload::Workload snapshot = tuner->stream_workload().Snapshot();
    LayerInputs in;
    in.server = server.get();
    in.workload = &snapshot;
    const size_t sample = std::min<size_t>(lines_.size(), 2000);
    in.texts.assign(lines_.begin(), lines_.begin() + sample);
    in.raw = workloads::CustomerRawConfiguration(profile_, *server);
    in.recommendation = tuner->recommendation();
    in.attach = [this](server::Server* s) {
      return workloads::AttachCustomer(s, profile_);
    };
    in.session = session;
    const ReplaySet replay = BuildReplaySet(in);
    DTA_RETURN_IF_ERROR(MeasureCommonLayers(in, replay, log, &out->layers));
    log->End(root);
    return it;
  }

 private:
  // One pass over the capture with a fresh service on a fresh clone of the
  // schema-only server. The kept tuner and server (traced run) stay alive
  // for the layer replays.
  Result<Iteration> Repetition(
      MetricsRegistry* metrics, Tracer* tracer,
      std::unique_ptr<tuner::stream::ContinuousTuner>* keep_tuner,
      std::unique_ptr<server::Server>* keep_server,
      double* feed_ms = nullptr) {
    auto clone = pristine_->Clone("stream");
    if (!clone.ok()) return clone.status();
    std::unique_ptr<server::Server> server = std::move(clone).value();
    std::remove(ckpt_path_.c_str());
    tuner::stream::ContinuousTuner::Config config;
    config.server = server.get();
    config.options.num_threads = 1;
    config.options.shards = 1;
    config.retune_interval_events = interval_;
    config.checkpoint_path = ckpt_path_;
    config.metrics = metrics;
    config.tracer = tracer;
    auto tuner =
        std::make_unique<tuner::stream::ContinuousTuner>(std::move(config));
    DTA_RETURN_IF_ERROR(tuner->Init());

    Iteration it;
    for (size_t w = 0; w < ingest_chunks_.size(); ++w) {
      const double t0 = NowMs();
      DTA_RETURN_IF_ERROR(tuner->Feed(ingest_chunks_[w]));
      const double t1 = NowMs();
      DTA_RETURN_IF_ERROR(tuner->Feed(round_chunks_[w]));
      const double t2 = NowMs();
      it.tune_ms.push_back(t2 - t1);
      it.timed_ms += t2 - t0;
    }
    DTA_RETURN_IF_ERROR(tuner->Finish());
    if (tuner->rounds() != ingest_chunks_.size()) {
      return Status::Internal(StrFormat(
          "expected %zu rounds, got %llu", ingest_chunks_.size(),
          static_cast<unsigned long long>(tuner->rounds())));
    }
    if (feed_ms != nullptr) *feed_ms = it.timed_ms;
    it.events = ingest_chunks_.size() * interval_;
    it.outputs = SplitRounds(tuner->delta_text());
    const double rounds = static_cast<double>(tuner->rounds());
    it.server_overhead_ms = server->overhead_ms() / rounds;
    it.recommended_cost_pct =
        it.outputs.empty() ? 100.0 : RoundCostPct(it.outputs.back());
    for (size_t b : tuner->delta_bytes_history()) {
      it.invariants.push_back(static_cast<double>(b));
    }
    it.invariants.push_back(static_cast<double>(tuner->memo_entries()));
    if (keep_tuner != nullptr) *keep_tuner = std::move(tuner);
    if (keep_server != nullptr) *keep_server = std::move(server);
    return it;
  }

  // The seed selects one of kWindows capture windows, kWindowStride events
  // apart. The CUST3 profile itself (schema, template mix) stays fixed: its
  // own seed re-draws the templates, which moves the deterministic metrics
  // far more than any regression bound. The skipped events are generated
  // too, so the stride stays small to keep peak memory nearly seed-free.
  static constexpr uint64_t kWindows = 16;
  static constexpr size_t kWindowStride = 250;

  const size_t events_;
  const size_t interval_;
  const size_t skip_;
  const workloads::CustomerProfile profile_;
  std::unique_ptr<server::Server> pristine_;
  std::vector<std::string> lines_;
  std::vector<std::string> ingest_chunks_;
  std::vector<std::string> round_chunks_;
  std::string ckpt_path_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            uint64_t seed, bool smoke) {
  if (name == "tpch_serial") {
    return std::make_unique<TpchWorkload>(seed, /*socket=*/false, smoke);
  }
  if (name == "tpch_socket") {
    return std::make_unique<TpchWorkload>(seed, /*socket=*/true, smoke);
  }
  if (name == "oltp_stream") {
    return std::make_unique<OltpStreamWorkload>(seed, smoke);
  }
  return nullptr;
}

}  // namespace dta::perfbench
