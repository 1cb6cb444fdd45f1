// perfbench — the repo benchmark program.
//
// One process runs one named workload through the public tuning APIs:
//   tpch_serial  TuningSession::Tune, num_threads=1, shards=1
//   tpch_socket  the same statements over Transport::kSocket, 2 shards,
//                2 threads, two in-process rpc::CostWorkers
//   oltp_stream  stream::ContinuousTuner over a CUST3 capture with the
//                delta-log checkpoint on
// Every workload is closed loop with a single client: the next session (or
// capture chunk) starts only after the previous one returned.
//
// The timed run (--trace 0) reports the user-facing metrics. The traced run
// (--trace 1) attaches the library's Tracer and MetricsRegistry to one
// session or stream and times direct calls into each layer's public
// functions, replaying the workload's own inputs; it reports per-layer
// metrics. See perfbench/README.md for the metric definitions.

#ifndef DTA_PERFBENCH_HARNESS_H_
#define DTA_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/physical_design.h"
#include "common/status.h"
#include "common/trace.h"
#include "server/server.h"
#include "workload/workload.h"

namespace dta::perfbench {

inline double NowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// The benchmark's own span record: kept in memory, written out once at the
// end of the run. Library spans (Tracer) are folded in with their parents
// resolved from depth, so one file shows both the session's phases and the
// benchmark's direct layer calls.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int session = 0;
  };

  int Begin(const std::string& name, int session) {
    spans_.push_back({name, NowMs(), 0, open_.empty() ? -1 : open_.back(),
                      session});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ms = NowMs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  // Copies a Tracer's closed spans under the innermost open span.
  // `origin_ms` is the absolute time of the tracer's first span.
  void Import(const Tracer& tracer, double origin_ms, int session);
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span in a SpanLog (null log: no-op).
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name, int session) : log_(log) {
    if (log_ != nullptr) id_ = log_->Begin(name, session);
  }
  ~Scoped() {
    if (log_ != nullptr) log_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
};

// One closed-loop iteration: a tuning session (TPC-H workloads) or one
// repetition of the capture (oltp_stream).
struct Iteration {
  // Wall time of each tuning unit (session or re-tune round).
  std::vector<double> tune_ms;
  // Checked output of each unit: recommendation XML, or the round's delta
  // text. Compared byte for byte against the workload's reference outputs,
  // starting at reference_index.
  std::vector<std::string> outputs;
  size_t reference_index = 0;
  // Deterministic values that must repeat exactly within a run (across
  // iterations with the same reference_index).
  std::vector<double> invariants;
  double timed_ms = 0;  // wall time of the timed part
  size_t events = 0;    // statements tuned (or ingested and tuned)
  double recommended_cost_pct = 0;
  double server_overhead_ms = 0;  // per unit
};

// Per-layer numbers from the traced run; filled by the workload.
struct TracedRun {
  Metrics layers;
  double tune_ms = 0;  // the traced session's (or round's) wall time
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  // Builds the workload's servers, workers and inputs. Called several times
  // per run (setup_s is the median); each call replaces the previous state.
  virtual Status Setup() = 0;
  // Computes the reference outputs (outside setup_s).
  virtual Result<std::vector<std::string>> Reference() = 0;
  virtual Result<Iteration> RunOnce() = 0;
  // True when an iteration runs entirely on the calling thread.
  virtual bool SingleThreaded() const = 0;
  // One iteration with the library tracer and metrics attached, plus the
  // direct layer calls. `log` receives every span.
  virtual Result<Iteration> RunTraced(SpanLog* log, TracedRun* out) = 0;
};

std::unique_ptr<BenchWorkload> MakeWorkload(const std::string& name,
                                            uint64_t seed, bool smoke);

// ---- Layer replays (layers.cc) -------------------------------------------

// The inputs a layer replay works on: the workload's statement texts, its
// raw configuration, the recommendation the traced run produced, and the
// statistics-warm server it was tuned on.
struct LayerInputs {
  server::Server* server = nullptr;
  const workload::Workload* workload = nullptr;
  std::vector<std::string> texts;  // statement texts to parse
  catalog::Configuration raw;
  catalog::Configuration recommendation;
  // Attaches the workload's schema to a fresh server (for stats timing).
  std::function<Status(server::Server*)> attach;
  int session = 0;
};

// The (statement, configuration) pairs every replay uses: each statement
// under the raw configuration, then under each greedy prefix of the
// recommendation.
struct ReplayPair {
  size_t statement = 0;
  size_t config = 0;  // index into ReplaySet::configs
};
struct ReplaySet {
  std::vector<catalog::Configuration> configs;
  std::vector<ReplayPair> pairs;
};
ReplaySet BuildReplaySet(const LayerInputs& in);

// Layers every workload exercises: sql, workload compression, catalog,
// optimizer, stats, cost service, derived cost, xml.
Status MeasureCommonLayers(const LayerInputs& in, const ReplaySet& replay,
                           SpanLog* log, Metrics* out);
// Transport layer (tpch_socket only): wire codec and one outstanding round
// trip to a live CostWorker at `endpoint`.
Status MeasureRpcLayer(const LayerInputs& in, const ReplaySet& replay,
                       const std::string& endpoint, SpanLog* log,
                       Metrics* out);
// Session-level numbers from an attached tracer and metrics registry:
// phases, the unattributed residual, cost-service and router counters.
// `units` divides accumulated counts (1 for a session, rounds for a stream).
void SessionLayers(const Tracer& tracer, const MetricsRegistry& metrics,
                   double units, Metrics* out);

// Zero-valued per-layer metrics for layers a workload does not exercise,
// so every workload prints the full per-layer set.
void FillAbsentLayers(Metrics* out);

}  // namespace dta::perfbench

#endif  // DTA_PERFBENCH_HARNESS_H_
