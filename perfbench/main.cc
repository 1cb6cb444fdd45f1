// perfbench_dta — runs one benchmark workload and prints its result as one
// JSON line (the last line of standard output). Progress and the first
// divergence of a failed correctness check go to standard error.
//
//   perfbench_dta --workload tpch_serial|tpch_socket|oltp_stream
//                 --seed N --seconds S --trace 0|1
//                 [--smoke] [--mismatch-reference] [--spans PATH]
//
// --trace 0  timed run: closed-loop iterations for S seconds, end-to-end
//            metrics.
// --trace 1  traced run: untraced iterations for S/2 seconds (the baseline
//            of trace.overhead_pct), then one iteration with the library
//            tracer and metrics attached plus the direct layer calls;
//            per-layer metrics. --spans writes every span as JSON.
// --smoke    reduced inputs and a single setup, for the self-test.
// --mismatch-reference  corrupts the reference outputs, so every
//            correctness check must fail (the self-test's negative case).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/strings.h"
#include "harness.h"

namespace dta::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool mismatch_reference = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--mismatch-reference") {
      args->mismatch_reference = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace" || flag == "--spans") {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") args->workload = v;
      if (flag == "--seed") args->seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args->seconds = std::atof(v);
      if (flag == "--trace") args->trace = std::strcmp(v, "0") != 0;
      if (flag == "--spans") args->spans_path = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Moves single-threaded work to one allowed CPU after another, so a CPU
// slowed by other tenants of the host holds only its share of the samples
// instead of whole stretches of the run. Disabled for multi-threaded
// workloads: threads they start would inherit the one-CPU affinity.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&allowed_);
    if (enabled && ::sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }
  void Restore() {
    if (cpus_.size() > 1) ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Compares every iteration against the reference outputs and against the
// deterministic values of the first iteration with the same reference
// index.
class Checker {
 public:
  explicit Checker(std::vector<std::string> reference)
      : reference_(std::move(reference)) {}

  void Check(const Iteration& it) {
    // Server overhead is a sum the workers' threads accrue in any order, so
    // it repeats only up to floating-point rounding; everything else must
    // repeat exactly.
    auto found = first_.find(it.reference_index);
    const Iteration* first = found == first_.end() ? nullptr : &found->second;
    const bool same_values =
        first == nullptr ||
        (it.invariants == first->invariants &&
         it.recommended_cost_pct == first->recommended_cost_pct &&
         std::fabs(it.server_overhead_ms - first->server_overhead_ms) <=
             1e-9 * std::fabs(first->server_overhead_ms));
    if (!same_values && failed_ == 0) {
      std::fprintf(stderr,
                   "check: deterministic values differ from the first "
                   "iteration (recommended cost %.17g vs %.17g, overhead %.17g "
                   "vs %.17g)\n",
                   it.recommended_cost_pct, first->recommended_cost_pct,
                   it.server_overhead_ms, first->server_overhead_ms);
    }
    for (size_t k = 0; k < std::max<size_t>(it.outputs.size(), 1); ++k) {
      ++attempted_;
      const size_t ref = it.reference_index + k;
      const bool same_output = k < it.outputs.size() &&
                               ref < reference_.size() &&
                               it.outputs[k] == reference_[ref];
      if (same_output && same_values) continue;
      if (!same_output && failed_ == 0) ReportDiff(it, k);
      ++failed_;
    }
    if (first == nullptr) first_.emplace(it.reference_index, it);
  }

  // The mean of a deterministic value over the distinct inputs seen.
  double MeanOverInputs(double Iteration::*field) const {
    double sum = 0;
    for (const auto& [index, it] : first_) sum += it.*field;
    return first_.empty() ? 0 : sum / static_cast<double>(first_.size());
  }

  void Error(const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    attempted_ += std::max<size_t>(1, reference_.size());
    failed_ += std::max<size_t>(1, reference_.size());
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  void ReportDiff(const Iteration& it, size_t k) const {
    const std::string got = k < it.outputs.size() ? it.outputs[k] : "";
    const size_t ref = it.reference_index + k;
    const std::string want = ref < reference_.size() ? reference_[ref] : "";
    size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
    std::fprintf(stderr,
                 "check: output %zu differs from the reference at byte %zu\n"
                 "  reference: ...%s\n  got:       ...%s\n",
                 k, at, want.substr(at, 120).c_str(),
                 got.substr(at, 120).c_str());
  }

  std::vector<std::string> reference_;
  std::map<size_t, Iteration> first_;  // by reference index
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

void AppendMetric(std::string* out, const std::string& name, const Metric& m) {
  if (out->back() != '{') *out += ", ";
  *out += StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    JsonEscape(name).c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_dta --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--mismatch-reference] "
                 "[--spans PATH]\n");
    return 2;
  }
  auto workload = MakeWorkload(args.workload, args.seed, args.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up runs several times; setup_s is the median.
  CpuRotation rotation(workload->SingleThreaded());
  std::vector<double> setup_s;
  for (int k = 0; k < (args.smoke ? 1 : 3); ++k) {
    rotation.Next();
    const double t0 = NowMs();
    Status s = workload->Setup();
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  auto reference = workload->Reference();
  if (!reference.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  if (args.mismatch_reference) {
    for (std::string& r : *reference) r += "<!-- mismatched reference -->";
  }
  Checker checker(*reference);

  // Closed loop: the next iteration starts when the previous one returned.
  std::vector<double> tune_ms;
  // Samples on the traced run's input (reference index 0): the baseline of
  // trace.overhead_pct.
  std::vector<double> baseline_ms;
  double timed_ms = 0;
  size_t events = 0;
  const double budget_ms = 1000.0 * args.seconds * (args.trace ? 0.5 : 1.0);
  const double loop_start = NowMs();
  do {
    rotation.Next();
    auto it = workload->RunOnce();
    if (!it.ok()) {
      checker.Error(it.status());
      break;
    }
    checker.Check(*it);
    tune_ms.insert(tune_ms.end(), it->tune_ms.begin(), it->tune_ms.end());
    if (it->reference_index == 0) {
      baseline_ms.insert(baseline_ms.end(), it->tune_ms.begin(),
                         it->tune_ms.end());
    }
    timed_ms += it->timed_ms;
    events += it->events;
  } while (NowMs() - loop_start < budget_ms);
  rotation.Restore();

  Metrics metrics;
  std::string info;
  if (!args.trace && !tune_ms.empty()) {
    std::vector<double> sorted = tune_ms;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    // The highest percentile that still has at least ten samples above it
    // (the lowest sample when there are too few).
    const size_t tail_index = n > 10 ? n - 11 : 0;
    metrics["tune_ms"] = {Median(tune_ms), "ms"};
    metrics["tune_ms.tail"] = {sorted[tail_index], "ms"};
    metrics["events_per_s"] = {
        1000.0 * static_cast<double>(events) / timed_ms, "1/s"};
    metrics["recommended_cost_pct"] = {
        checker.MeanOverInputs(&Iteration::recommended_cost_pct), "%"};
    metrics["server_overhead_ms"] = {
        checker.MeanOverInputs(&Iteration::server_overhead_ms), "sim_ms"};
    std::string samples;
    for (double t : tune_ms) {
      samples += StrFormat("%s%.6f", samples.empty() ? "" : ", ", t);
    }
    info = StrFormat(
        "\"tune_samples\": %zu, \"tail_percentile\": %.2f, "
        "\"tail_samples_beyond\": %zu, \"tune_samples_ms\": [%s]",
        n, 100.0 * static_cast<double>(tail_index + 1) /
               static_cast<double>(n),
        n - 1 - tail_index, samples.c_str());
  }
  if (args.trace && !tune_ms.empty()) {
    SpanLog log;
    TracedRun traced;
    auto it = workload->RunTraced(&log, &traced);
    if (!it.ok()) {
      checker.Error(it.status());
    } else {
      checker.Check(*it);
      metrics = traced.layers;
      const double base = Median(baseline_ms);
      metrics["trace.tune_ms"] = {traced.tune_ms, "ms"};
      metrics["trace.overhead_pct"] = {
          base > 0 ? 100.0 * (traced.tune_ms - base) / base : 0.0, "%"};
      FillAbsentLayers(&metrics);
      info = StrFormat("\"untraced_tune_ms\": %.6f", base);
    }
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      out << log.ToJson();
    }
  }
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["rss_mb"] = {PeakRssMb(), "MB"};
  const double failed_frac =
      checker.attempted() > 0 ? static_cast<double>(checker.failed()) /
                                    static_cast<double>(checker.attempted())
                              : 1.0;
  metrics["failed_frac"] = {failed_frac, "ratio"};

  const bool correct = checker.failed() == 0 && checker.attempted() > 0;
  std::string out = "{";
  for (const auto& [name, m] : metrics) AppendMetric(&out, name, m);
  out += "}";
  std::string setup_list;
  for (double s : setup_s) {
    setup_list += StrFormat("%s%.6f", setup_list.empty() ? "" : ", ", s);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s, \"info\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"setup_samples_s\": "
      "[%s]%s%s}}\n",
      correct ? "true" : "false", checker.attempted(), checker.failed(),
      out.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, setup_list.c_str(),
      info.empty() ? "" : ", ", info.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace dta::perfbench

int main(int argc, char** argv) { return dta::perfbench::Run(argc, argv); }
