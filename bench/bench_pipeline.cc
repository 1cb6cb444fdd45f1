// bench_pipeline — the CI bench-regression workload.
//
// Runs the TPC-H tuning pipeline under twelve scenarios (serial, underived,
// parallel, checkpointed, faulty, sharded, sharded_faulty, failslow,
// socket, socket_failslow, multitenant, streaming) and emits one
// observability document (dta-observability-v1,
// the same schema dta_cli --metrics-json writes) with, per scenario:
//   counters  bench.<scenario>.whatif_calls   — deterministic call counts
//   gauges    bench.<scenario>.wall_ms        — tuning wall-clock
// plus
//   counters  bench.checkpointed.checkpoint_writes /
//             bench.checkpointed.checkpoint_bytes — records and record bytes
//             the checkpointed run's checkpoint log wrote (deterministic,
//             gated like the call counts)
//             bench.serial.optimizer_stats_lookups — the serial session's
//             optimizer.stats_lookups: requests the optimizer's cardinality
//             estimator made to the statistics (deterministic, gated like
//             the call counts)
//   gauges    bench.checkpoint_overhead_pct   — checkpoint I/O time as a
//             percentage of the checkpointed run's wall-clock (span-based,
//             not run-vs-run, so it is robust to machine noise)
//             bench.fault_overhead_pct        — same for the faulty run's
//             extra wall-clock over the serial run
//             bench.shard_failover_overhead_pct — extra wall-clock of the
//             sharded run with one shard fault-killed mid-run over the
//             healthy sharded run (gated at an absolute ceiling)
//             bench.failslow_isolation_overhead_pct — extra wall-clock of
//             the sharded run with one shard fail-slow (successful but
//             latency-amplified responses) and the slowness detector
//             isolating it, over the healthy sharded run (gated at an
//             absolute ceiling)
//             bench.whatif_calls_saved_pct    — real what-if calls the
//             derived-costing layer avoided, as a percentage of the
//             underived (derivation-off) run's calls; counter-derived and
//             deterministic, gated at a floor. The recommendations of the
//             two runs are required to be byte-identical — a divergence
//             fails the benchmark itself.
//             bench.socket_failslow.pool_utilization /
//             bench.failslow.pool_utilization — achieved work/wall ratio of
//             the costing pool under one latency-amplified shard, over the
//             socket transport (an attempt holds only a wire credit, no
//             thread ever parks on the slow worker) vs the in-process
//             transport (an attempt prices on the thread that launched
//             it). The socket number is expected to hold at or above the
//             in-process one: that comparison is what justifies the
//             out-of-process transport.
//             bench.socket.request_bytes_per_call — what-if frame bytes
//             the socket scenario's channels wrote per call on the wire.
//             Which call carries a statement's or structure's one
//             registration depends on thread interleaving, so this is
//             reported, not gated (the stderr summary also prints the
//             in-run socket/sharded wall ratio).
//             bench.checkpoint.delta_bytes_per_round — bytes the streaming
//             (continuous tuning service) scenario appends to its delta log
//             in its final, steady-state round: the capture has fully
//             repeated by then, so this round's "new work" is just touched
//             template weights and the round's small bookkeeping — a sharp
//             O(new work) bound. Byte-derived and deterministic, gated at
//             an absolute ceiling even under --ignore-wall-clock; it
//             regresses if a steady-state round ever rewrites O(total
//             state). (bench.streaming.delta_bytes_avg, which early rounds'
//             genuinely-new memo entries dominate, is informational.)
//
// Every scenario's recommendation is also required to be byte-identical to
// the serial run's (failslow included — the detector is routing-only — and
// each multitenant tenant's).
//
// tools/bench_compare.py diffs this document against bench/baseline.json:
// locally (ctest) with --ignore-wall-clock so only the deterministic call
// counts gate; in CI's bench-regression job with wall-clock enforced at 10%.
//
// Usage: bench_pipeline [output.json]   (default stdout)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dta/rpc/worker.h"
#include "dta/stream/continuous.h"
#include "dta/tenant_driver.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "server/server.h"
#include "workload/workload.h"
#include "workloads/tpch.h"

namespace dta {
namespace {

constexpr double kScaleFactor = 0.25;
constexpr size_t kQueries = 22;
constexpr uint64_t kSeed = 42;

// One pipeline run on a fresh, statistics-warm server (the warm-up tune
// creates the statistics so the timed run measures the costing-dominated
// pipeline, exactly like the TunePipeline micro-benchmark). The timed
// session records into `metrics` when it is set.
Result<tuner::TuningResult> RunScenario(const tuner::TuningOptions& opts,
                                        const workload::Workload& wl,
                                        MetricsRegistry* metrics = nullptr) {
  auto server = std::make_unique<server::Server>(
      "prod", optimizer::HardwareParams());
  DTA_RETURN_IF_ERROR(workloads::AttachTpch(server.get(), kScaleFactor,
                                            /*with_data=*/false, 7));
  DTA_RETURN_IF_ERROR(
      server->ImplementConfiguration(workloads::TpchRawConfiguration()));
  {
    tuner::TuningSession warmup(server.get(), tuner::TuningOptions{});
    auto w = warmup.Tune(wl);
    if (!w.ok()) return w.status();
  }
  tuner::TuningSession session(server.get(), opts);
  if (metrics != nullptr) {
    session.SetObservability({metrics, nullptr, nullptr});
  }
  return session.Tune(wl);
}

// Builds one statistics-warm TPC-H server (same recipe as RunScenario).
Result<std::unique_ptr<server::Server>> MakeWarmServer(
    const std::string& name, const workload::Workload& wl) {
  auto server =
      std::make_unique<server::Server>(name, optimizer::HardwareParams());
  DTA_RETURN_IF_ERROR(workloads::AttachTpch(server.get(), kScaleFactor,
                                            /*with_data=*/false, 7));
  DTA_RETURN_IF_ERROR(
      server->ImplementConfiguration(workloads::TpchRawConfiguration()));
  tuner::TuningSession warmup(server.get(), tuner::TuningOptions{});
  auto w = warmup.Tune(wl);
  if (!w.ok()) return w.status();
  return server;
}

// Socket-transport scenario: the same TPC-H pipeline with every what-if
// call crossing a Unix socket to an in-process CostWorker fleet serving
// clones of the warm server (clones carry the warm statistics, so the
// timed run measures the costing wire, not statistics builds). When
// `victim_fault` is non-empty, worker 2 prices through a FaultInjector
// parsed from it — the fail-slow wire scenario. The session records into
// `metrics` when it is set.
Result<tuner::TuningResult> RunSocketScenario(
    int shards, int threads, const std::string& victim_fault,
    const workload::Workload& wl, MetricsRegistry* metrics = nullptr) {
  auto prod = MakeWarmServer("prod", wl);
  if (!prod.ok()) return prod.status();
  // Workers shut down (joining their serve threads) before the clone
  // servers they price on are destroyed.
  std::vector<std::unique_ptr<server::Server>> clones;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<rpc::CostWorker>> workers;
  std::vector<std::string> endpoints;
  static int socket_serial = 0;
  for (int i = 0; i < shards; ++i) {
    auto clone = (*prod)->Clone("worker" + std::to_string(i));
    if (!clone.ok()) return clone.status();
    if (i == 2 && !victim_fault.empty()) {
      auto spec = FaultSpec::Parse(victim_fault);
      if (!spec.ok()) return spec.status();
      injectors.push_back(std::make_unique<FaultInjector>(*spec));
      (*clone)->set_fault_injector(injectors.back().get());
    }
    rpc::CostWorkerOptions wopts;
    wopts.threads = 2;
    workers.push_back(
        std::make_unique<rpc::CostWorker>(clone->get(), wopts));
    clones.push_back(std::move(clone).value());
    endpoints.push_back(StrFormat("/tmp/dta_bench_%d_%d.sock",
                                  static_cast<int>(::getpid()),
                                  socket_serial++));
    DTA_RETURN_IF_ERROR(workers.back()->Listen(endpoints.back()));
  }
  tuner::TuningOptions opts;
  opts.num_threads = threads;
  opts.shards = shards;
  opts.transport = tuner::TuningOptions::Transport::kSocket;
  opts.socket_endpoints = endpoints;
  tuner::TuningSession session(prod->get(), opts);
  if (metrics != nullptr) {
    session.SetObservability({metrics, nullptr, nullptr});
  }
  auto r = session.Tune(wl);
  for (const std::string& path : endpoints) std::remove(path.c_str());
  return r;
}

// N tenants, each tuning its own warm server under `opts`, sharing what-if
// capacity through the driver's admission control. Returns the outcomes;
// `wall_ms` gets the whole fleet's wall-clock.
Result<std::vector<tuner::TenantOutcome>> RunMultiTenant(
    const tuner::TuningOptions& opts, const workload::Workload& wl, int n,
    double* wall_ms) {
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<server::Server*> server_ptrs;
  std::vector<tuner::TenantSpec> specs;
  for (int i = 0; i < n; ++i) {
    auto server = MakeWarmServer("prod-t" + std::to_string(i), wl);
    if (!server.ok()) return server.status();
    server_ptrs.push_back(server->get());
    servers.push_back(std::move(server).value());
    tuner::TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.workload = &wl;
    spec.options = opts;
    spec.weight = 1;
    specs.push_back(std::move(spec));
  }
  tuner::TenantDriver driver(tuner::TenantDriverOptions{});
  const double t0 = MonotonicClock::Instance()->NowMs();
  auto outcomes = driver.Run(specs, server_ptrs);
  *wall_ms = MonotonicClock::Instance()->NowMs() - t0;
  return outcomes;
}

void Record(MetricsRegistry* metrics, const std::string& scenario,
            const tuner::TuningResult& r) {
  metrics->GetCounter("bench." + scenario + ".whatif_calls")
      ->Increment(r.whatif_calls);
  metrics->GetGauge("bench." + scenario + ".wall_ms")->Set(r.tuning_time_ms);
}

int Run(int argc, char** argv) {
  workload::Workload wl = workloads::TpchQueriesPrefix(kQueries, kSeed);
  MetricsRegistry metrics;

  tuner::TuningOptions serial_opts;
  serial_opts.num_threads = 1;
  MetricsRegistry serial_metrics;
  auto serial = RunScenario(serial_opts, wl, &serial_metrics);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial: %s\n", serial.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "serial", *serial);
  metrics.GetCounter("bench.serial.optimizer_stats_lookups")
      ->Increment(
          serial_metrics.GetCounter("optimizer.stats_lookups")->value());

  // Derivation switched off: every cache miss makes a real what-if call.
  // The delta against the (derived) serial run is the calls-saved gauge,
  // and the two recommendations must match byte-for-byte.
  tuner::TuningOptions underived_opts;
  underived_opts.num_threads = 1;
  underived_opts.derived_costing = false;
  auto underived = RunScenario(underived_opts, wl);
  if (!underived.ok()) {
    std::fprintf(stderr, "underived: %s\n",
                 underived.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "underived", *underived);
  const std::string serial_rec =
      tuner::ConfigurationToXml(serial->recommendation)->ToString();
  const std::string underived_rec =
      tuner::ConfigurationToXml(underived->recommendation)->ToString();
  if (serial_rec != underived_rec) {
    std::fprintf(stderr,
                 "derived costing changed the recommendation:\n"
                 "--- derived ---\n%s\n--- underived ---\n%s\n",
                 serial_rec.c_str(), underived_rec.c_str());
    return 1;
  }

  tuner::TuningOptions parallel_opts;
  parallel_opts.num_threads = 4;
  auto parallel = RunScenario(parallel_opts, wl);
  if (!parallel.ok()) {
    std::fprintf(stderr, "parallel: %s\n",
                 parallel.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "parallel", *parallel);

  const std::string ckpt_path = "bench_pipeline_ckpt.tmp";
  tuner::TuningOptions ckpt_opts;
  ckpt_opts.num_threads = 1;
  // Every phase and enumeration round writes a record to the checkpoint
  // log: a base, then segments carrying only what changed since the
  // previous record.
  ckpt_opts.checkpoint_path = ckpt_path;
  auto checkpointed = RunScenario(ckpt_opts, wl);
  std::remove(ckpt_path.c_str());
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "checkpointed: %s\n",
                 checkpointed.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "checkpointed", *checkpointed);
  // Byte- and count-derived, so they gate like the call counters: a write
  // that re-sends old state, or a lost write, shows up here on any host.
  metrics.GetCounter("bench.checkpointed.checkpoint_writes")
      ->Increment(checkpointed->checkpoint_writes);
  metrics.GetCounter("bench.checkpointed.checkpoint_bytes")
      ->Increment(checkpointed->checkpoint_bytes);

  tuner::TuningOptions fault_opts;
  fault_opts.num_threads = 1;
  fault_opts.fault_spec = "seed=42,transient=0.02,latency_ms=0.05";
  auto faulty = RunScenario(fault_opts, wl);
  if (!faulty.ok()) {
    std::fprintf(stderr, "faulty: %s\n", faulty.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "faulty", *faulty);

  // Sharded costing: the whatif_calls counters must equal the serial
  // scenario's exactly (the router only moves calls; dedup prices each
  // logical call once), so this scenario gates topology-invariance in CI.
  tuner::TuningOptions sharded_opts;
  sharded_opts.num_threads = 4;
  sharded_opts.shards = 4;
  auto sharded = RunScenario(sharded_opts, wl);
  if (!sharded.ok()) {
    std::fprintf(stderr, "sharded: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "sharded", *sharded);

  // Same fleet with shard 2 fault-killed at its 40th call: failover must
  // keep the call count identical; the extra wall-clock is the failover
  // overhead gauge below.
  tuner::TuningOptions sharded_fault_opts = sharded_opts;
  sharded_fault_opts.shard_fault_spec = "2:down_after=40";
  auto sharded_faulty = RunScenario(sharded_fault_opts, wl);
  if (!sharded_faulty.ok()) {
    std::fprintf(stderr, "sharded_faulty: %s\n",
                 sharded_faulty.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "sharded_faulty", *sharded_faulty);

  // Same fleet with shard 2 fail-slow: it answers every call successfully
  // but ~200x late from its 5th call on. The latency-based detector
  // (slow_threshold=4) demotes it to probe-only routing; the extra
  // wall-clock over the healthy sharded run is the isolation-overhead gauge
  // gated in CI. Fail-slow is routing-only, so the recommendation must stay
  // byte-identical to the serial run's.
  tuner::TuningOptions failslow_opts = sharded_opts;
  failslow_opts.shard_fault_spec = "2:latency_ms=0.05,slow_after=5,slow_factor=200";
  failslow_opts.shard_slow_threshold = 4;
  auto failslow = RunScenario(failslow_opts, wl);
  if (!failslow.ok()) {
    std::fprintf(stderr, "failslow: %s\n",
                 failslow.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "failslow", *failslow);
  const std::string failslow_rec =
      tuner::ConfigurationToXml(failslow->recommendation)->ToString();
  if (failslow_rec != serial_rec) {
    std::fprintf(stderr,
                 "fail-slow isolation changed the recommendation:\n"
                 "--- serial ---\n%s\n--- failslow ---\n%s\n",
                 serial_rec.c_str(), failslow_rec.c_str());
    return 1;
  }

  // Socket transport, same fleet shape as `sharded`: every pricing crosses
  // a Unix socket to a CostWorker. The call counter must equal the serial
  // scenario's (the transport only moves bytes) and the recommendation must
  // stay byte-identical — this scenario gates transport-invariance in CI.
  MetricsRegistry socket_metrics;
  auto socket = RunSocketScenario(4, 4, "", wl, &socket_metrics);
  if (!socket.ok()) {
    std::fprintf(stderr, "socket: %s\n", socket.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "socket", *socket);
  const std::string socket_rec =
      tuner::ConfigurationToXml(socket->recommendation)->ToString();
  if (socket_rec != serial_rec) {
    std::fprintf(stderr,
                 "socket transport changed the recommendation:\n"
                 "--- serial ---\n%s\n--- socket ---\n%s\n",
                 serial_rec.c_str(), socket_rec.c_str());
    return 1;
  }
  // rpc.calls counts every attempt, and each attempt writes one frame.
  const auto rpc_counters = socket_metrics.CounterValues();
  auto rpc_count = [&rpc_counters](const char* name) {
    auto it = rpc_counters.find(name);
    return it == rpc_counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double request_bytes_per_call =
      rpc_count("rpc.calls") > 0
          ? rpc_count("rpc.request_bytes") / rpc_count("rpc.calls")
          : 0.0;
  metrics.GetGauge("bench.socket.request_bytes_per_call")
      ->Set(request_bytes_per_call);

  // Socket transport with worker 2 fail-slow (the same latency spec the
  // in-process failslow scenario injects, applied on the worker side). A
  // socket attempt holds a wire credit, not a pool thread, so the pool's
  // work/wall utilization should hold at or above the in-process fail-slow
  // run's — that comparison is exported as the pool_utilization gauges
  // below.
  auto socket_failslow = RunSocketScenario(
      4, 4, "latency_ms=0.05,slow_after=5,slow_factor=200", wl);
  if (!socket_failslow.ok()) {
    std::fprintf(stderr, "socket_failslow: %s\n",
                 socket_failslow.status().ToString().c_str());
    return 1;
  }
  Record(&metrics, "socket_failslow", *socket_failslow);
  const std::string socket_failslow_rec =
      tuner::ConfigurationToXml(socket_failslow->recommendation)->ToString();
  if (socket_failslow_rec != serial_rec) {
    std::fprintf(stderr,
                 "socket fail-slow chaos changed the recommendation:\n"
                 "--- serial ---\n%s\n--- socket_failslow ---\n%s\n",
                 serial_rec.c_str(), socket_failslow_rec.c_str());
    return 1;
  }
  metrics.GetGauge("bench.socket_failslow.pool_utilization")
      ->Set(socket_failslow->ParallelSpeedup());
  metrics.GetGauge("bench.failslow.pool_utilization")
      ->Set(failslow->ParallelSpeedup());

  // Three tenants tuning concurrently under shared admission control; every
  // tenant's recommendation must match the serial single-tenant run's.
  tuner::TuningOptions tenant_opts;
  tenant_opts.num_threads = 2;
  double multitenant_wall_ms = 0;
  auto tenants = RunMultiTenant(tenant_opts, wl, 3, &multitenant_wall_ms);
  if (!tenants.ok()) {
    std::fprintf(stderr, "multitenant: %s\n",
                 tenants.status().ToString().c_str());
    return 1;
  }
  size_t tenant_calls = 0;
  for (const tuner::TenantOutcome& o : *tenants) {
    if (!o.status.ok()) {
      std::fprintf(stderr, "multitenant tenant %s: %s\n", o.name.c_str(),
                   o.status.ToString().c_str());
      return 1;
    }
    tenant_calls += o.result.whatif_calls;
    const std::string rec =
        tuner::ConfigurationToXml(o.result.recommendation)->ToString();
    if (rec != serial_rec) {
      std::fprintf(stderr,
                   "multi-tenancy changed tenant %s's recommendation:\n"
                   "--- serial ---\n%s\n--- tenant ---\n%s\n",
                   o.name.c_str(), serial_rec.c_str(), rec.c_str());
      return 1;
    }
  }
  metrics.GetCounter("bench.multitenant.whatif_calls")
      ->Increment(tenant_calls);
  metrics.GetGauge("bench.multitenant.wall_ms")->Set(multitenant_wall_ms);

  // Continuous tuning service over the same 22 statements as a capture:
  // four full passes, re-tuned every 22 events — four rounds on a warm
  // server with a delta-log checkpoint. Early rounds price genuinely new
  // work (each pass shifts the weight vector, and one weight threshold
  // crossing creates a statistic, rebuilding the memo); by the final round
  // the service has converged — zero what-if calls, zero dirty memo
  // entries — so its appended segment carries only the touched template
  // weights and round bookkeeping. That final segment's bytes are the
  // delta-bytes gauge gated (at an absolute ceiling, even under
  // --ignore-wall-clock) by bench_compare. The accumulated whatif.calls
  // across all rounds is the scenario's deterministic counter: it
  // regresses if the cross-round memo stops carrying costs forward.
  auto stream_server = MakeWarmServer("prod-stream", wl);
  if (!stream_server.ok()) {
    std::fprintf(stderr, "streaming: %s\n",
                 stream_server.status().ToString().c_str());
    return 1;
  }
  std::string capture;
  for (int pass = 0; pass < 4; ++pass) {
    for (const workload::WorkloadStatement& ws : wl.statements()) {
      std::string line = ws.text;
      for (char& c : line) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      capture += line;
      capture += '\n';
    }
  }
  const std::string stream_ckpt = "bench_pipeline_stream_ckpt.tmp";
  std::remove(stream_ckpt.c_str());
  MetricsRegistry stream_metrics;
  tuner::stream::ContinuousTuner::Config stream_config;
  stream_config.server = stream_server->get();
  stream_config.options.num_threads = 4;
  stream_config.retune_interval_events = 22;
  stream_config.checkpoint_path = stream_ckpt;
  stream_config.metrics = &stream_metrics;
  tuner::stream::ContinuousTuner streaming(std::move(stream_config));
  const double stream_t0 = MonotonicClock::Instance()->NowMs();
  Status stream_status = streaming.Init();
  if (stream_status.ok()) stream_status = streaming.Feed(capture);
  if (stream_status.ok()) stream_status = streaming.Finish();
  const double streaming_wall_ms =
      MonotonicClock::Instance()->NowMs() - stream_t0;
  std::remove(stream_ckpt.c_str());
  if (!stream_status.ok()) {
    std::fprintf(stderr, "streaming: %s\n",
                 stream_status.ToString().c_str());
    return 1;
  }
  if (streaming.rounds() != 4) {
    std::fprintf(stderr, "streaming: expected 4 rounds, got %llu\n",
                 static_cast<unsigned long long>(streaming.rounds()));
    return 1;
  }
  metrics.GetCounter("bench.streaming.whatif_calls")
      ->Increment(stream_metrics.GetCounter("whatif.calls")->value());
  metrics.GetCounter("bench.streaming.rounds")
      ->Increment(streaming.rounds());
  metrics.GetGauge("bench.streaming.wall_ms")->Set(streaming_wall_ms);
  // Round 1 writes the base snapshot; each later round appends one delta
  // segment. The gated gauge is the final (steady-state) round's appended
  // bytes — by then the capture has fully repeated, so the segment must be
  // small; early rounds legitimately append their genuinely-new memo
  // entries, so their average is exported as information only.
  double delta_bytes_avg = 0;
  double delta_bytes_steady = 0;
  if (!streaming.delta_bytes_history().empty()) {
    double total = 0;
    for (size_t bytes : streaming.delta_bytes_history()) {
      total += static_cast<double>(bytes);
    }
    delta_bytes_avg =
        total / static_cast<double>(streaming.delta_bytes_history().size());
    delta_bytes_steady =
        static_cast<double>(streaming.delta_bytes_history().back());
  }
  metrics.GetGauge("bench.checkpoint.delta_bytes_per_round")
      ->Set(delta_bytes_steady);
  metrics.GetGauge("bench.streaming.delta_bytes_avg")->Set(delta_bytes_avg);

  // Robustness overheads (ROADMAP: < 1% checkpoint overhead target). The
  // checkpoint number divides the time actually spent inside checkpoint
  // writes by the same run's wall-clock — immune to run-to-run noise; the
  // fault number is a run-vs-run delta and is reported, not gated.
  const double ckpt_pct =
      checkpointed->tuning_time_ms > 0
          ? 100.0 * checkpointed->checkpoint_ms / checkpointed->tuning_time_ms
          : 0.0;
  metrics.GetGauge("bench.checkpoint_overhead_pct")->Set(ckpt_pct);
  const double fault_pct =
      serial->tuning_time_ms > 0
          ? 100.0 * (faulty->tuning_time_ms - serial->tuning_time_ms) /
                serial->tuning_time_ms
          : 0.0;
  metrics.GetGauge("bench.fault_overhead_pct")->Set(fault_pct);
  const double shard_failover_pct =
      sharded->tuning_time_ms > 0
          ? 100.0 *
                (sharded_faulty->tuning_time_ms - sharded->tuning_time_ms) /
                sharded->tuning_time_ms
          : 0.0;
  metrics.GetGauge("bench.shard_failover_overhead_pct")
      ->Set(shard_failover_pct);
  // Fail-slow isolation overhead: what a fleet pays to keep working while
  // one shard answers 200x late. Without the detector this run would be
  // latency-bound on the sick shard; with it, the cost is a handful of
  // pre-demotion calls plus periodic probes.
  const double failslow_pct =
      sharded->tuning_time_ms > 0
          ? 100.0 *
                (failslow->tuning_time_ms - sharded->tuning_time_ms) /
                sharded->tuning_time_ms
          : 0.0;
  metrics.GetGauge("bench.failslow_isolation_overhead_pct")
      ->Set(failslow_pct);
  // Counter-derived (wall-clock free): identical on every machine, so CI
  // gates it at a floor even where timings are ignored.
  const double saved_pct =
      underived->whatif_calls > 0
          ? 100.0 *
                (static_cast<double>(underived->whatif_calls) -
                 static_cast<double>(serial->whatif_calls)) /
                static_cast<double>(underived->whatif_calls)
          : 0.0;
  metrics.GetGauge("bench.whatif_calls_saved_pct")->Set(saved_pct);

  std::string doc = ObservabilityJson(metrics, nullptr);
  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    out << doc;
    std::fprintf(stderr,
                 "serial=%.0fms underived=%.0fms parallel=%.0fms "
                 "checkpointed=%.0fms faulty=%.0fms sharded=%.0fms "
                 "sharded_faulty=%.0fms failslow=%.0fms socket=%.0fms "
                 "(%.2fx sharded, %.0f request bytes per call) "
                 "socket_failslow=%.0fms multitenant=%.0fms "
                 "streaming=%.0fms (%llu rounds, steady-state segment "
                 "%.0f bytes, avg %.0f) "
                 "checkpoint_overhead=%.3f%% (%zu writes, %.1fms) "
                 "shard_failover_overhead=%.3f%% (%zu failovers) "
                 "failslow_isolation_overhead=%.3f%% (%zu slow demotions) "
                 "whatif_calls_saved=%.1f%% (%zu -> %zu calls) "
                 "pool_utilization: socket_failslow=%.2f failslow=%.2f\n",
                 serial->tuning_time_ms, underived->tuning_time_ms,
                 parallel->tuning_time_ms, checkpointed->tuning_time_ms,
                 faulty->tuning_time_ms, sharded->tuning_time_ms,
                 sharded_faulty->tuning_time_ms, failslow->tuning_time_ms,
                 socket->tuning_time_ms,
                 sharded->tuning_time_ms > 0
                     ? socket->tuning_time_ms / sharded->tuning_time_ms
                     : 0.0,
                 request_bytes_per_call, socket_failslow->tuning_time_ms,
                 multitenant_wall_ms, streaming_wall_ms,
                 static_cast<unsigned long long>(streaming.rounds()),
                 delta_bytes_steady, delta_bytes_avg, ckpt_pct,
                 checkpointed->checkpoint_writes, checkpointed->checkpoint_ms,
                 shard_failover_pct, sharded_faulty->shard_failovers,
                 failslow_pct, failslow->shard_slow_demotions,
                 saved_pct, underived->whatif_calls, serial->whatif_calls,
                 socket_failslow->ParallelSpeedup(),
                 failslow->ParallelSpeedup());
  } else {
    std::printf("%s", doc.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dta

int main(int argc, char** argv) { return dta::Run(argc, argv); }
