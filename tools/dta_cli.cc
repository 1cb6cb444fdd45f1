// dta_cli — command-line front end, mirroring DTA's command-line executable
// (paper §2.1: "It can be run either from a graphical user interface or
// using a command-line executable").
//
// Usage:
//   dta_cli --metadata server.xml --input tuning.xml [--output out.xml]
//           [--evaluate] [--quiet] [--threads N] [--shards N]
//           [--transport inproc|socket] [--worker-bin PATH]
//           [--rpc-timeout MS]
//           [--tenants N] [--tenant-budget BYTES] [--slow-threshold X]
//           [--no-derived-costing] [--exact-costing]
//           [--derivation-error-bound PCT]
//           [--fault-spec SPEC] [--shard-fault-spec SPEC]
//           [--checkpoint FILE] [--resume FILE]
//           [--metrics-json FILE] [--fake-clock]
//           [--serve --stream FILE [--retune-interval N]
//            [--retune-interval-ms MS] [--stream-checkpoint FILE]
//            [--feedback-file FILE] [--max-templates N] [--decay X]
//            [--quarantine-rounds N]]
//
//   --metadata    ServerMetadata XML (produced by Server::ScriptMetadata or
//                 written by hand): databases, tables, columns, row counts.
//   --input       DTAXML input document: workload + tuning options
//                 (+ optional user-specified configuration).
//   --output      Where to write the DTAXML output document (default
//                 stdout).
//   --evaluate    Do not tune: evaluate the input's user-specified
//                 configuration against the workload (paper §6.3),
//                 priced through the same fleet and faults as tuning.
//   --quiet       Suppress the human-readable report on stdout.
//   --threads     Worker threads for what-if costing (0 = all hardware
//                 threads, 1 = serial). The recommendation is identical at
//                 any thread count; only tuning wall-clock changes.
//   --shards      Shard what-if costing across N server instances (shard 0
//                 is the tuning server, shards 1..N-1 bit-exact clones;
//                 calls are routed by rendezvous hashing with failover).
//                 The recommendation is identical at any shard count.
//   --transport   Costing transport: "inproc" (default; shards are
//                 in-process replicas) or "socket" (each shard is a
//                 cost_server worker process, spawned by dta_cli and
//                 reached over a Unix socket). Either way the shard
//                 router dispatches the fleet's calls and requeues
//                 timeouts and shard failures on the next shard. The
//                 recommendation (or --evaluate's statement costs) is
//                 byte-identical under either transport. Socket mode is
//                 not combinable with --tenants or --fault-spec (use
//                 --shard-fault-spec: it becomes each worker's own fault
//                 injector).
//   --worker-bin  Path to the cost_server executable (required with
//                 --transport socket). Workers are spawned with this run's
//                 --metadata, listen on sockets under a private temp
//                 directory, and are killed and reaped when dta_cli exits.
//   --rpc-timeout Socket transport only: per-attempt budget in ms before
//                 the shard router abandons an in-flight request and
//                 requeues the call on the next shard (0 = router default).
//   --tenants     Run N independent tenants ("t0".."tN-1") concurrently
//                 through the multi-tenant driver (dta/tenant_driver.h):
//                 each tenant tunes its own copy of the server under the
//                 input's workload and options, sharing what-if capacity
//                 through admission control. With --output FILE, tenant i's
//                 DTAXML document lands in FILE.tenant<i>; each tenant's
//                 recommendation is byte-identical to a single-tenant run.
//                 --metrics-json merges every tenant's metrics under
//                 "tenant.<name>.". Not combinable with --evaluate,
//                 --checkpoint, or --resume.
//   --tenant-budget
//                 Per-tenant storage bound in bytes (overrides the input
//                 document's storage constraint for every tenant).
//   --slow-threshold
//                 Enable fail-slow isolation for sharded costing: a shard
//                 whose successful-call latency EWMA exceeds X times the
//                 fleet median is demoted to probe-only routing until it
//                 recovers (see dta/shard_router.h). 0 disables (default).
//                 Routing-only: the recommendation is unchanged.
//   --no-derived-costing
//                 Disable derived costing: every cache miss makes a real
//                 what-if call. By default misses whose configuration
//                 decomposes into per-access-path atomic configurations are
//                 answered by the CoPhy combine rule over memoized atom
//                 costs (10-100x fewer optimizer calls on index-rich
//                 workloads; the recommendation is unchanged).
//   --exact-costing
//                 Price every derivable miss BOTH ways (derived and real),
//                 record the derivation error distribution in the
//                 derivation.error_pct histogram, and use the real cost.
//                 Verifies the combine rule; saves nothing.
//   --derivation-error-bound
//                 Maximum tolerated derivation error, percent (default 0 =
//                 exact derivations only). A nonzero bound also admits the
//                 bounded singleton approximation for configurations whose
//                 full decomposition is too large.
//   --fault-spec  Inject scripted what-if optimizer faults, e.g.
//                 "seed=42,transient=0.1,permanent=0.01,latency_ms=0.5".
//                 Transient failures are retried with backoff; persistent
//                 ones degrade to a heuristic cost estimate (reported).
//                 Also supports outage profiles: "down_after=N" (the node
//                 dies at its N-th call) and "burst_start=S,burst_len=L"
//                 (a windowed burst outage).
//   --shard-fault-spec
//                 Per-shard fault injection: "<shard>:<SPEC>[;...]", e.g.
//                 "2:down_after=40;3:transient=0.2,seed=7". Calls routed to
//                 a faulted shard fail over to the next shard in rendezvous
//                 order; recommendations stay identical to a healthy run.
//   --checkpoint  Record the session's progress in a crash-safe checkpoint
//                 log at FILE (checkpoint format v3) after every phase and
//                 enumeration round: a base record (atomic tmp + rename),
//                 then one appended segment per write carrying only what
//                 changed since the previous one.
//   --resume      Restore the checkpoint log at FILE and skip completed
//                 work; the recommendation is identical to an uninterrupted
//                 run. A torn last record is dropped and its work redone.
//                 Typically pointed at the same FILE as --checkpoint. A
//                 version 2 checkpoint document is refused: re-run without
//                 --resume.
//   --metrics-json
//                 Write the session's observability document
//                 (dta-observability-v1: counters/gauges/histograms sorted
//                 by name, plus the phase span tree) to FILE. All counted
//                 quantities are thread-count invariant.
//   --fake-clock  Time the session with a clock frozen at zero instead of
//                 the real monotonic clock: every exported duration becomes
//                 0.000, making --metrics-json output byte-reproducible
//                 across runs and thread counts (golden tests, CI diffs).
//
// Continuous tuning service (DESIGN §16):
//   --serve       Run as a continuous tuning service instead of a one-shot
//                 tune: ingest the query capture at --stream, maintain the
//                 compressed workload incrementally, re-tune on a cadence,
//                 and print one recommendation delta per round to stdout.
//                 The input document's workload is ignored (the capture IS
//                 the workload); its options still apply to every round.
//                 Not combinable with --evaluate, --checkpoint, --resume,
//                 or --transport socket. With --tenants N the whole capture
//                 runs through N tenants under shared admission control
//                 (per-tenant delta logs at CHECKPOINT.tenant.<name>).
//   --stream      Capture file (or FIFO) to ingest: one SQL statement per
//                 line; "# ..." comments and blank lines are skipped;
//                 "@tick MS" advances the stream clock (the only clock the
//                 cadence ever sees). Read incrementally to end-of-stream.
//   --retune-interval
//                 Re-tune after every N successfully parsed statements
//                 (default 32 when no cadence flag is given).
//   --retune-interval-ms
//                 Re-tune after every MS milliseconds of accumulated @tick
//                 stream time. Combinable with --retune-interval; whichever
//                 fires first triggers the round.
//   --stream-checkpoint
//                 Append-only delta log, the checkpoint log one-shot
//                 sessions write (a base snapshot + per-round delta
//                 segments, compacted past a byte threshold); each record
//                 is a <DTAStream Version="4"> document followed by its
//                 cost lines. A service killed at any round boundary and
//                 restarted with the same flags resumes bit-exactly. A log
//                 of version 3 stream records is refused by name.
//   --feedback-file
//                 DBA feedback, re-read before every ingest step: lines of
//                 "accept <index>" / "reject <index>" (1-based position in
//                 the last printed recommendation, or a structure name;
//                 prefix "@R " defers to round R). Accepted structures are
//                 pinned into every later round; rejected ones are
//                 quarantined for --quarantine-rounds rounds.
//   --max-templates
//                 Bound on distinct query templates tracked (default 256);
//                 beyond it the lowest-weight template is evicted.
//   --decay       Per-round multiplicative decay of template weights
//                 (default 1 = no decay); older traffic fades so the
//                 recommendation tracks the live workload.
//   --quarantine-rounds
//                 Rounds a rejected structure stays out of candidate
//                 generation before becoming re-eligible (default 3).
//
// The server built from metadata alone has no table data or generator
// specs; statistics fall back to optimizer heuristics. This is DTA's
// exploratory mode — point it at a real Server in-process for full
// fidelity.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "dta/shard_router.h"
#include "dta/stream/continuous.h"
#include "dta/tenant_driver.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "server/server.h"

namespace {

dta::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return dta::Status::NotFound("cannot open file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

dta::Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return dta::Status::Internal("cannot write file: " + path);
  }
  out << content;
  return dta::Status::Ok();
}

// One run's observability: a registry, a tracer, and the clock both time
// with. With --fake-clock the clock is frozen at zero, so every exported
// duration is 0.000 and the document is byte-reproducible.
struct Observability {
  explicit Observability(bool fake_clock)
      : clock(fake_clock ? &frozen : nullptr), tracer(clock) {}

  // Writes the document to `path` (--metrics-json; nothing when empty) and
  // announces it unless `quiet`. False, after saying why, when it cannot.
  bool Write(const std::string& path, bool quiet) const {
    if (path.empty()) return true;
    const std::string doc = dta::ObservabilityJson(metrics, &tracer);
    if (dta::Status s = WriteFile(path, doc); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return false;
    }
    if (!quiet) {
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), doc.size());
    }
    return true;
  }

  dta::MetricsRegistry metrics;
  dta::FakeClock frozen;
  const dta::Clock* clock;  // null: the real monotonic clock
  dta::Tracer tracer;
};

// The --tenants fleet: tenant i is named "t<i>" and tunes `server` itself
// (i == 0) or its own clone, under the input's workload and options at
// weight 1.
struct TenantFleet {
  std::vector<std::unique_ptr<dta::server::Server>> clones;
  std::vector<dta::server::Server*> servers;
  std::vector<dta::tuner::TenantSpec> specs;
};

// False, after saying why, when a clone fails.
bool BuildTenantFleet(int64_t tenants, dta::server::Server* server,
                      const dta::tuner::TuningInput& input,
                      TenantFleet* fleet) {
  for (int t = 0; t < tenants; ++t) {
    const std::string name = "t" + std::to_string(t);
    if (t == 0) {
      fleet->servers.push_back(server);
    } else {
      auto clone = server->Clone(server->name() + "-" + name);
      if (!clone.ok()) {
        std::fprintf(stderr, "cannot clone server for tenant %s: %s\n",
                     name.c_str(), clone.status().ToString().c_str());
        return false;
      }
      fleet->servers.push_back(clone->get());
      fleet->clones.push_back(std::move(clone).value());
    }
    dta::tuner::TenantSpec spec;
    spec.name = name;
    spec.workload = &input.workload;
    spec.options = input.options;
    spec.weight = 1;
    fleet->specs.push_back(std::move(spec));
  }
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --metadata server.xml --input tuning.xml "
               "[--output out.xml] [--evaluate] [--quiet] [--threads N] "
               "[--shards N] [--transport inproc|socket] "
               "[--worker-bin PATH] [--rpc-timeout MS] "
               "[--tenants N] [--tenant-budget BYTES] "
               "[--slow-threshold X] "
               "[--no-derived-costing] [--exact-costing] "
               "[--derivation-error-bound PCT] "
               "[--fault-spec SPEC] [--shard-fault-spec SPEC] "
               "[--checkpoint FILE] [--resume FILE] "
               "[--metrics-json FILE] [--fake-clock] "
               "[--serve --stream FILE [--retune-interval N] "
               "[--retune-interval-ms MS] [--stream-checkpoint FILE] "
               "[--feedback-file FILE] [--max-templates N] [--decay X] "
               "[--quarantine-rounds N]]\n",
               argv0);
  return 2;
}

// The cost_server worker processes a socket-transport run spawned, plus the
// temp directory their sockets live in. The destructor kills and reaps the
// fleet and removes the directory, so every exit path of main — error
// returns included — leaves no orphan workers and no stray sockets behind.
struct WorkerFleet {
  std::vector<pid_t> pids;
  std::vector<std::string> sockets;
  std::string socket_dir;

  ~WorkerFleet() {
    for (pid_t pid : pids) ::kill(pid, SIGTERM);
    for (pid_t pid : pids) {
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    for (const std::string& path : sockets) ::unlink(path.c_str());
    if (!socket_dir.empty()) ::rmdir(socket_dir.c_str());
  }
};

dta::Result<pid_t> SpawnWorker(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    raw.push_back(const_cast<char*>(arg.c_str()));
  }
  raw.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) {
    return dta::Status::Internal(std::string("fork failed: ") +
                                 std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(raw[0], raw.data());
    // Reached only when exec failed; the parent sees the worker's socket
    // never appear and fails the connect with a clear deadline error.
    std::fprintf(stderr, "cannot exec %s: %s\n", raw[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metadata_path, input_path, output_path;
  std::string fault_spec, shard_fault_spec;
  std::string checkpoint_path, resume_path, metrics_path;
  std::string transport = "inproc", worker_bin;
  double rpc_timeout = 0;
  bool evaluate = false, quiet = false, fake_clock = false;
  bool no_derived_costing = false, exact_costing = false;
  double derivation_error_bound = -1;  // -1: keep the input's setting
  int64_t threads = -1;  // -1: keep the input document's (or default) setting
  int64_t shards = -1;   // -1: keep the input document's (or default) setting
  int64_t tenants = 1;
  int64_t tenant_budget = -1;  // bytes; -1: keep the input's constraint
  double slow_threshold = -1;   // -1: keep the input's setting (off)
  bool serve = false;
  std::string stream_path, stream_checkpoint_path, feedback_path;
  int64_t retune_interval = 0;
  double retune_interval_ms = 0;
  int64_t max_templates = 256;
  double decay = 1.0;
  int64_t quarantine_rounds = 3;
  // The integer flags: where each goes, its range (the bound past which a
  // cast to its destination would wrap), and what its error says.
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  struct IntFlag {
    const char* name;
    int64_t* value;
    int64_t min, max;
    const char* expects;
  };
  const IntFlag int_flags[] = {
      {"--threads", &threads, 0, kIntMax, "a non-negative integer"},
      {"--shards", &shards, 1, kIntMax, "a positive integer"},
      {"--tenants", &tenants, 1, kIntMax, "a positive integer"},
      {"--tenant-budget", &tenant_budget, 0, kInt64Max,
       "a non-negative byte count"},
      {"--retune-interval", &retune_interval, 1, kInt64Max,
       "a positive event count"},
      {"--max-templates", &max_templates, 1, kInt64Max,
       "a positive template count"},
      {"--quarantine-rounds", &quarantine_rounds, 0, kInt64Max,
       "a non-negative round count"},
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const IntFlag* int_flag =
        std::find_if(std::begin(int_flags), std::end(int_flags),
                     [&](const IntFlag& f) { return arg == f.name; });
    if (int_flag != std::end(int_flags)) {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t parsed = 0;
      if (!dta::StrictInt64(v, &parsed) || parsed < int_flag->min ||
          parsed > int_flag->max) {
        std::fprintf(stderr, "%s expects %s\n", int_flag->name,
                     int_flag->expects);
        return Usage(argv[0]);
      }
      *int_flag->value = parsed;
    } else if (arg == "--metadata") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metadata_path = v;
    } else if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      input_path = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      output_path = v;
    } else if (arg == "--evaluate") {
      evaluate = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--transport") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      transport = v;
      if (transport != "inproc" && transport != "socket") {
        std::fprintf(stderr,
                     "--transport expects \"inproc\" or \"socket\"\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--worker-bin") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      worker_bin = v;
    } else if (arg == "--rpc-timeout") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!dta::StrictDouble(v, &rpc_timeout) || rpc_timeout < 0) {
        std::fprintf(stderr,
                     "--rpc-timeout expects a non-negative millisecond "
                     "count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--slow-threshold") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!dta::StrictDouble(v, &slow_threshold) || slow_threshold < 0) {
        std::fprintf(stderr,
                     "--slow-threshold expects a non-negative multiplier\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--no-derived-costing") {
      no_derived_costing = true;
    } else if (arg == "--exact-costing") {
      exact_costing = true;
    } else if (arg == "--derivation-error-bound") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!dta::StrictDouble(v, &derivation_error_bound) ||
          derivation_error_bound < 0) {
        std::fprintf(
            stderr,
            "--derivation-error-bound expects a non-negative percent\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--fault-spec") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      fault_spec = v;
    } else if (arg == "--shard-fault-spec") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      shard_fault_spec = v;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      checkpoint_path = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      resume_path = v;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_path = v;
    } else if (arg == "--fake-clock") {
      fake_clock = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--stream") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      stream_path = v;
    } else if (arg == "--retune-interval-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!dta::StrictDouble(v, &retune_interval_ms) ||
          retune_interval_ms <= 0) {
        std::fprintf(stderr,
                     "--retune-interval-ms expects a positive millisecond "
                     "count\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--stream-checkpoint") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      stream_checkpoint_path = v;
    } else if (arg == "--feedback-file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      feedback_path = v;
    } else if (arg == "--decay") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!dta::StrictDouble(v, &decay) || decay <= 0 || decay > 1) {
        std::fprintf(stderr, "--decay expects a factor in (0, 1]\n");
        return Usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (metadata_path.empty() || input_path.empty()) return Usage(argv[0]);

  auto metadata = ReadFile(metadata_path);
  if (!metadata.ok()) {
    std::fprintf(stderr, "%s\n", metadata.status().ToString().c_str());
    return 1;
  }
  auto input_text = ReadFile(input_path);
  if (!input_text.ok()) {
    std::fprintf(stderr, "%s\n", input_text.status().ToString().c_str());
    return 1;
  }

  auto input = dta::tuner::TuningInputFromXml(*input_text);
  if (!input.ok()) {
    std::fprintf(stderr, "bad DTAXML input: %s\n",
                 input.status().ToString().c_str());
    return 1;
  }
  auto server = dta::server::Server::FromMetadataScript(
      *metadata,
      input->server_name.empty() ? "server" : input->server_name,
      dta::optimizer::HardwareParams());
  if (!server.ok()) {
    std::fprintf(stderr, "bad server metadata: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  if (threads >= 0) input->options.num_threads = static_cast<int>(threads);
  if (shards >= 1) input->options.shards = static_cast<int>(shards);
  if (slow_threshold >= 0) {
    input->options.shard_slow_threshold = slow_threshold;
  }
  if (tenant_budget >= 0) {
    input->options.storage_bytes = static_cast<uint64_t>(tenant_budget);
  }
  if (tenants > 1 &&
      (evaluate || !checkpoint_path.empty() || !resume_path.empty())) {
    std::fprintf(stderr,
                 "--tenants cannot be combined with --evaluate, "
                 "--checkpoint, or --resume\n");
    return Usage(argv[0]);
  }
  if (no_derived_costing) input->options.derived_costing = false;
  if (exact_costing) input->options.exact_costing = true;
  if (derivation_error_bound >= 0) {
    input->options.derivation_error_bound_pct = derivation_error_bound;
  }
  if (!fault_spec.empty()) {
    // Validate up front so a typo fails before tuning starts.
    auto parsed_spec = dta::FaultSpec::Parse(fault_spec);
    if (!parsed_spec.ok()) {
      std::fprintf(stderr, "bad --fault-spec: %s\n",
                   parsed_spec.status().ToString().c_str());
      return 1;
    }
    input->options.fault_spec = fault_spec;
  }
  if (!shard_fault_spec.empty()) {
    auto parsed_spec = dta::tuner::ShardFaultSpec::Parse(shard_fault_spec);
    if (!parsed_spec.ok()) {
      std::fprintf(stderr, "bad --shard-fault-spec: %s\n",
                   parsed_spec.status().ToString().c_str());
      return 1;
    }
    input->options.shard_fault_spec = shard_fault_spec;
  }
  Observability obs(fake_clock);

  // ---- Continuous tuning service: ingest the capture stream, re-tune on
  // cadence, print one recommendation delta per round. The final
  // recommendation (as a Configuration XML document) goes to --output.
  if (serve) {
    if (evaluate || !checkpoint_path.empty() || !resume_path.empty() ||
        transport == "socket") {
      std::fprintf(stderr,
                   "--serve cannot be combined with --evaluate, "
                   "--checkpoint, --resume, or --transport socket (use "
                   "--stream-checkpoint for the service's delta log)\n");
      return Usage(argv[0]);
    }
    if (stream_path.empty()) {
      std::fprintf(stderr, "--serve requires --stream FILE\n");
      return Usage(argv[0]);
    }
    // Default cadence when neither flag is given.
    if (retune_interval == 0 && retune_interval_ms <= 0) retune_interval = 32;

    // One service configuration for the single service and, per tenant, the
    // fleet (TenantDriver::RunContinuous sets each tenant's own fields).
    dta::tuner::stream::ContinuousTuner::Config config;
    config.server = server->get();
    config.options = input->options;
    config.retune_interval_events = static_cast<size_t>(retune_interval);
    config.retune_interval_ms = retune_interval_ms;
    config.max_templates = static_cast<size_t>(max_templates);
    config.decay = decay;
    config.quarantine_rounds = static_cast<uint64_t>(quarantine_rounds);
    config.checkpoint_path = stream_checkpoint_path;
    config.metrics = metrics_path.empty() ? nullptr : &obs.metrics;
    config.tracer = metrics_path.empty() ? nullptr : &obs.tracer;
    config.clock = obs.clock;
    if (!quiet) {
      config.delta_sink = [](const std::string& delta) {
        std::fputs(delta.c_str(), stdout);
        std::fflush(stdout);
      };
    }

    // Feedback is re-read in full before every ingest step; the service's
    // line cursor makes re-reads idempotent. An absent file simply means no
    // feedback yet.
    auto read_feedback = [&]() -> std::string {
      if (feedback_path.empty()) return std::string();
      auto text = ReadFile(feedback_path);
      return text.ok() ? std::move(text).value() : std::string();
    };

    // ---- Fleet mode: the whole capture through N tenants, each with its
    // own server clone and (when checkpointing) its own delta log.
    if (tenants > 1) {
      auto capture = ReadFile(stream_path);
      if (!capture.ok()) {
        std::fprintf(stderr, "%s\n", capture.status().ToString().c_str());
        return 1;
      }
      TenantFleet tenant_fleet;
      if (!BuildTenantFleet(tenants, server->get(), *input, &tenant_fleet)) {
        return 1;
      }
      dta::tuner::TenantDriverOptions driver_options;
      driver_options.metrics = metrics_path.empty() ? nullptr : &obs.metrics;
      driver_options.clock = obs.clock;
      dta::tuner::TenantDriver driver(driver_options);
      auto outcomes =
          driver.RunContinuous(tenant_fleet.specs, tenant_fleet.servers,
                               config, *capture, read_feedback());
      if (!outcomes.ok()) {
        std::fprintf(stderr, "continuous fleet failed: %s\n",
                     outcomes.status().ToString().c_str());
        return 1;
      }
      int rc = 0;
      for (size_t t = 0; t < outcomes->size(); ++t) {
        const dta::tuner::ContinuousTenantOutcome& o = (*outcomes)[t];
        if (!o.status.ok()) {
          std::fprintf(stderr, "tenant %s failed: %s\n", o.name.c_str(),
                       o.status.ToString().c_str());
          rc = 1;
          continue;
        }
        if (!quiet) {
          std::printf("---- tenant %s (%llu rounds%s) ----\n%s",
                      o.name.c_str(),
                      static_cast<unsigned long long>(o.rounds),
                      o.resumed ? ", resumed" : "", o.delta_text.c_str());
        }
        if (!output_path.empty()) {
          const std::string doc =
              dta::tuner::ConfigurationToXml(o.recommendation)->ToString();
          const std::string path =
              output_path + ".tenant" + std::to_string(t);
          if (dta::Status s = WriteFile(path, doc); !s.ok()) {
            std::fprintf(stderr, "%s\n", s.ToString().c_str());
            return 1;
          }
          if (!quiet) {
            std::printf("wrote %s (%zu bytes)\n", path.c_str(), doc.size());
          }
        }
      }
      if (!obs.Write(metrics_path, quiet)) return 1;
      return rc;
    }

    // ---- Single service: read the capture incrementally (so a FIFO feeds
    // rounds as its writer produces them), re-reading feedback before every
    // chunk. Round deltas stream to stdout through the delta sink.
    dta::tuner::stream::ContinuousTuner service(std::move(config));
    auto run = [&]() -> dta::Status {
      if (dta::Status s = service.Init(); !s.ok()) return s;
      if (!quiet && service.resumed()) {
        std::printf("resumed from %s at round %llu\n",
                    stream_checkpoint_path.c_str(),
                    static_cast<unsigned long long>(service.rounds()));
      }
      std::ifstream in(stream_path, std::ios::binary);
      if (!in) {
        return dta::Status::NotFound("cannot open capture: " + stream_path);
      }
      char buffer[1 << 16];
      while (!service.stopped()) {
        in.read(buffer, sizeof(buffer));
        const std::streamsize got = in.gcount();
        if (got <= 0) break;
        service.ConsumeFeedback(read_feedback());
        if (dta::Status s = service.Feed(
                std::string_view(buffer, static_cast<size_t>(got)));
            !s.ok()) {
          return s;
        }
      }
      service.ConsumeFeedback(read_feedback());
      return service.Finish();
    };
    if (dta::Status s = run(); !s.ok()) {
      std::fprintf(stderr, "continuous service failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("served %llu rounds\n",
                  static_cast<unsigned long long>(service.rounds()));
    }
    const std::string doc =
        dta::tuner::ConfigurationToXml(service.recommendation())->ToString();
    if (output_path.empty()) {
      if (quiet) std::printf("%s", doc.c_str());
    } else {
      if (dta::Status s = WriteFile(output_path, doc); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      if (!quiet) {
        std::printf("wrote %s (%zu bytes)\n", output_path.c_str(),
                    doc.size());
      }
    }
    if (!obs.Write(metrics_path, quiet)) return 1;
    return 0;
  }
  if (!stream_path.empty() || !stream_checkpoint_path.empty() ||
      !feedback_path.empty()) {
    std::fprintf(stderr,
                 "--stream/--stream-checkpoint/--feedback-file require "
                 "--serve\n");
    return Usage(argv[0]);
  }

  // ---- Socket transport: spawn one cost_server worker per shard on a
  // private socket directory, translate any per-shard fault spec into each
  // worker's own --fault-spec (the session cannot attach in-process
  // injectors to another process), and hand the endpoints to the session.
  // The fleet is killed, reaped, and its sockets removed when main returns,
  // whichever path it takes.
  WorkerFleet fleet;
  if (transport == "socket") {
    if (tenants > 1) {
      std::fprintf(stderr,
                   "--transport socket cannot be combined with --tenants\n");
      return Usage(argv[0]);
    }
    if (!fault_spec.empty()) {
      std::fprintf(stderr,
                   "--fault-spec attaches an in-process injector, which "
                   "the socket transport bypasses; use --shard-fault-spec "
                   "(it becomes each worker's own fault injector)\n");
      return Usage(argv[0]);
    }
    if (worker_bin.empty()) {
      std::fprintf(stderr,
                   "--transport socket requires --worker-bin (path to the "
                   "cost_server executable)\n");
      return Usage(argv[0]);
    }
    const int worker_count = std::max(1, input->options.shards);
    std::vector<std::string> worker_faults(
        static_cast<size_t>(worker_count));
    if (!input->options.shard_fault_spec.empty()) {
      auto parsed =
          dta::tuner::ShardFaultSpec::Parse(input->options.shard_fault_spec);
      if (!parsed.ok()) {  // spec may come from the input document
        std::fprintf(stderr, "bad shard fault spec: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      for (const auto& [shard, spec] : parsed->per_shard) {
        if (shard >= worker_count) {
          std::fprintf(
              stderr,
              "--shard-fault-spec targets shard %d but only %d worker(s) "
              "exist\n",
              shard, worker_count);
          return 1;
        }
        worker_faults[static_cast<size_t>(shard)] = spec.ToString();
      }
      input->options.shard_fault_spec.clear();
    }
    char dir_template[] = "/tmp/dta_cli_workers_XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
      std::fprintf(stderr, "cannot create socket directory: %s\n",
                   std::strerror(errno));
      return 1;
    }
    fleet.socket_dir = dir_template;
    for (int i = 0; i < worker_count; ++i) {
      const std::string name = "worker" + std::to_string(i);
      const std::string sock = fleet.socket_dir + "/" + name + ".sock";
      std::vector<std::string> args = {worker_bin, "--metadata",
                                       metadata_path, "--listen", sock,
                                       "--name",     name,
                                       "--quiet"};
      if (!worker_faults[static_cast<size_t>(i)].empty()) {
        args.push_back("--fault-spec");
        args.push_back(worker_faults[static_cast<size_t>(i)]);
      }
      auto pid = SpawnWorker(args);
      if (!pid.ok()) {
        std::fprintf(stderr, "cannot spawn %s: %s\n", name.c_str(),
                     pid.status().ToString().c_str());
        return 1;
      }
      fleet.pids.push_back(*pid);
      fleet.sockets.push_back(sock);
      input->options.socket_endpoints.push_back(sock);
    }
    input->options.transport =
        dta::tuner::TuningOptions::Transport::kSocket;
    if (rpc_timeout > 0) input->options.rpc_attempt_timeout_ms = rpc_timeout;
  }

  if (!checkpoint_path.empty()) {
    input->options.checkpoint_path = checkpoint_path;
  }
  if (!resume_path.empty()) input->options.resume_path = resume_path;

  dta::tuner::TuningSession session(server->get(), input->options);

  // Observability: always collect when an export was requested.
  if (!metrics_path.empty()) {
    session.SetObservability({&obs.metrics, &obs.tracer, obs.clock});
  }

  // ---- Multi-tenant mode: N independent tenants, each tuning its own copy
  // of the server under shared admission control. Tenant i's DTAXML
  // document goes to --output FILE as FILE.tenant<i>.
  if (tenants > 1) {
    TenantFleet tenant_fleet;
    if (!BuildTenantFleet(tenants, server->get(), *input, &tenant_fleet)) {
      return 1;
    }
    dta::tuner::TenantDriverOptions driver_options;
    driver_options.metrics = metrics_path.empty() ? nullptr : &obs.metrics;
    driver_options.clock = obs.clock;
    dta::tuner::TenantDriver driver(driver_options);
    auto outcomes = driver.Run(tenant_fleet.specs, tenant_fleet.servers);
    if (!outcomes.ok()) {
      std::fprintf(stderr, "multi-tenant run failed: %s\n",
                   outcomes.status().ToString().c_str());
      return 1;
    }
    int rc = 0;
    for (size_t t = 0; t < outcomes->size(); ++t) {
      const dta::tuner::TenantOutcome& o = (*outcomes)[t];
      if (!o.status.ok()) {
        std::fprintf(stderr, "tenant %s failed: %s\n", o.name.c_str(),
                     o.status.ToString().c_str());
        rc = 1;
        continue;
      }
      if (!quiet) {
        std::printf(
            "[%s] tuned %zu events (%zu what-if calls); expected "
            "improvement %.1f%%\n",
            o.name.c_str(), o.result.events_tuned, o.result.whatif_calls,
            o.result.ImprovementPercent());
      }
      std::string doc = dta::tuner::TuningOutputToXml(
          *input, o.result.recommendation, o.result.report);
      if (output_path.empty()) {
        if (quiet) std::printf("%s", doc.c_str());
      } else {
        const std::string path =
            output_path + ".tenant" + std::to_string(t);
        if (dta::Status s = WriteFile(path, doc); !s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
        if (!quiet) {
          std::printf("wrote %s (%zu bytes)\n", path.c_str(), doc.size());
        }
      }
    }
    if (!obs.Write(metrics_path, quiet)) return 1;
    return rc;
  }

  std::string output_doc;
  if (evaluate) {
    auto result = session.EvaluateConfiguration(
        input->workload, input->options.user_specified);
    if (!result.ok()) {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("Configuration change vs current: %.1f%%\n%s",
                  result->ChangePercent(), result->report.ToText().c_str());
    }
    output_doc = dta::tuner::TuningOutputToXml(
        *input, input->options.user_specified, result->report);
  } else {
    auto result = session.Tune(input->workload);
    if (!result.ok()) {
      std::fprintf(stderr, "tuning failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf(
          "Tuned %zu events in %.2fs (%zu what-if calls); expected "
          "improvement %.1f%%\n%s",
          result->events_tuned, result->tuning_time_ms / 1000.0,
          result->whatif_calls, result->ImprovementPercent(),
          result->report.ToText().c_str());
    }
    output_doc = dta::tuner::TuningOutputToXml(
        *input, result->recommendation, result->report);
  }

  if (!obs.Write(metrics_path, quiet)) return 1;

  if (output_path.empty()) {
    if (quiet) std::printf("%s", output_doc.c_str());
  } else {
    if (dta::Status s = WriteFile(output_path, output_doc); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("wrote %s (%zu bytes)\n", output_path.c_str(),
                  output_doc.size());
    }
  }
  return 0;
}
