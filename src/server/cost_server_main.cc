// cost_server — standalone what-if costing worker for the socket transport.
//
// Builds a server from a ServerMetadata XML script (the same script the
// tuning session uses, so both sides of the wire cost against bit-identical
// catalogs), binds a Unix socket, and serves DTR1 frames (dta/rpc/frame.h)
// until a client sends a kShutdown frame or the process is signalled.
//
// Usage:
//   cost_server --metadata server.xml --listen /path/worker.sock
//               [--name NAME] [--threads N] [--fault-spec SPEC]
//               [--sever-after-calls N] [--quiet]
//
//   --metadata    ServerMetadata XML: databases, tables, columns, rows.
//   --listen      Unix socket path to bind (stale files are unlinked).
//   --name        Server name reported in the HELLO handshake (default
//                 "cost-worker").
//   --threads     Concurrent what-if executions (default 4).
//   --fault-spec  Attach a deterministic fault injector to the server
//                 (same grammar as dta_cli --fault-spec) — lets the driver
//                 place chaos on an individual worker process.
//   --sever-after-calls
//                 Abruptly drop the client connection after N what-if
//                 responses (worker stays alive and accepts reconnects);
//                 models a mid-stream worker crash for transport tests.
//   --quiet       Suppress startup/shutdown lines on stderr.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "common/fault_injector.h"
#include "common/status.h"
#include "common/strings.h"
#include "dta/rpc/worker.h"
#include "optimizer/hardware.h"
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

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --metadata server.xml --listen /path/worker.sock "
               "[--name NAME] [--threads N] [--fault-spec SPEC] "
               "[--sever-after-calls N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metadata_path, listen_path, fault_spec;
  std::string name = "cost-worker";
  int64_t threads = 4;
  int64_t sever_after = 0;
  bool quiet = false;

  // atoi/atol would read "abc" as 0 and fall back to a default silently.
  struct IntFlag {
    const char* name;
    int64_t* value;
    int64_t min, max;
    const char* expects;
  };
  const IntFlag int_flags[] = {
      {"--threads", &threads, 1, std::numeric_limits<int>::max(),
       "a positive integer"},
      {"--sever-after-calls", &sever_after, 0,
       std::numeric_limits<int64_t>::max(), "a non-negative integer"},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& flag : int_flags) {
      if (arg == flag.name) int_flag = &flag;
    }
    if (int_flag != nullptr) {
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
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      listen_path = v;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      name = v;
    } else if (arg == "--fault-spec") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      fault_spec = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (metadata_path.empty() || listen_path.empty()) return Usage(argv[0]);

  auto metadata = ReadFile(metadata_path);
  if (!metadata.ok()) {
    std::fprintf(stderr, "%s\n", metadata.status().ToString().c_str());
    return 1;
  }
  auto server = dta::server::Server::FromMetadataScript(
      *metadata, name, dta::optimizer::HardwareParams());
  if (!server.ok()) {
    std::fprintf(stderr, "bad server metadata: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<dta::FaultInjector> injector;
  if (!fault_spec.empty()) {
    auto spec = dta::FaultSpec::Parse(fault_spec);
    if (!spec.ok()) {
      std::fprintf(stderr, "bad --fault-spec: %s\n",
                   spec.status().ToString().c_str());
      return 1;
    }
    injector = std::make_unique<dta::FaultInjector>(*spec);
    server->get()->set_fault_injector(injector.get());
  }

  dta::rpc::CostWorkerOptions options;
  options.threads = static_cast<int>(threads);
  options.sever_after_calls = static_cast<size_t>(sever_after);
  dta::rpc::CostWorker worker(server->get(), options);
  if (auto listening = worker.Listen(listen_path); !listening.ok()) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", listen_path.c_str(),
                 listening.ToString().c_str());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr, "cost_server '%s' serving on %s (%d threads)\n",
                 name.c_str(), listen_path.c_str(), options.threads);
  }
  worker.WaitForShutdown();
  if (!quiet) {
    std::fprintf(stderr, "cost_server '%s' exiting after %zu what-if calls\n",
                 name.c_str(), worker.whatif_frames_served());
  }
  return 0;
}
