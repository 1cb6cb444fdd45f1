// End-to-end determinism tests for the socket costing transport: tuning
// sessions whose every what-if call crosses a Unix socket to a CostWorker
// must produce recommendations byte-identical to the in-process backend —
// at any (threads x shards) combination, and under chaos (a worker severing
// its connection mid-stream, a worker answering with transient faults).
//
// The workers here are in-process CostWorker instances serving clones of
// the production server, so the test exercises the full wire path (DTR1
// frames, the router's dispatch, requeues, reconnect probes) without
// fork/exec; the separate-process path is covered by the cost_server CLI
// smoke test and the socket-transport CI job.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "dta/rpc/transport.h"
#include "dta/rpc/worker.h"
#include "dta/tuning_session.h"
#include "dta/xml_schema.h"
#include "workload/workload.h"

namespace dta::tuner {
namespace {

using catalog::ColumnType;
using catalog::Configuration;
using catalog::IndexDef;
using catalog::TableSchema;

// Same production fixture as shard_failover_test.
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

workload::Workload SeedWorkload() {
  const char* script =
      "SELECT o_price FROM orders WHERE o_id = 55;"
      "SELECT o_price FROM orders WHERE o_id = 120;"
      "SELECT o_cust, COUNT(*) FROM orders WHERE o_date < '1995-01-01' "
      "GROUP BY o_cust;"
      "SELECT o_cust, SUM(i_qty) FROM orders, items WHERE o_id = i_oid "
      "GROUP BY o_cust;"
      "SELECT i_qty FROM items WHERE i_part = 77;"
      "INSERT INTO orders (o_id, o_cust, o_date, o_price) VALUES "
      "(31000, 5, '1996-01-01', 10.5);"
      "UPDATE items SET i_qty = 3 WHERE i_part = 9";
  auto w = workload::Workload::FromScript(script);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  return std::move(w).value();
}

std::string RecommendationXml(const TuningResult& r) {
  return ConfigurationToXml(r.recommendation)->ToString();
}

// No lost and no double-counted calls, same conservation law the inproc
// sharded backend obeys.
void ExpectCallsConserved(const TuningResult& r, const std::string& label) {
  EXPECT_EQ(r.shard_successes, r.whatif_calls - r.degraded_calls) << label;
  size_t attempts = 0;
  for (size_t c : r.shard_calls) attempts += c;
  EXPECT_EQ(attempts,
            r.shard_successes + r.shard_failovers + r.shard_exhausted)
      << label;
}

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return StrFormat("/tmp/dta_stt_%d_%d.sock",
                   static_cast<int>(::getpid()), counter.fetch_add(1));
}

// One tuning run over the socket transport. Chaos knobs: `sever_victim`
// severs its connection after `sever_after_calls` what-if responses;
// `fault_victim` prices through a FaultInjector parsed from `fault_spec`;
// `rpc_timeout_ms` > 0 overrides the per-attempt deadline.
struct SocketRun {
  int shards = 1;
  int threads = 1;
  int sever_victim = -1;
  size_t sever_after_calls = 0;
  int fault_victim = -1;
  std::string fault_spec;
  double rpc_timeout_ms = 0;
  MetricsRegistry* metrics = nullptr;
};

// Runs `fn(prod, session)` on a session over the socket transport, where
// `prod` is a fresh production server and every worker serves a clone of
// it.
template <typename Fn>
std::invoke_result_t<Fn, server::Server&, TuningSession&> RunSocket(
    const SocketRun& run, Fn fn) {
  auto prod = MakeProduction();

  // Declaration order matters: workers shut down (joining their serve
  // threads) before the clone servers they price on are destroyed.
  std::vector<std::unique_ptr<server::Server>> clones;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<rpc::CostWorker>> workers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < run.shards; ++i) {
    auto clone = prod->Clone(StrFormat("worker%d", i));
    if (!clone.ok()) return clone.status();
    if (i == run.fault_victim) {
      auto spec = FaultSpec::Parse(run.fault_spec);
      if (!spec.ok()) return spec.status();
      injectors.push_back(std::make_unique<FaultInjector>(*spec));
      (*clone)->set_fault_injector(injectors.back().get());
    }
    rpc::CostWorkerOptions wopts;
    wopts.threads = 2;
    if (i == run.sever_victim) {
      wopts.sever_after_calls = run.sever_after_calls;
    }
    workers.push_back(std::make_unique<rpc::CostWorker>(
        clone->get(), wopts));
    clones.push_back(std::move(clone).value());
    endpoints.push_back(UniqueSocketPath());
    auto s = workers.back()->Listen(endpoints.back());
    if (!s.ok()) return s;
  }

  TuningOptions opts;
  opts.shards = run.shards;
  opts.num_threads = run.threads;
  opts.transport = TuningOptions::Transport::kSocket;
  opts.socket_endpoints = endpoints;
  opts.rpc_attempt_timeout_ms = run.rpc_timeout_ms;
  opts.retry.initial_backoff_ms = 0.01;
  opts.retry.max_backoff_ms = 0.05;
  TuningSession session(prod.get(), opts);
  if (run.metrics != nullptr) {
    session.SetObservability({run.metrics, nullptr, nullptr});
  }
  auto r = fn(*prod, session);
  for (const std::string& path : endpoints) ::unlink(path.c_str());
  return r;
}

Result<TuningResult> TuneSocket(const SocketRun& run) {
  return RunSocket(run, [](server::Server&, TuningSession& session) {
    return session.Tune(SeedWorkload());
  });
}

Result<TuningResult> TuneInproc(int shards, int threads) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = shards;
  opts.num_threads = threads;
  TuningSession session(prod.get(), opts);
  return session.Tune(SeedWorkload());
}

// ----------------------------------------------------- transport parity

// The acceptance gate: recommendations byte-identical between transports
// at two different (threads x shards) shapes.
TEST(SocketTransportTest, ByteIdenticalToInprocAcrossTopologies) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected_xml = RecommendationXml(*baseline);

  struct Shape {
    int shards;
    int threads;
  };
  for (const Shape& shape : {Shape{1, 1}, Shape{3, 4}}) {
    const std::string label =
        StrFormat("%d shards x %d threads", shape.shards, shape.threads);
    auto socket = TuneSocket({.shards = shape.shards,
                              .threads = shape.threads});
    ASSERT_TRUE(socket.ok()) << label << ": "
                             << socket.status().ToString();
    EXPECT_EQ(expected_xml, RecommendationXml(*socket)) << label;
    EXPECT_EQ(baseline->current_cost, socket->current_cost) << label;
    EXPECT_EQ(baseline->recommended_cost, socket->recommended_cost)
        << label;
    EXPECT_EQ(baseline->whatif_calls, socket->whatif_calls) << label;
    EXPECT_EQ(socket->degraded_calls, 0u) << label;
    EXPECT_EQ(socket->shards_used, shape.shards) << label;
    ExpectCallsConserved(*socket, label);
  }
}

// The transport exports its rpc.* counters: every pricing crossed the wire.
TEST(SocketTransportTest, RpcMetricsCountTheWire) {
  MetricsRegistry metrics;
  auto socket = TuneSocket({.shards = 2, .threads = 2,
                            .metrics = &metrics});
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  const auto counters = metrics.CounterValues();
  ASSERT_TRUE(counters.count("rpc.calls"));
  EXPECT_GE(counters.at("rpc.calls"), socket->shard_successes);
  ASSERT_TRUE(counters.count("rpc.connects"));
  EXPECT_GE(counters.at("rpc.connects"), 2u);
}

// The evaluate-mode proposal: the current design plus an index for the
// i_part lookup.
Configuration Proposal(const server::Server& prod) {
  Configuration proposal = prod.current_configuration();
  const IndexDef index{.table = "items", .key_columns = {"i_part"}};
  EXPECT_TRUE(proposal.AddIndex(index).ok());
  return proposal;
}

Result<EvaluationResult> EvaluateInproc(int shards) {
  auto prod = MakeProduction();
  TuningOptions opts;
  opts.shards = shards;
  opts.num_threads = 2;
  TuningSession session(prod.get(), opts);
  return session.EvaluateConfiguration(SeedWorkload(), Proposal(*prod));
}

// Evaluate mode prices through the session's fleet like tuning does: every
// statement costs the same bits on one server, on three in-process shards,
// and on two socket workers — and the socket workers really answered.
TEST(SocketTransportTest, EvaluateIsBitIdenticalAcrossFleets) {
  auto baseline = EvaluateInproc(1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto sharded = EvaluateInproc(3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  MetricsRegistry metrics;
  const SocketRun run{.shards = 2, .threads = 2, .metrics = &metrics};
  auto socket = RunSocket(run, [](server::Server& prod, TuningSession& s) {
    return s.EvaluateConfiguration(SeedWorkload(), Proposal(prod));
  });
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();

  EXPECT_GT(baseline->ChangePercent(), 0);  // the index helps
  EXPECT_EQ(sharded->report.shards, 3);
  EXPECT_EQ(socket->report.shards, 2);
  // Both workers connected, and every real what-if call went to one.
  const auto counters = metrics.CounterValues();
  ASSERT_TRUE(counters.count("rpc.connects"));
  EXPECT_GE(counters.at("rpc.connects"), 2u);
  ASSERT_TRUE(counters.count("rpc.calls"));
  EXPECT_GE(counters.at("rpc.calls"), socket->report.whatif_calls);
  for (const EvaluationResult* r : {&*sharded, &*socket}) {
    const std::string label = StrFormat("%d shards", r->report.shards);
    EXPECT_EQ(r->current_cost, baseline->current_cost) << label;
    EXPECT_EQ(r->evaluated_cost, baseline->evaluated_cost) << label;
    EXPECT_EQ(r->report.whatif_calls, baseline->report.whatif_calls) << label;
    EXPECT_EQ(r->report.degraded_calls, 0u) << label;
    ASSERT_EQ(r->report.statements.size(), baseline->report.statements.size())
        << label;
    for (size_t i = 0; i < r->report.statements.size(); ++i) {
      const StatementReport& got = r->report.statements[i];
      const StatementReport& want = baseline->report.statements[i];
      EXPECT_EQ(got.current_cost, want.current_cost) << label << " #" << i;
      EXPECT_EQ(got.recommended_cost, want.recommended_cost)
          << label << " #" << i;
    }
  }
}

// ------------------------------------------------------------------ chaos

// A worker severs its connection mid-stream (its in-flight calls die
// unanswered). The shard router requeues them on the surviving
// workers; the severed worker is rediscovered by a probe after the worker
// loops back to accept. Result: byte-identical, nothing degraded.
TEST(SocketTransportTest, WorkerSeverMidStreamKeepsRecommendationIdentical) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto chaos = TuneSocket({.shards = 3,
                           .threads = 4,
                           .sever_victim = 1,
                           .sever_after_calls = 5});
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*chaos));
  EXPECT_EQ(baseline->recommended_cost, chaos->recommended_cost);
  EXPECT_EQ(baseline->whatif_calls, chaos->whatif_calls);
  EXPECT_EQ(chaos->degraded_calls, 0u);
  ExpectCallsConserved(*chaos, "severed worker");
}

// Ids die with their connection (rpc/wire.h): after the worker severs, the
// reconnected channel registers its statements and structures again, past
// what one connection needs, and the recommendation does not move.
TEST(SocketTransportTest, ReconnectRegistersAgain) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  MetricsRegistry clean_metrics;
  auto clean = TuneSocket({.shards = 1, .threads = 1,
                           .metrics = &clean_metrics});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  MetricsRegistry sever_metrics;
  auto severed = TuneSocket({.shards = 1,
                             .threads = 1,
                             .sever_victim = 0,
                             .sever_after_calls = 20,
                             .metrics = &sever_metrics});
  ASSERT_TRUE(severed.ok()) << severed.status().ToString();
  for (const TuningResult* r : {&*clean, &*severed}) {
    EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*r));
    EXPECT_EQ(baseline->whatif_calls, r->whatif_calls);
    EXPECT_EQ(r->degraded_calls, 0u);
  }

  const auto once = clean_metrics.CounterValues();
  const auto twice = sever_metrics.CounterValues();
  EXPECT_EQ(once.at("rpc.connects"), 1u);
  EXPECT_EQ(twice.at("rpc.connects"), 2u);
  EXPECT_GT(once.at("rpc.structures_registered"), 0u);
  EXPECT_GT(twice.at("rpc.structures_registered"),
            once.at("rpc.structures_registered"));
  EXPECT_GT(twice.at("rpc.statements_registered"),
            once.at("rpc.statements_registered"));
  EXPECT_GT(once.at("rpc.request_bytes"), 0u);
}

// A worker whose server answers with random transient faults: the error
// travels back as a clean WhatIfResponse status, the queue requeues the
// statement on another shard, and the result is unchanged.
TEST(SocketTransportTest, FlakyWorkerKeepsRecommendationIdentical) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto chaos = TuneSocket({.shards = 3,
                           .threads = 4,
                           .fault_victim = 2,
                           .fault_spec = "seed=13,transient=0.5"});
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*chaos));
  EXPECT_EQ(baseline->whatif_calls, chaos->whatif_calls);
  EXPECT_EQ(chaos->degraded_calls, 0u);
  EXPECT_GT(chaos->shard_failovers, 0u);
  ExpectCallsConserved(*chaos, "flaky worker");
}

// Sever and transient faults at once, on different workers.
TEST(SocketTransportTest, CombinedChaosKeepsRecommendationIdentical) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto chaos = TuneSocket({.shards = 3,
                           .threads = 4,
                           .sever_victim = 0,
                           .sever_after_calls = 8,
                           .fault_victim = 2,
                           .fault_spec = "seed=9,transient=0.2"});
  ASSERT_TRUE(chaos.ok()) << chaos.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*chaos));
  EXPECT_EQ(baseline->whatif_calls, chaos->whatif_calls);
  EXPECT_EQ(chaos->degraded_calls, 0u);
  ExpectCallsConserved(*chaos, "combined chaos");
}

// A worker slower than the attempt deadline: every attempt on it times
// out and requeues on the other worker, so responses to abandoned attempts
// are still pending on its connection when the session tears the router
// down. Closing the channels before the queue and the shard records lets
// that sweep land on live state; the run finishes, conserves its calls,
// and recommends exactly what the in-process run does.
TEST(SocketTransportTest, TimedOutWorkerTearsDownCleanly) {
  auto baseline = TuneInproc(1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  MetricsRegistry metrics;
  auto slow = TuneSocket({.shards = 2,
                          .threads = 2,
                          .fault_victim = 1,
                          .fault_spec = "latency_ms=40",
                          .rpc_timeout_ms = 5,
                          .metrics = &metrics});
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(RecommendationXml(*baseline), RecommendationXml(*slow));
  EXPECT_EQ(baseline->whatif_calls, slow->whatif_calls);
  EXPECT_EQ(slow->degraded_calls, 0u);
  EXPECT_GT(metrics.CounterValues().at("rpc.timeouts"), 0u);
  ExpectCallsConserved(*slow, "timed-out worker");
}

// A fleet whose only worker refuses every call: each pricing exhausts the
// fleet and degrades, and every attempt is counted exactly once — as the
// final failure of an exhausted call, never also as a failover hop.
TEST(SocketTransportTest, DeadFleetDegradesAndConservesCalls) {
  auto dead = TuneSocket({.shards = 1,
                          .threads = 2,
                          .fault_victim = 0,
                          .fault_spec = "down_after=0"});
  ASSERT_TRUE(dead.ok()) << dead.status().ToString();
  EXPECT_GT(dead->whatif_calls, 0u);
  EXPECT_EQ(dead->degraded_calls, dead->whatif_calls);
  EXPECT_EQ(dead->shard_successes, 0u);
  EXPECT_EQ(dead->shard_failovers, 0u);
  EXPECT_GT(dead->shard_exhausted, 0u);
  ExpectCallsConserved(*dead, "dead fleet");
}

// Two callers find a severed connection dead while its reader is still
// sweeping, and both wait to reconnect. Whichever wakes second must see
// the other's fresh connection and use it, not wait on its live reader.
TEST(SocketTransportTest, ConcurrentReconnectsBothComplete) {
  auto prod = MakeProduction();
  auto clone = prod->Clone("worker0");
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  rpc::CostWorkerOptions wopts;
  wopts.threads = 1;
  wopts.sever_after_calls = 1;
  rpc::CostWorker worker(clone->get(), wopts);
  const std::string path = UniqueSocketPath();
  ASSERT_TRUE(worker.Listen(path).ok());
  rpc::SocketChannelOptions channel_options;
  channel_options.reconnect_deadline_ms = 10000;  // a loaded host is slow
  auto channel = rpc::SocketChannel::Connect("worker0", path, channel_options);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  const workload::Workload w = SeedWorkload();
  const Configuration config;
  WhatIfCall call;
  call.stmt = &w.statements()[0].stmt;
  call.text = &w.statements()[0].text;
  call.config = &config;
  call.call_key = 1;

  struct Gate {
    Mutex mu;
    CondVar cv;
    bool parked GUARDED_BY(mu) = false;
    bool open GUARDED_BY(mu) = false;
    int finished GUARDED_BY(mu) = 0;
  } gate;
  // The worker answers the first request and severs; the loss sweep fails
  // the second, whose completion parks the reader mid-sweep.
  (*channel)->Submit(call, [](Result<server::Server::WhatIfResult>) {});
  (*channel)->Submit(call, [&gate](Result<server::Server::WhatIfResult>) {
    MutexLock lock(gate.mu);
    gate.parked = true;
    gate.cv.NotifyAll();
    while (!gate.open) gate.cv.Wait(gate.mu);
  });
  {
    MutexLock lock(gate.mu);
    while (!gate.parked) gate.cv.Wait(gate.mu);
  }
  std::vector<Result<server::Server::WhatIfResult>> results(
      2, Status::Internal("unset"));
  std::vector<std::thread> callers;
  for (int i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      results[i] = (*channel)->Call(call);
      MutexLock lock(gate.mu);
      ++gate.finished;
      gate.cv.NotifyAll();
    });
  }
  // Give both callers time to find the connection dead and start waiting.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  bool both_finished = false;
  {
    MutexLock lock(gate.mu);
    gate.open = true;
    gate.cv.NotifyAll();
    while (gate.finished < 2 && gate.cv.WaitForMs(gate.mu, 10000)) {
    }
    both_finished = gate.finished == 2;
  }
  EXPECT_TRUE(both_finished);
  // Ending the worker's connection also frees a caller stuck on its reader,
  // so a failure above still joins.
  worker.Shutdown();
  for (auto& t : callers) t.join();
  ::unlink(path.c_str());
  if (both_finished) {
    for (const auto& r : results) EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

// ------------------------------------------------------------- validation

TEST(SocketTransportTest, SessionRejectsIncompatibleOptions) {
  auto prod = MakeProduction();
  const workload::Workload w = SeedWorkload();

  {
    // Endpoint count must match the shard count.
    TuningOptions opts;
    opts.shards = 2;
    opts.transport = TuningOptions::Transport::kSocket;
    opts.socket_endpoints = {"/tmp/only_one.sock"};
    TuningSession session(prod.get(), opts);
    auto r = session.Tune(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  {
    // In-process fault injection cannot reach out-of-process pricing; the
    // session refuses rather than silently tuning without chaos.
    TuningOptions opts;
    opts.transport = TuningOptions::Transport::kSocket;
    opts.socket_endpoints = {"/tmp/one.sock"};
    opts.fault_spec = "seed=3,transient=0.1";
    TuningSession session(prod.get(), opts);
    auto r = session.Tune(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
  {
    TuningOptions opts;
    opts.transport = TuningOptions::Transport::kSocket;
    opts.socket_endpoints = {"/tmp/one.sock"};
    opts.shard_fault_spec = "0:down_after=5";
    TuningSession session(prod.get(), opts);
    auto r = session.Tune(w);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

}  // namespace
}  // namespace dta::tuner
