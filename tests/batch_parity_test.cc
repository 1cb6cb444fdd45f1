// A batch of what-if lookups (CostService::StatementCosts) must price
// exactly what the same lookups priced one at a time price: the same costs,
// the same real, cached and derived answers, the same retries and
// degradations, and the same simulated optimizer time on every server.
// Both ways run over one TPC-H candidate-selection round (one statement,
// every subset of at most two of its candidates) and one enumeration round
// (every statement under each candidate of a pool), in process, over two
// socket CostWorkers and through an in-process channel that answers out of
// order, clean and under injected faults.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "dta/candidates.h"
#include "dta/column_groups.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/rpc/transport.h"
#include "dta/rpc/worker.h"
#include "dta/shard_router.h"
#include "workloads/tpch.h"

namespace dta::tuner {
namespace {

using catalog::Configuration;

// A statistics-only TPC-H server with its raw design implemented.
std::unique_ptr<server::Server> MakeTpch() {
  auto s = std::make_unique<server::Server>("prod",
                                            optimizer::HardwareParams());
  EXPECT_TRUE(workloads::AttachTpch(s.get(), 0.05, /*with_data=*/false, 7)
                  .ok());
  EXPECT_TRUE(
      s->ImplementConfiguration(workloads::TpchRawConfiguration()).ok());
  return s;
}

// The lookups of one search round: each configuration with the statements
// it prices.
struct Round {
  std::vector<Configuration> configs;
  std::vector<std::vector<size_t>> statements;  // per configuration
};

std::vector<Candidate> Candidates(const workload::Workload& w, size_t stmt,
                                  server::Server* server) {
  auto generated = GenerateCandidatesForStatement(
      w.statements()[stmt].stmt, server,
      InterestingColumnGroups::Unrestricted(), TuningOptions());
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return generated.ok() ? std::move(generated).value()
                        : std::vector<Candidate>();
}

void AddConfig(Round* round, const std::vector<const Candidate*>& chosen,
               std::vector<size_t> statements) {
  auto config =
      BuildConfiguration(workloads::TpchRawConfiguration(), chosen, false);
  if (!config.ok()) return;  // infeasible, as the search would skip it
  round->configs.push_back(std::move(config).value());
  round->statements.push_back(std::move(statements));
}

// Candidate selection's exhaustive round for statement `stmt`: every
// subset of at most two of its candidates, priced for that statement.
Round SelectionRound(size_t stmt, const std::vector<Candidate>& cands) {
  Round round;
  for (size_t i = 0; i < cands.size(); ++i) {
    AddConfig(&round, {&cands[i]}, {stmt});
  }
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = i + 1; j < cands.size(); ++j) {
      AddConfig(&round, {&cands[i], &cands[j]}, {stmt});
    }
  }
  return round;
}

// An enumeration round: each pool candidate alone, priced for every
// statement of the workload.
Round EnumerationRound(const workload::Workload& w,
                       const std::vector<Candidate>& pool) {
  std::vector<size_t> all(w.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  Round round;
  for (const Candidate& c : pool) AddConfig(&round, {&c}, all);
  return round;
}

// What one way of pricing produced.
struct Outcome {
  std::vector<std::string> costs;  // per lookup: the cost's bits, or error
  size_t calls = 0;
  size_t hits = 0;
  size_t derived = 0;
  size_t saved = 0;
  size_t fallbacks = 0;
  std::array<size_t, kRetryHistogramBuckets> retries{};
  std::set<size_t> degraded;
  std::set<stats::StatsKey> missing;
  double overhead_ms = 0;  // summed over every server that priced
};

std::string Describe(const Result<double>& r) {
  if (!r.ok()) return r.status().ToString();
  return StrFormat("%a", *r);
}

// An in-process channel whose own thread answers the pending calls newest
// first. Before each answer it waits for more submissions, but only until
// none has arrived for kHoldMs: a bounded hold, so a caller blocked on one
// call is answered late, never stranded.
class OutOfOrderChannel : public rpc::ShardChannel {
 public:
  explicit OutOfOrderChannel(server::Server* server)
      : server_(server), answerer_([this] { AnswerLoop(); }) {}
  OutOfOrderChannel(const OutOfOrderChannel&) = delete;
  OutOfOrderChannel& operator=(const OutOfOrderChannel&) = delete;
  ~OutOfOrderChannel() override {
    {
      MutexLock lock(mu_);
      stop_ = true;
      cv_.NotifyAll();
    }
    answerer_.join();
  }

  const std::string& name() const override { return server_->name(); }

  void Submit(const WhatIfCall& call, Done done) override EXCLUDES(mu_) {
    MutexLock lock(mu_);
    pending_.emplace_back(&call, std::move(done));
    cv_.NotifyAll();
  }

  Status MirrorStatistics(const stats::Statistics&) override {
    return Status::Ok();
  }

  // Answers given while an older call was still pending.
  size_t reordered() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return reordered_;
  }

 private:
  static constexpr double kHoldMs = 1;

  void AnswerLoop() EXCLUDES(mu_) {
    for (;;) {
      std::pair<const WhatIfCall*, Done> newest;
      {
        MutexLock lock(mu_);
        while (pending_.empty() && !stop_) cv_.Wait(mu_);
        if (pending_.empty()) return;
        for (size_t seen = 0; seen != pending_.size();) {
          seen = pending_.size();
          cv_.WaitForMs(mu_, kHoldMs);
        }
        if (pending_.size() > 1) ++reordered_;
        newest = std::move(pending_.back());
        pending_.pop_back();
      }
      const WhatIfCall& call = *newest.first;
      auto answer = server_->WhatIfCost(*call.stmt, *call.config,
                                        call.simulate_hardware, call.call_key);
      newest.second(std::move(answer));
    }
  }

  server::Server* server_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::pair<const WhatIfCall*, Done>> pending_ GUARDED_BY(mu_);
  size_t reordered_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread answerer_;  // last: it reads the members above
};

// Where the lookups are priced, and under which fault spec. One byte, as
// the bool it replaced: gtest prints a Fleet's bytes into each test name.
enum class Transport : uint8_t { kInproc, kSocket, kOutOfOrder };
struct Fleet {
  Transport transport = Transport::kInproc;
  std::string fault_spec;  // on every pricing server; empty: none
};

// Prices `rounds` on a fresh server (or a fresh pair of workers): as one
// batch per round when `batched`, else one StatementCost per lookup.
Outcome Price(const Fleet& fleet, const std::vector<Round>& rounds,
              const workload::Workload& w, bool batched) {
  auto prod = MakeTpch();
  std::vector<std::unique_ptr<server::Server>> clones;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<rpc::CostWorker>> workers;
  std::vector<std::string> paths;
  std::unique_ptr<rpc::ShardChannel> channel;  // null: the service's own
  OutOfOrderChannel* out_of_order = nullptr;
  auto inject = [&](server::Server* server) {
    if (fleet.fault_spec.empty()) return;
    auto spec = FaultSpec::Parse(fleet.fault_spec);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    injectors.push_back(std::make_unique<FaultInjector>(*spec));
    server->set_fault_injector(injectors.back().get());
  };
  if (fleet.transport == Transport::kSocket) {
    static std::atomic<int> counter{0};
    std::vector<std::unique_ptr<rpc::ShardChannel>> channels;
    for (int i = 0; i < 2; ++i) {
      auto clone = prod->Clone(StrFormat("worker%d", i));
      EXPECT_TRUE(clone.ok()) << clone.status().ToString();
      inject(clone->get());
      rpc::CostWorkerOptions wopts;
      wopts.threads = 2;
      workers.push_back(
          std::make_unique<rpc::CostWorker>(clone->get(), wopts));
      clones.push_back(std::move(clone).value());
      paths.push_back(StrFormat("/tmp/dta_bpt_%d_%d.sock",
                                static_cast<int>(::getpid()),
                                counter.fetch_add(1)));
      EXPECT_TRUE(workers.back()->Listen(paths.back()).ok());
      auto socket = rpc::SocketChannel::Connect(StrFormat("worker%d", i),
                                                paths.back(), {});
      EXPECT_TRUE(socket.ok()) << socket.status().ToString();
      channels.push_back(std::move(socket).value());
    }
    // Health never demotes a shard, so each call's route is its ranking
    // alone and injected outcomes do not depend on the order of calls.
    ShardRouterOptions options;
    options.unhealthy_after = 1 << 30;
    channel = std::make_unique<ShardRouter>(std::move(channels), options);
  } else {
    inject(prod.get());
    if (fleet.transport == Transport::kOutOfOrder) {
      auto reversing = std::make_unique<OutOfOrderChannel>(prod.get());
      out_of_order = reversing.get();
      channel = std::move(reversing);
    }
  }

  CostService::Config config;
  config.derived.enabled = true;
  config.retry.initial_backoff_ms = 0.01;
  config.retry.max_backoff_ms = 0.05;
  Outcome out;
  {
    CostService service(prod.get(), nullptr, &w, config, channel.get());
    for (const Round& round : rounds) {
      std::vector<CostService::Lookup> lookups;
      for (size_t c = 0; c < round.configs.size(); ++c) {
        for (size_t stmt : round.statements[c]) {
          lookups.push_back({stmt, &round.configs[c]});
        }
      }
      if (batched) {
        for (const auto& cost : service.StatementCosts(lookups)) {
          out.costs.push_back(Describe(cost));
        }
      } else {
        for (const auto& l : lookups) {
          out.costs.push_back(
              Describe(service.StatementCost(l.statement, *l.config)));
        }
      }
    }
    out.calls = service.whatif_calls();
    out.hits = service.cache_hits();
    out.derived = service.derived_answers();
    out.saved = service.whatif_calls_saved();
    out.fallbacks = service.derivation_fallbacks();
    out.retries = service.retry_histogram();
    out.degraded = service.degraded_statements();
    out.missing = service.missing_stats();
  }
  // A batch keeps many calls pending, so some are answered out of order.
  if (out_of_order != nullptr && batched) {
    EXPECT_GT(out_of_order->reordered(), 0u);
  }
  channel.reset();  // closes the router's channels or stops the answerer
  for (auto& worker : workers) worker->Shutdown();
  for (const std::string& path : paths) ::unlink(path.c_str());
  out.overhead_ms = prod->overhead_ms();
  for (const auto& clone : clones) out.overhead_ms += clone->overhead_ms();
  return out;
}

void ExpectSameOutcome(const Outcome& batched, const Outcome& single,
                       const std::string& label) {
  ASSERT_EQ(batched.costs.size(), single.costs.size()) << label;
  for (size_t i = 0; i < batched.costs.size(); ++i) {
    EXPECT_EQ(batched.costs[i], single.costs[i]) << label << " lookup " << i;
  }
  EXPECT_EQ(batched.calls, single.calls) << label;
  EXPECT_EQ(batched.hits, single.hits) << label;
  EXPECT_EQ(batched.derived, single.derived) << label;
  EXPECT_EQ(batched.saved, single.saved) << label;
  EXPECT_EQ(batched.fallbacks, single.fallbacks) << label;
  EXPECT_EQ(batched.retries, single.retries) << label;
  EXPECT_EQ(batched.degraded, single.degraded) << label;
  EXPECT_EQ(batched.missing, single.missing) << label;
  // A worker's pool threads accrue calls in any order, so the sums may
  // differ in their last bits; the calls and their durations do not.
  EXPECT_NEAR(batched.overhead_ms, single.overhead_ms,
              1e-9 * single.overhead_ms)
      << label;
}

class BatchParityTest : public ::testing::TestWithParam<Fleet> {};

TEST_P(BatchParityTest, BatchPricesWhatOneAtATimePrices) {
  const workload::Workload w = workloads::TpchQueries(1);
  auto server = MakeTpch();
  // Statement 2 (TPC-H Q3) joins three tables: its candidates interact,
  // so the selection round derives costs from shared atoms.
  const std::vector<Candidate> q3 = Candidates(w, 2, server.get());
  ASSERT_GT(q3.size(), 3u);
  std::vector<Candidate> pool;
  for (size_t stmt : {0, 4, 5}) {
    for (Candidate& c : Candidates(w, stmt, server.get())) {
      if (pool.size() < 12) pool.push_back(std::move(c));
    }
  }
  const std::vector<Round> rounds = {SelectionRound(2, q3),
                                     EnumerationRound(w, pool)};

  const Outcome batched = Price(GetParam(), rounds, w, /*batched=*/true);
  const Outcome single = Price(GetParam(), rounds, w, /*batched=*/false);
  ExpectSameOutcome(batched, single, GetParam().fault_spec);
  // The rounds exercise what they are meant to.
  EXPECT_GT(single.calls, 0u);
  EXPECT_GT(single.hits, 0u);
  EXPECT_GT(single.derived, 0u);
  if (GetParam().fault_spec.find("permanent") != std::string::npos) {
    EXPECT_FALSE(single.degraded.empty());
  }
  if (GetParam().fault_spec.find("transient") != std::string::npos) {
    EXPECT_GT(single.retries[1], 0u);
  }
}

std::string FleetName(const ::testing::TestParamInfo<Fleet>& info) {
  static const char* const kTransports[] = {"Inproc", "Socket", "OutOfOrder"};
  std::string name = kTransports[static_cast<int>(info.param.transport)];
  if (info.param.fault_spec.find("permanent") != std::string::npos) {
    name += "Permanent";
  } else if (info.param.fault_spec.find("transient") != std::string::npos) {
    name += "Transient";
  } else {
    name += "Clean";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, BatchParityTest,
    ::testing::Values(Fleet{Transport::kInproc, ""},
                      Fleet{Transport::kInproc, "seed=17,permanent=0.3"},
                      Fleet{Transport::kInproc, "seed=5,transient=0.4"},
                      Fleet{Transport::kSocket, ""},
                      Fleet{Transport::kSocket, "seed=17,permanent=0.3"},
                      Fleet{Transport::kSocket, "seed=5,transient=0.4"},
                      Fleet{Transport::kOutOfOrder, ""},
                      Fleet{Transport::kOutOfOrder, "seed=17,permanent=0.3"},
                      Fleet{Transport::kOutOfOrder, "seed=5,transient=0.4"}),
    FleetName);

}  // namespace
}  // namespace dta::tuner
