// A batch of what-if lookups (CostService::StatementCosts) must price
// exactly what the same lookups priced one at a time price: the same costs,
// the same real, cached and derived answers, the same retries and
// degradations, and the same simulated optimizer time on every server.
// Both ways run over one TPC-H candidate-selection round (one statement,
// every subset of at most two of its candidates) and one enumeration round
// (every statement under each candidate of a pool), in process and over two
// socket CostWorkers, clean and under injected faults.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
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

// Where the lookups are priced, and under which fault spec.
struct Fleet {
  bool socket = false;
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
  std::unique_ptr<ShardRouter> router;
  auto inject = [&](server::Server* server) {
    if (fleet.fault_spec.empty()) return;
    auto spec = FaultSpec::Parse(fleet.fault_spec);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    injectors.push_back(std::make_unique<FaultInjector>(*spec));
    server->set_fault_injector(injectors.back().get());
  };
  std::unique_ptr<SingleServerBackend> single;
  CostBackend* backend = nullptr;
  if (fleet.socket) {
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
      auto channel = rpc::SocketChannel::Connect(StrFormat("worker%d", i),
                                                 paths.back(), {});
      EXPECT_TRUE(channel.ok()) << channel.status().ToString();
      channels.push_back(std::move(channel).value());
    }
    // Health never demotes a shard, so each call's route is its ranking
    // alone and injected outcomes do not depend on the order of calls.
    ShardRouterOptions options;
    options.unhealthy_after = 1 << 30;
    router = std::make_unique<ShardRouter>(prod.get(), std::move(channels),
                                           options);
    backend = router.get();
  } else {
    inject(prod.get());
    single = std::make_unique<SingleServerBackend>(prod.get());
    backend = single.get();
  }

  CostService::Config config;
  config.derived.enabled = true;
  config.retry.initial_backoff_ms = 0.01;
  config.retry.max_backoff_ms = 0.05;
  Outcome out;
  {
    CostService service(backend, nullptr, &w, config);
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
  router.reset();  // closes the channels
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

INSTANTIATE_TEST_SUITE_P(
    Fleets, BatchParityTest,
    ::testing::Values(Fleet{false, ""}, Fleet{false, "seed=17,permanent=0.3"},
                      Fleet{false, "seed=5,transient=0.4"},
                      Fleet{true, ""}, Fleet{true, "seed=17,permanent=0.3"},
                      Fleet{true, "seed=5,transient=0.4"}),
    [](const ::testing::TestParamInfo<Fleet>& info) {
      std::string name = info.param.socket ? "Socket" : "Inproc";
      if (info.param.fault_spec.find("permanent") != std::string::npos) {
        name += "Permanent";
      } else if (info.param.fault_spec.find("transient") !=
                 std::string::npos) {
        name += "Transient";
      } else {
        name += "Clean";
      }
      return name;
    });

}  // namespace
}  // namespace dta::tuner
