#include "dta/enumeration.h"

#include <algorithm>
#include <atomic>
#include <map>

#include "common/strings.h"
#include "dta/greedy.h"

namespace dta::tuner {

Result<catalog::Configuration> BuildConfiguration(
    const catalog::Configuration& base,
    const std::vector<const Candidate*>& chosen, bool aligned) {
  catalog::Configuration config = base;
  // Partitionings first so indexes can take on the table scheme.
  for (const Candidate* c : chosen) {
    if (c->kind == Candidate::Kind::kTablePartitioning) {
      DTA_RETURN_IF_ERROR(c->ApplyTo(&config, aligned));
    }
  }
  for (const Candidate* c : chosen) {
    if (c->kind == Candidate::Kind::kIndex) {
      Status s = c->ApplyTo(&config, aligned);
      // Two candidates may collapse to the same aligned structure; that is
      // fine (it is already present).
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    }
  }
  for (const Candidate* c : chosen) {
    if (c->kind == Candidate::Kind::kView) {
      Status s = c->ApplyTo(&config, aligned);
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    }
  }
  if (aligned) {
    // Base structures on partitioned tables must be aligned as well;
    // Candidate::ApplyTo handled candidate-introduced partitionings, but a
    // base (user-specified) partitioning may require rewrites too.
    for (const auto& [table, scheme] : config.table_partitioning()) {
      if (config.IsAligned(table)) continue;
      std::vector<catalog::IndexDef> rewritten;
      std::vector<std::string> to_remove;
      for (const catalog::IndexDef* ix : config.IndexesOnTable(table)) {
        to_remove.push_back(config.NameOf(*ix));
        catalog::IndexDef copy = *ix;
        copy.partitioning = scheme;
        rewritten.push_back(std::move(copy));
      }
      for (const auto& name : to_remove) config.RemoveStructure(name);
      for (auto& ix : rewritten) {
        Status s = config.AddIndex(std::move(ix));
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
      }
    }
  }
  return config;
}

Result<EnumerationResult> EnumerateConfiguration(
    CostService* costs, const std::vector<Candidate>& candidates,
    const catalog::Configuration& base, const TuningOptions& options,
    const std::function<bool()>& should_stop, ThreadPool* thread_pool,
    const EnumerationResume* resume,
    const std::function<void(const EnumerationResume&)>& on_progress) {
  // Eager alignment ablation (§4): pre-expand every index candidate with
  // every proposed partitioning of its table. Lazy mode introduces aligned
  // variants only as partitionings are chosen, keeping the pool small.
  std::vector<Candidate> pool = candidates;
  if (options.require_alignment && !options.lazy_alignment) {
    std::vector<Candidate> expanded;
    for (const Candidate& ix : candidates) {
      if (ix.kind != Candidate::Kind::kIndex || ix.index.clustered) continue;
      for (const Candidate& part : candidates) {
        if (part.kind != Candidate::Kind::kTablePartitioning) continue;
        if (!EqualsIgnoreCase(part.table, ix.index.table)) continue;
        catalog::IndexDef variant = ix.index;
        variant.partitioning = part.scheme;
        expanded.push_back(Candidate::MakeIndex(
            std::move(variant), costs->server()->catalog()));
      }
    }
    for (auto& c : expanded) pool.push_back(std::move(c));
  }

  auto base_cost = costs->WorkloadCost(base);
  if (!base_cost.ok()) return base_cost.status();

  const catalog::Catalog& catalog = costs->server()->catalog();
  // Summed wall time of the individual evaluations; with a worker pool this
  // exceeds the phase's elapsed time by roughly the parallel speedup. Timed
  // by the cost service's clock so an injected FakeClock zeroes it.
  const Clock* clock = costs->clock();
  std::atomic<double> eval_work_ms{0};
  auto eval = [&](const std::vector<size_t>& subset) -> Result<double> {
    const double t0 = clock->NowMs();
    std::vector<const Candidate*> chosen;
    chosen.reserve(subset.size());
    for (size_t i : subset) chosen.push_back(&pool[i]);
    auto config =
        BuildConfiguration(base, chosen, options.require_alignment);
    if (!config.ok()) return config.status();
    if (options.storage_bytes.has_value() &&
        config->EstimateBytes(catalog) > *options.storage_bytes) {
      return Status::OutOfRange("storage bound exceeded");
    }
    auto cost = costs->WorkloadCost(*config);
    eval_work_ms.fetch_add(clock->NowMs() - t0);
    return cost;
  };

  // Checkpoint snapshots name candidates rather than indexing them; the
  // pool expansion above is deterministic, so names resolve back to stable
  // indexes on resume.
  GreedyState seed;
  const GreedyState* seed_ptr = nullptr;
  if (resume != nullptr && resume->phase1_done) {
    std::map<std::string, size_t> index_by_name;
    for (size_t i = 0; i < pool.size(); ++i) {
      index_by_name.emplace(pool[i].name, i);
    }
    seed.phase1_done = true;
    seed.cost = resume->cost;
    seed.strikes = resume->strikes;
    for (const auto& name : resume->chosen) {
      auto it = index_by_name.find(name);
      if (it == index_by_name.end()) {
        return Status::FailedPrecondition(
            StrFormat("checkpoint names unknown candidate '%s'",
                      name.c_str()));
      }
      seed.chosen.push_back(it->second);
    }
    seed_ptr = &seed;
  }
  std::function<void(const GreedyState&)> progress;
  if (on_progress != nullptr) {
    progress = [&](const GreedyState& state) {
      EnumerationResume snapshot;
      snapshot.phase1_done = state.phase1_done;
      snapshot.cost = state.cost;
      snapshot.strikes = state.strikes;
      for (size_t i : state.chosen) snapshot.chosen.push_back(pool[i].name);
      on_progress(snapshot);
    };
  }

  // A round's subsets fan out over the pool, and each subset's workload
  // cost is one batch of lookups.
  GreedyResult greedy = GreedySearch(
      pool.size(), options.enumeration_m, options.enumeration_k, *base_cost,
      EvaluateEach(eval, thread_pool, should_stop), should_stop,
      options.min_improvement_fraction, seed_ptr, progress);

  EnumerationResult out;
  out.eval_work_ms = eval_work_ms.load();
  out.evaluations = greedy.evaluations;
  out.candidates_considered = pool.size();
  out.cost = greedy.cost;
  std::vector<const Candidate*> chosen;
  for (size_t i : greedy.chosen) {
    chosen.push_back(&pool[i]);
    out.chosen.push_back(pool[i].name);
  }
  auto config = BuildConfiguration(base, chosen, options.require_alignment);
  if (!config.ok()) return config.status();
  out.configuration = std::move(config).value();
  return out;
}

}  // namespace dta::tuner
