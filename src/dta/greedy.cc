#include "dta/greedy.h"

#include <algorithm>

namespace dta::tuner {

RoundEvaluator EvaluateEach(
    std::function<Result<double>(const std::vector<size_t>&)> eval,
    ThreadPool* pool, std::function<bool()> should_stop) {
  return [eval = std::move(eval), pool, should_stop = std::move(should_stop)](
             const std::vector<std::vector<size_t>>& subsets) {
    std::vector<Evaluation> out(subsets.size());
    // `should_stop` doubles as ParallelFor's cancel predicate: workers stop
    // claiming new subsets once the deadline passes, instead of starting
    // every remaining evaluation just to bail inside it.
    ParallelFor(
        pool, subsets.size(),
        [&](size_t i) {
          if (should_stop != nullptr && should_stop()) return;
          auto c = eval(subsets[i]);
          out[i].ran = true;
          out[i].ok = c.ok();
          if (c.ok()) out[i].cost = *c;
        },
        should_stop);
    return out;
  };
}

GreedyResult GreedySearch(
    size_t candidate_count, int m, int k, double empty_cost,
    const RoundEvaluator& evaluate, const std::function<bool()>& should_stop,
    double min_relative_improvement, const GreedyState* resume,
    const std::function<void(const GreedyState&)>& on_progress) {
  GreedyResult best;
  best.cost = empty_cost;

  auto stopped = [&]() { return should_stop != nullptr && should_stop(); };

  std::vector<int> strikes(candidate_count, 0);
  const bool resuming = resume != nullptr && resume->phase1_done;
  if (resuming) {
    best.chosen = resume->chosen;
    best.cost = resume->cost;
    for (size_t i = 0; i < resume->strikes.size() && i < candidate_count;
         ++i) {
      strikes[i] = resume->strikes[i];
    }
  }
  auto report_progress = [&]() {
    if (on_progress == nullptr) return;
    GreedyState state;
    state.phase1_done = true;
    state.chosen = best.chosen;
    state.cost = best.cost;
    state.strikes = strikes;
    on_progress(state);
  };

  // Phase 1: exhaustive over subsets of size <= m (m is small: 1 or 2).
  if (!resuming) {
    std::vector<std::vector<size_t>> subsets;
    if (m >= 1) {
      for (size_t i = 0; i < candidate_count; ++i) subsets.push_back({i});
    }
    if (m >= 2) {
      for (size_t i = 0; i < candidate_count; ++i) {
        for (size_t j = i + 1; j < candidate_count; ++j) {
          subsets.push_back({i, j});
        }
      }
    }
    const std::vector<Evaluation> evals = evaluate(subsets);
    for (size_t s = 0; s < subsets.size(); ++s) {
      if (!evals[s].ran) continue;
      ++best.evaluations;
      if (evals[s].ok && evals[s].cost < best.cost) {
        best.cost = evals[s].cost;
        best.chosen = subsets[s];
      }
    }
    report_progress();
  }

  // Phase 2: greedy extension up to k structures. Candidates whose marginal
  // benefit stays below the improvement threshold for two consecutive
  // rounds are dropped from further consideration — marginal benefits only
  // shrink as the configuration grows, so re-evaluating them every round
  // wastes what-if calls.
  while (static_cast<int>(best.chosen.size()) < k && !stopped()) {
    std::vector<size_t> contenders;
    std::vector<std::vector<size_t>> subsets;
    for (size_t i = 0; i < candidate_count; ++i) {
      if (strikes[i] >= 2) continue;
      if (std::find(best.chosen.begin(), best.chosen.end(), i) !=
          best.chosen.end()) {
        continue;
      }
      contenders.push_back(i);
      std::vector<size_t> subset = best.chosen;
      subset.push_back(i);
      subsets.push_back(std::move(subset));
    }
    const std::vector<Evaluation> evals = evaluate(subsets);

    double round_best_cost = best.cost;
    size_t round_best_candidate = candidate_count;
    for (size_t s = 0; s < contenders.size(); ++s) {
      const size_t i = contenders[s];
      if (!evals[s].ran) continue;
      ++best.evaluations;
      if (!evals[s].ok) {
        ++strikes[i];
        continue;
      }
      double improvement =
          (best.cost - evals[s].cost) / std::max(1e-12, best.cost);
      if (improvement < min_relative_improvement) {
        ++strikes[i];
      } else {
        strikes[i] = 0;
      }
      if (evals[s].cost < round_best_cost) {
        round_best_cost = evals[s].cost;
        round_best_candidate = i;
      }
    }
    if (round_best_candidate == candidate_count) break;  // no improvement
    double improvement = (best.cost - round_best_cost) /
                         std::max(1e-12, best.cost);
    if (improvement < min_relative_improvement) break;
    best.chosen.push_back(round_best_candidate);
    best.cost = round_best_cost;
    report_progress();
  }
  return best;
}

}  // namespace dta::tuner
