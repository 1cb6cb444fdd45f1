// Greedy(m,k) search (Chaudhuri & Narasayya [8], used by both Candidate
// Selection and Enumeration, paper §2.2): exhaustively choose the best
// subset of size <= m, then greedily add structures (up to k total) while
// the objective keeps improving.

#ifndef DTA_DTA_GREEDY_H_
#define DTA_DTA_GREEDY_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

namespace dta::tuner {

struct GreedyResult {
  std::vector<size_t> chosen;  // candidate indexes, in selection order
  double cost = 0;             // objective of the chosen subset
  size_t evaluations = 0;      // number of objective evaluations
};

// Resumable search state, snapshotted after the exhaustive phase and after
// every completed greedy round (crash-safe checkpointing). Restarting a
// search from a snapshot continues it exactly where it left off: `strikes`
// carries the two-strike elimination state, so the resumed rounds evaluate
// precisely the subsets the uninterrupted search would have evaluated.
struct GreedyState {
  bool phase1_done = false;
  std::vector<size_t> chosen;  // candidate indexes, in selection order
  double cost = 0;
  std::vector<int> strikes;  // per-candidate elimination strikes
};

// One subset's outcome in a round of the search.
struct Evaluation {
  bool ran = false;  // false when should_stop preempted the evaluation
  bool ok = false;   // false when the subset is infeasible (e.g. conflicting
                     // clustered indexes, storage bound exceeded)
  double cost = 0;   // the objective (lower is better) when ok
};

// Prices one round of the search — the exhaustive sweep over subsets of
// size <= m, or one greedy round's extensions of the chosen subset — and
// returns one Evaluation per subset, in order. The search picks each
// round's winner by a serial scan in subset order with the serial
// tie-breaking (first strictly better subset wins), so an evaluator may
// price a round's subsets in any order, on any threads, or as one batch,
// without changing the search.
using RoundEvaluator = std::function<std::vector<Evaluation>(
    const std::vector<std::vector<size_t>>& subsets)>;

// The round evaluator that calls `eval` once per subset (an error means
// infeasible): fanned out across `pool` when one is given (`eval` must
// then be thread-safe), and skipping every subset not yet started once
// `should_stop` returns true.
RoundEvaluator EvaluateEach(
    std::function<Result<double>(const std::vector<size_t>&)> eval,
    ThreadPool* pool = nullptr, std::function<bool()> should_stop = nullptr);

// `evaluate` prices each round; `empty_cost` is the objective of the empty
// subset. `should_stop`, when provided, is polled between rounds
// (time-bound tuning); when it returns true the best answer so far is
// returned. `min_relative_improvement`: the greedy extension stops when a
// round's best addition improves the objective by less than this fraction —
// structures with negligible benefit are not worth their storage and
// maintenance (and each round costs a sweep of what-if calls).
//
// `resume`, when provided with phase1_done set, skips the exhaustive phase
// and continues the greedy rounds from the snapshot. `on_progress`, when
// provided, is invoked with a resumable snapshot after the exhaustive phase
// and after every round that extends the chosen subset.
GreedyResult GreedySearch(
    size_t candidate_count, int m, int k, double empty_cost,
    const RoundEvaluator& evaluate,
    const std::function<bool()>& should_stop = nullptr,
    double min_relative_improvement = 1e-9,
    const GreedyState* resume = nullptr,
    const std::function<void(const GreedyState&)>& on_progress = nullptr);

}  // namespace dta::tuner

#endif  // DTA_DTA_GREEDY_H_
