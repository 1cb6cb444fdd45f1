// The Enumeration step (paper §2.2): Greedy(m,k) over the union of
// candidates (including merged structures), pricing whole-workload cost via
// the what-if interface, subject to the storage bound and (optionally) the
// alignment constraint. Aligned candidate variants are introduced lazily
// during search (paper §4) unless eager expansion is requested (ablation).

#ifndef DTA_DTA_ENUMERATION_H_
#define DTA_DTA_ENUMERATION_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "catalog/physical_design.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dta/candidates.h"
#include "dta/cost_service.h"
#include "dta/tuning_options.h"

namespace dta::tuner {

struct EnumerationResult {
  catalog::Configuration configuration;  // base + chosen candidates
  double cost = 0;                       // workload cost under it
  std::vector<std::string> chosen;       // candidate names, selection order
  size_t evaluations = 0;                // configurations priced
  size_t candidates_considered = 0;      // after any eager expansion
  double eval_work_ms = 0;               // summed per-evaluation wall time
};

// Resumable greedy state, expressed in candidate *names* so it can be
// serialized into a session checkpoint: chosen structures in selection
// order, the cost of that subset, and the two-strike elimination state over
// the (deterministically expanded) candidate pool.
struct EnumerationResume {
  bool phase1_done = false;
  std::vector<std::string> chosen;  // candidate names, selection order
  double cost = 0;
  std::vector<int> strikes;  // per expanded-pool candidate
};

// `base` contains structures that are always present (constraint-enforcing
// indexes and the user-specified configuration).
//
// When `pool` is given, the per-candidate evaluations inside each greedy
// round are priced in parallel, each configuration's workload cost as one
// batch of lookups (CostService::WorkloadCost); the chosen configuration
// and cost are identical to the serial search (see GreedySearch).
//
// `resume`, when provided with phase1_done set, continues an interrupted
// search (the greedy rounds pick up exactly where the snapshot left off);
// `on_progress`, when provided, receives a resumable snapshot after the
// exhaustive phase and after every completed greedy round — the tuning
// session persists these as crash-safe checkpoints.
Result<EnumerationResult> EnumerateConfiguration(
    CostService* costs, const std::vector<Candidate>& candidates,
    const catalog::Configuration& base, const TuningOptions& options,
    const std::function<bool()>& should_stop = nullptr,
    ThreadPool* thread_pool = nullptr,
    const EnumerationResume* resume = nullptr,
    const std::function<void(const EnumerationResume&)>& on_progress =
        nullptr);

// Builds base + subset into a full configuration, applying alignment
// rewrites when required. Fails on conflicts (duplicate clustered index,
// duplicate table partitioning).
Result<catalog::Configuration> BuildConfiguration(
    const catalog::Configuration& base,
    const std::vector<const Candidate*>& chosen, bool aligned);

}  // namespace dta::tuner

#endif  // DTA_DTA_ENUMERATION_H_
