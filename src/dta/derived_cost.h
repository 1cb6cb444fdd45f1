// CoPhy-style derived what-if costing (PAPERS.md: "CoPhy: A Scalable,
// Portable, and Interactive Index Advisor for Large Workloads").
//
// Most configurations DTA prices differ from one another only in which of a
// handful of per-table candidate indexes are present. Because the optimizer
// picks exactly one access path per table (optimizer.cc: BuildAccessPaths +
// per-table path selection) and treats a materialized view as a whole-query
// alternative, the cost of a statement under a rich configuration can be
// *derived* from the costs of much smaller "atomic" configurations:
//
//   cost(stmt, ctx ∪ V) = min over atoms A of cost(stmt, A)
//
// where `ctx` is the fixed context every atom shares (clustered and
// constraint-enforcing indexes, table partitioning — the table organization,
// which affects every access path), `V` is the set of variable structures
// (nonclustered non-constraint indexes and materialized views), and the
// atoms are
//
//   - every one-index-per-table combination of the variable indexes
//     (including "no index" per table, so the bare context is an atom), and
//   - ctx ∪ {v} for each relevant view v (a view either replaces the whole
//     query or is unused, and its replacement cost does not depend on which
//     indexes exist).
//
// Atoms are keyed by fingerprints joined from the configuration's stored
// names and priced through the cost service's normal cached/deduplicated
// path (an atom's configuration is built only on a miss, from the same
// names, so it renders nothing), so each atom is priced at most once per
// session regardless of thread or shard count, and derived answers are a
// pure function of the (statement, fingerprint) pair — never of arrival
// order. DML statements are excluded: their cost mixes a min (the locate
// plan) with additive per-structure maintenance and does not decompose.
//
// When the one-per-table combination count explodes, the decomposition
// reports kTooManyAtoms; the caller either falls back to a real what-if
// call or (when a nonzero --derivation-error-bound allows it) answers from
// the singleton atoms with an explicit error estimate.

#ifndef DTA_DTA_DERIVED_COST_H_
#define DTA_DTA_DERIVED_COST_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/physical_design.h"
#include "sql/ast.h"

namespace dta::tuner {

// Knobs for the derived-cost layer (CostService::Config embeds one).
struct DerivedCostOptions {
  // Master switch. Off: every cache miss makes a real what-if call.
  bool enabled = false;
  // Exactness gate: price every derivable miss BOTH ways, record the
  // derivation error (|derived - real| / real) in the "derivation.error_pct"
  // histogram, and publish the real cost. Costs more than plain costing;
  // exists to verify the combine rule, not to save calls.
  bool exact = false;
  // Maximum tolerated derivation error, percent. In exact mode, errors
  // above the bound are counted (derivation_errors_exceeded). In normal
  // mode a nonzero bound additionally admits the bounded singleton
  // approximation when the decomposition has too many atoms, as long as its
  // a-priori error estimate stays under the bound.
  double error_bound_pct = 0;
  // Decompositions with more atoms than this fall back (kTooManyAtoms).
  size_t max_atoms = 64;
};

// One relevant structure: borrowed from the configuration CollectRelevant
// walked, plus its canonical name — the configuration's stored name for an
// index or view, rendered on demand for a partitioning.
template <typename T>
struct Relevant {
  const T* def = nullptr;
  std::string name;
};

// One entry of Configuration::table_partitioning(): (table, scheme).
using TablePartitioning =
    std::pair<const std::string, catalog::PartitionScheme>;

// The structures of a configuration on one statement's tables, collected
// once per cost lookup: the fingerprint keys the cache, and a miss feeds the
// same set to decomposition, so the two never disagree about relevance.
// Borrows from the walked configuration, which must outlive it.
struct RelevantSet {
  std::vector<Relevant<catalog::IndexDef>> indexes;       // sorted by name
  std::vector<Relevant<catalog::ViewDef>> views;          // sorted by name
  std::vector<Relevant<TablePartitioning>> partitioning;  // sorted by name
  // Every name joined with "|" in the order above, which is fully sorted:
  // "cix:"/"ix:" < "mv:" < "tp:". Checkpoints and memos embed these bytes.
  std::string fingerprint;
};

// Structures of `config` relevant to a statement touching `statement_tables`
// (lower-cased table names).
RelevantSet CollectRelevant(const std::set<std::string>& statement_tables,
                            const catalog::Configuration& config);
// The set borrows from `config`, so a temporary would leave it dangling.
RelevantSet CollectRelevant(const std::set<std::string>& statement_tables,
                            const catalog::Configuration&& config) = delete;

struct Decomposition {
  enum class Outcome {
    // The configuration is its own atom (at most one variable index per
    // table and no view/index mix): derivation would not save anything.
    kTrivial,
    // Valid decomposition; `atoms` describes the atomic configurations.
    kDerivable,
    // DML statement with a non-trivial variable set: maintenance cost is
    // additive per structure and does not decompose into a min.
    kUnsupportedStatement,
    // The one-per-table combination count exceeds max_atoms; `atoms` holds
    // the bounded singleton atoms instead (context first, then one atom per
    // variable structure).
    kTooManyAtoms,
  };
  // The relevant set's context (clustered and constraint-enforcing indexes,
  // every partitioning) plus `indexes` (at most one variable index per
  // table, in group order) or one `view`. Points into the decomposed set.
  struct Atom {
    std::vector<const Relevant<catalog::IndexDef>*> indexes;
    const Relevant<catalog::ViewDef>* view = nullptr;
    // Equals CollectRelevant's fingerprint of BuildAtom's configuration.
    std::string fingerprint;
  };
  Outcome outcome = Outcome::kTrivial;
  // Atoms in a deterministic order that is a pure function of the relevant
  // set. For kDerivable the first atom is the bare context.
  std::vector<Atom> atoms;
  // Index ranges of `atoms` (bounded form): atom 0 is the context and
  // variable_group_atoms[g] lists the atom indexes of group g's singletons
  // (groups are per-table index groups, then each view as its own group).
  std::vector<std::vector<size_t>> variable_group_atoms;
};

// Decomposes the relevant set for one statement. `statement_kind` decides
// DML handling; `max_atoms` bounds the one-per-table combination count.
Decomposition DecomposeConfiguration(sql::StatementKind statement_kind,
                                     const RelevantSet& relevant,
                                     size_t max_atoms);

// The atom's configuration as the optimizer prices it: context indexes in
// name order, then the atom's own indexes, its view and the partitioning.
// Its indexes and view are inserted with the relevant set's names.
catalog::Configuration BuildAtom(const RelevantSet& relevant,
                                 const Decomposition::Atom& atom);

// The combine rule: the derived cost is the minimum over atom costs.
double CombineAtomCosts(const std::vector<double>& atom_costs);

// A-priori error estimate (percent) for the bounded singleton
// approximation: the derived answer is U = min over atom costs (an upper
// bound on the true cost); the estimate compares U against the additive
// lower bound L = context_cost - sum over groups of (context_cost - best
// atom in the group), clamped at zero. `atom_costs` must be parallel to
// Decomposition::atoms of a kTooManyAtoms decomposition.
double BoundedErrorEstimatePct(const Decomposition& decomposition,
                               const std::vector<double>& atom_costs);

}  // namespace dta::tuner

#endif  // DTA_DTA_DERIVED_COST_H_
