#include "dta/derived_cost.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace dta::tuner {

namespace {

using RelevantIndex = Relevant<catalog::IndexDef>;

// Fixed context: structures that describe the table organization itself and
// therefore belong in every atom. A clustered index (constraint-enforcing
// or not) decides heap-vs-clustered access for all paths of its table, and
// constraint-enforcing indexes are part of the raw configuration that every
// candidate configuration contains anyway.
bool IsContextIndex(const catalog::IndexDef& ix) {
  return ix.clustered || ix.constraint_enforcing;
}

// Appends one name to a "|"-joined fingerprint (names are never empty).
void AppendName(const std::string& name, std::string* fingerprint) {
  if (!fingerprint->empty()) *fingerprint += '|';
  *fingerprint += name;
}

// Describes the atom context ∪ `indexes` ∪ {`view`}. Its fingerprint walks
// the relevant set in order, so the names stay sorted without re-sorting.
Decomposition::Atom MakeAtom(const RelevantSet& relevant,
                             std::vector<const RelevantIndex*> indexes,
                             const Relevant<catalog::ViewDef>* view) {
  Decomposition::Atom atom;
  for (const auto& ix : relevant.indexes) {
    if (IsContextIndex(*ix.def) ||
        std::find(indexes.begin(), indexes.end(), &ix) != indexes.end()) {
      AppendName(ix.name, &atom.fingerprint);
    }
  }
  if (view != nullptr) AppendName(view->name, &atom.fingerprint);
  for (const auto& tp : relevant.partitioning) {
    AppendName(tp.name, &atom.fingerprint);
  }
  atom.indexes = std::move(indexes);
  atom.view = view;
  return atom;
}

}  // namespace

RelevantSet CollectRelevant(const std::set<std::string>& statement_tables,
                            const catalog::Configuration& config) {
  RelevantSet out;
  const auto& indexes = config.indexes();
  for (size_t i = 0; i < indexes.size(); ++i) {
    if (statement_tables.count(ToLower(indexes[i].table)) > 0) {
      out.indexes.push_back({&indexes[i], config.index_names()[i]});
    }
  }
  const auto& views = config.views();
  for (size_t i = 0; i < views.size(); ++i) {
    for (const auto& t : views[i].referenced_tables) {
      if (statement_tables.count(ToLower(t)) > 0) {
        out.views.push_back({&views[i], config.view_names()[i]});
        break;
      }
    }
  }
  for (const auto& tp : config.table_partitioning()) {
    if (statement_tables.count(tp.first) > 0) {
      out.partitioning.push_back(
          {&tp, catalog::TablePartitioningName(tp.first, tp.second)});
    }
  }
  // Partitionings too sort by name, not map order: "tp:t1:" < "tp:t:".
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.indexes.begin(), out.indexes.end(), by_name);
  std::sort(out.views.begin(), out.views.end(), by_name);
  std::sort(out.partitioning.begin(), out.partitioning.end(), by_name);
  for (const auto& ix : out.indexes) AppendName(ix.name, &out.fingerprint);
  for (const auto& v : out.views) AppendName(v.name, &out.fingerprint);
  for (const auto& tp : out.partitioning) {
    AppendName(tp.name, &out.fingerprint);
  }
  return out;
}

Decomposition DecomposeConfiguration(sql::StatementKind statement_kind,
                                     const RelevantSet& relevant,
                                     size_t max_atoms) {
  Decomposition out;

  // Per-table groups of variable indexes. relevant.indexes is sorted by
  // canonical name, so group membership order — and with it the atom order
  // below — is a pure function of the relevant set.
  std::map<std::string, std::vector<const RelevantIndex*>> groups;
  for (const auto& ix : relevant.indexes) {
    if (!IsContextIndex(*ix.def)) groups[ToLower(ix.def->table)].push_back(&ix);
  }

  size_t largest_group = 0;
  size_t variable_indexes = 0;
  for (const auto& [table, members] : groups) {
    largest_group = std::max(largest_group, members.size());
    variable_indexes += members.size();
  }

  // The configuration is its own atom when no table offers a choice between
  // variable indexes and views do not mix with anything: pricing it IS the
  // atomic what-if call.
  const bool trivial =
      largest_group <= 1 &&
      (relevant.views.empty() ||
       (relevant.views.size() == 1 && variable_indexes == 0));
  if (trivial) {
    out.outcome = Decomposition::Outcome::kTrivial;
    return out;
  }

  if (statement_kind != sql::StatementKind::kSelect) {
    out.outcome = Decomposition::Outcome::kUnsupportedStatement;
    return out;
  }

  // One-per-table combination count (the "+1" is "no index on this table").
  size_t combos = 1;
  bool overflow = false;
  for (const auto& [table, members] : groups) {
    if (combos > max_atoms) {
      overflow = true;
      break;
    }
    combos *= members.size() + 1;
  }
  if (overflow || combos + relevant.views.size() > max_atoms) {
    // Bounded form: the context atom plus one singleton atom per variable
    // structure, with the group ranges recorded for the error estimate.
    out.outcome = Decomposition::Outcome::kTooManyAtoms;
    out.atoms.push_back(MakeAtom(relevant, {}, nullptr));
    for (const auto& [table, members] : groups) {
      std::vector<size_t>& atom_ids = out.variable_group_atoms.emplace_back();
      for (const RelevantIndex* ix : members) {
        atom_ids.push_back(out.atoms.size());
        out.atoms.push_back(MakeAtom(relevant, {ix}, nullptr));
      }
    }
    for (const auto& v : relevant.views) {
      out.variable_group_atoms.push_back({out.atoms.size()});
      out.atoms.push_back(MakeAtom(relevant, {}, &v));
    }
    return out;
  }

  // Full decomposition: every one-index-per-table combination (mixed-radix
  // enumeration over the groups; digit 0 means "no index on this table"),
  // then each view as a whole-query alternative over the bare context.
  out.outcome = Decomposition::Outcome::kDerivable;
  std::vector<const std::vector<const RelevantIndex*>*> group_members;
  group_members.reserve(groups.size());
  for (const auto& [table, members] : groups) {
    group_members.push_back(&members);
  }
  std::vector<size_t> digits(group_members.size(), 0);
  for (bool done = false; !done;) {
    std::vector<const RelevantIndex*> chosen;
    for (size_t g = 0; g < digits.size(); ++g) {
      if (digits[g] > 0) chosen.push_back((*group_members[g])[digits[g] - 1]);
    }
    out.atoms.push_back(MakeAtom(relevant, std::move(chosen), nullptr));
    size_t g = 0;
    for (; g < digits.size(); ++g) {
      if (++digits[g] <= group_members[g]->size()) break;
      digits[g] = 0;  // carry into the next group
    }
    done = g == digits.size();
  }
  for (const auto& v : relevant.views) {
    out.atoms.push_back(MakeAtom(relevant, {}, &v));
  }
  return out;
}

catalog::Configuration BuildAtom(const RelevantSet& relevant,
                                 const Decomposition::Atom& atom) {
  catalog::Configuration config;
  for (const auto& ix : relevant.indexes) {
    if (IsContextIndex(*ix.def)) (void)config.AddIndex(*ix.def, ix.name);
  }
  for (const RelevantIndex* ix : atom.indexes) {
    (void)config.AddIndex(*ix->def, ix->name);
  }
  if (atom.view != nullptr) {
    (void)config.AddView(*atom.view->def, atom.view->name);
  }
  for (const auto& tp : relevant.partitioning) {
    config.SetTablePartitioning(tp.def->first, tp.def->second);
  }
  return config;
}

double CombineAtomCosts(const std::vector<double>& atom_costs) {
  double best = 0;
  bool first = true;
  for (double c : atom_costs) {
    if (first || c < best) {
      best = c;
      first = false;
    }
  }
  return best;
}

double BoundedErrorEstimatePct(const Decomposition& decomposition,
                               const std::vector<double>& atom_costs) {
  if (atom_costs.empty()) return 0;
  const double upper = CombineAtomCosts(atom_costs);
  if (upper <= 0) return 0;
  // Additive lower bound: every group can at best contribute its own best
  // single-structure saving over the bare context.
  const double context_cost = atom_costs[0];
  double lower = context_cost;
  for (const auto& atom_ids : decomposition.variable_group_atoms) {
    double best_in_group = context_cost;
    for (size_t id : atom_ids) {
      if (id < atom_costs.size()) {
        best_in_group = std::min(best_in_group, atom_costs[id]);
      }
    }
    lower -= context_cost - best_in_group;
  }
  lower = std::max(lower, 0.0);
  if (lower >= upper) return 0;
  return 100.0 * (upper - lower) / upper;
}

}  // namespace dta::tuner
