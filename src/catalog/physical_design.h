// Physical design objects: range partitioning schemes, indexes, materialized
// views, and complete configurations.
//
// A `Configuration` is the unit the what-if optimizer consumes (paper §2.2):
// it fully describes the hypothetical physical design of all tables —
// clustered index / heap, nonclustered indexes, materialized views, and
// single-column range partitioning of tables, indexes and views.
//
// All objects are value types with cheap copies (view definitions are shared
// immutable pointers) because DTA's search copies configurations heavily.

#ifndef DTA_CATALOG_PHYSICAL_DESIGN_H_
#define DTA_CATALOG_PHYSICAL_DESIGN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "sql/ast.h"
#include "sql/value.h"

namespace dta::catalog {

// Single-column horizontal range partitioning (SQL Server 2005 model).
// `boundaries` are sorted split points; N boundaries define N+1 partitions
// (right-open ranges: partition i holds values in [b[i-1], b[i])).
struct PartitionScheme {
  std::string column;
  std::vector<sql::Value> boundaries;

  int PartitionCount() const {
    return static_cast<int>(boundaries.size()) + 1;
  }
  // 0-based partition index for a value.
  int PartitionFor(const sql::Value& v) const;

  bool operator==(const PartitionScheme& other) const;
  // Stable content string, e.g. "p(ship_date:[d1,d2,d3])".
  std::string CanonicalString() const;
};

// Number of IndexDef::CanonicalName() and ViewDef::CanonicalName() renders in
// this process so far. Monotonic and relaxed; there is no reset, so callers
// take deltas. A cost lookup renders nothing: configurations store their
// structures' names, so renders follow structures built, not lookups.
uint64_t IdentityRenders();

// Canonical name of a table partitioning, "tp:<lower-cased table>:<scheme>":
// the one identity candidate pools, cost-cache keys, configuration
// fingerprints, recommendation deltas and DBA feedback all use.
std::string TablePartitioningName(std::string_view table,
                                  const PartitionScheme& scheme);

// An index (clustered or nonclustered, optionally covering via included
// columns, optionally partitioned).
struct IndexDef {
  std::string database;  // optional qualifier
  std::string table;
  std::vector<std::string> key_columns;
  std::vector<std::string> included_columns;
  bool clustered = false;
  // Enforces a primary-key/unique constraint; such indexes are never dropped
  // by DTA and are part of the "raw" configuration (paper §7.1).
  bool constraint_enforcing = false;
  std::optional<PartitionScheme> partitioning;

  // Content-derived identity. Two IndexDefs with equal canonical names are
  // interchangeable.
  std::string CanonicalName() const;
  bool operator==(const IndexDef& other) const {
    return CanonicalName() == other.CanonicalName();
  }

  // True if `column` appears in the key or included list.
  bool ContainsColumn(std::string_view column) const;
  // Number of key columns that prefix-match `columns` starting at the key's
  // first column.
  int KeyPrefixMatch(const std::vector<std::string>& columns) const;

  // Additional storage the index consumes, beyond the base table.
  // Clustered indexes are non-redundant (they reorganize the heap) and cost
  // ~0 additional bytes; nonclustered leaf size is estimated from column
  // widths with a fill-factor allowance.
  uint64_t EstimateBytes(const TableSchema& schema) const;
  // Leaf pages of this index (for scan costing). For a clustered index this
  // is the table's data pages.
  uint64_t LeafPages(const TableSchema& schema) const;
  // Bytes of one leaf row.
  int LeafRowBytes(const TableSchema& schema) const;
};

// A materialized view over an SPJ(+GROUP BY) select statement, optionally
// with a clustered key and partitioning.
struct ViewDef {
  std::string name;
  std::shared_ptr<const sql::SelectStatement> definition;
  // Tables referenced by the definition (normalized names), for relevance
  // and update-cost analysis.
  std::vector<std::string> referenced_tables;
  // Filled by the candidate generator using the cardinality estimator.
  double estimated_rows = 0;
  int estimated_row_bytes = 64;
  // Optional clustered key (column aliases of the view output).
  std::vector<std::string> clustered_key;
  std::optional<PartitionScheme> partitioning;  // over an output column

  std::string CanonicalName() const;
  bool operator==(const ViewDef& other) const {
    return CanonicalName() == other.CanonicalName();
  }
  uint64_t EstimateBytes() const;
};

// A complete physical design.
//
// A configuration owns its structures' identities: it renders an index's or
// view's canonical name once, on insertion, and stores it beside the
// structure. Members are only handed out by const reference, so a stored
// name cannot go stale; every identity read (duplicate checks, lookups,
// removal, relevance walks) uses the stored names.
class Configuration {
 public:
  Configuration() = default;

  // Adds an index; replaces nothing. Fails if an equal index exists or a
  // second clustered index is added for the same table.
  Status AddIndex(IndexDef index);
  Status AddView(ViewDef view);
  // The same, for a caller that already holds the structure's name.
  // Precondition: `name == index.CanonicalName()` (`view.CanonicalName()`),
  // e.g. a Candidate's `name` or another configuration's stored name for an
  // equal structure. The name is stored as given, never re-rendered.
  Status AddIndex(IndexDef index, std::string name);
  Status AddView(ViewDef view, std::string name);
  void SetTablePartitioning(const std::string& table, PartitionScheme scheme);
  void ClearTablePartitioning(const std::string& table);

  // Removes the structure with the given canonical name (index, view, or
  // table partitioning).
  bool RemoveStructure(const std::string& canonical_name);
  bool ContainsStructure(const std::string& canonical_name) const;

  const std::vector<IndexDef>& indexes() const { return indexes_; }
  const std::vector<ViewDef>& views() const { return views_; }
  // Stored canonical names, parallel to indexes() and views():
  // index_names()[i] == indexes()[i].CanonicalName().
  const std::vector<std::string>& index_names() const { return index_names_; }
  const std::vector<std::string>& view_names() const { return view_names_; }
  // Stored name of `index` (`view`), which must be an element of indexes()
  // (views()), e.g. one that IndexesOnTable (ViewsReferencing) returned.
  const std::string& NameOf(const IndexDef& index) const;
  const std::string& NameOf(const ViewDef& view) const;
  const std::map<std::string, PartitionScheme>& table_partitioning() const {
    return table_partitioning_;
  }

  // nullptr if the table is a heap under this configuration.
  const IndexDef* FindClusteredIndex(std::string_view table) const;
  // Partitioning of the table, if any.
  const PartitionScheme* FindTablePartitioning(std::string_view table) const;
  std::vector<const IndexDef*> IndexesOnTable(std::string_view table) const;
  std::vector<const ViewDef*> ViewsReferencing(std::string_view table) const;

  // Additional storage consumed by all redundant structures.
  uint64_t EstimateBytes(const Catalog& catalog) const;

  // Alignment (paper §4): every index on `table` partitioned identically to
  // the table itself.
  bool IsAligned(std::string_view table) const;
  bool IsFullyAligned() const;

  // Deterministic content string covering every structure: every name,
  // sorted and joined with "|". Not the what-if cache key, which covers only
  // a statement's relevant structures (tuner::RelevantSet::fingerprint);
  // tests and tools use it to compare whole configurations.
  std::string Fingerprint() const;

  size_t StructureCount() const { return indexes_.size() + views_.size(); }

 private:
  std::vector<IndexDef> indexes_;
  std::vector<std::string> index_names_;  // parallel to indexes_
  std::vector<ViewDef> views_;
  std::vector<std::string> view_names_;  // parallel to views_
  std::map<std::string, PartitionScheme> table_partitioning_;
};

}  // namespace dta::catalog

#endif  // DTA_CATALOG_PHYSICAL_DESIGN_H_
