#include "catalog/physical_design.h"

#include <algorithm>
#include <atomic>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "sql/printer.h"
#include "sql/signature.h"

namespace dta::catalog {

namespace {
constexpr double kFillFactor = 0.75;  // leaf page utilization
constexpr int kIndexRowOverhead = 11;  // per leaf-row bookkeeping bytes

std::atomic<uint64_t> g_identity_renders{0};
}  // namespace

uint64_t IdentityRenders() {
  return g_identity_renders.load(std::memory_order_relaxed);
}

int PartitionScheme::PartitionFor(const sql::Value& v) const {
  int lo = 0, hi = static_cast<int>(boundaries.size());
  // First boundary strictly greater than v determines the partition:
  // partition i holds [b[i-1], b[i]).
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (v.Compare(boundaries[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool PartitionScheme::operator==(const PartitionScheme& other) const {
  if (!EqualsIgnoreCase(column, other.column)) return false;
  if (boundaries.size() != other.boundaries.size()) return false;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (boundaries[i].Compare(other.boundaries[i]) != 0) return false;
  }
  return true;
}

std::string PartitionScheme::CanonicalString() const {
  std::string out = "p(" + ToLower(column) + ":[";
  for (size_t i = 0; i < boundaries.size(); ++i) {
    if (i > 0) out += ",";
    out += boundaries[i].ToSqlLiteral();
  }
  out += "])";
  return out;
}

std::string TablePartitioningName(std::string_view table,
                                  const PartitionScheme& scheme) {
  return "tp:" + ToLower(table) + ":" + scheme.CanonicalString();
}

std::string IndexDef::CanonicalName() const {
  g_identity_renders.fetch_add(1, std::memory_order_relaxed);
  std::string out = clustered ? "cix:" : "ix:";
  if (!database.empty()) out += ToLower(database) + ".";
  out += ToLower(table) + ":k=";
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (i > 0) out += ",";
    out += ToLower(key_columns[i]);
  }
  if (!included_columns.empty()) {
    // Included columns are a set; sort for stable identity.
    std::vector<std::string> inc;
    inc.reserve(included_columns.size());
    for (const auto& c : included_columns) inc.push_back(ToLower(c));
    std::sort(inc.begin(), inc.end());
    out += ":inc=" + StrJoin(inc, ",");
  }
  if (partitioning.has_value()) {
    out += ":" + partitioning->CanonicalString();
  }
  return out;
}

bool IndexDef::ContainsColumn(std::string_view column) const {
  for (const auto& c : key_columns) {
    if (EqualsIgnoreCase(c, column)) return true;
  }
  for (const auto& c : included_columns) {
    if (EqualsIgnoreCase(c, column)) return true;
  }
  return false;
}

int IndexDef::KeyPrefixMatch(const std::vector<std::string>& columns) const {
  int matched = 0;
  for (const auto& key_col : key_columns) {
    bool found = false;
    for (const auto& c : columns) {
      if (EqualsIgnoreCase(c, key_col)) {
        found = true;
        break;
      }
    }
    if (!found) break;
    ++matched;
  }
  return matched;
}

int IndexDef::LeafRowBytes(const TableSchema& schema) const {
  if (clustered) return schema.RowBytes();
  int bytes = kIndexRowOverhead + 8;  // row locator
  auto width_of = [&schema](const std::string& col) {
    int idx = schema.ColumnIndex(col);
    return idx >= 0 ? schema.column(idx).width_bytes : 8;
  };
  for (const auto& c : key_columns) bytes += width_of(c);
  for (const auto& c : included_columns) bytes += width_of(c);
  return bytes;
}

uint64_t IndexDef::LeafPages(const TableSchema& schema) const {
  if (clustered) return std::max<uint64_t>(1, schema.DataPages());
  double bytes = static_cast<double>(schema.row_count()) *
                 LeafRowBytes(schema) / kFillFactor;
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(bytes / TableSchema::kPageBytes) + 1);
}

uint64_t IndexDef::EstimateBytes(const TableSchema& schema) const {
  // Clustered indexes reorganize the base data: no additional storage.
  if (clustered) return 0;
  return LeafPages(schema) * TableSchema::kPageBytes;
}

std::string ViewDef::CanonicalName() const {
  g_identity_renders.fetch_add(1, std::memory_order_relaxed);
  std::string out = "mv:";
  if (definition != nullptr) {
    sql::Statement stmt;
    stmt.node = definition->Clone();
    out += StrFormat("%016llx",
                     static_cast<unsigned long long>(sql::SignatureHash(stmt)));
    // Views that differ only in constants are distinct structures, so mix the
    // full (non-anonymized) text into the identity as well.
    sql::PrintOptions opts;
    opts.normalize_identifiers = true;
    out += StrFormat(
        "-%08llx",
        static_cast<unsigned long long>(HashBytes(ToSql(*definition, opts)) &
                                        0xffffffffull));
  }
  if (!clustered_key.empty()) {
    out += ":ck=";
    out += StrJoin(clustered_key, ",");
  }
  if (partitioning.has_value()) {
    out += ":" + partitioning->CanonicalString();
  }
  return out;
}

uint64_t ViewDef::EstimateBytes() const {
  double bytes = estimated_rows * estimated_row_bytes / kFillFactor;
  return static_cast<uint64_t>(bytes) + TableSchema::kPageBytes;
}

Status Configuration::AddIndex(IndexDef index) {
  std::string name = index.CanonicalName();
  return AddIndex(std::move(index), std::move(name));
}

Status Configuration::AddIndex(IndexDef index, std::string name) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (index_names_[i] == name) {
      return Status::AlreadyExists("index already in configuration: " + name);
    }
    if (index.clustered && indexes_[i].clustered &&
        EqualsIgnoreCase(indexes_[i].table, index.table)) {
      return Status::InvalidArgument(
          StrFormat("table '%s' already has a clustered index",
                    ToLower(index.table).c_str()));
    }
  }
  indexes_.push_back(std::move(index));
  index_names_.push_back(std::move(name));
  return Status::Ok();
}

Status Configuration::AddView(ViewDef view) {
  std::string name = view.CanonicalName();
  return AddView(std::move(view), std::move(name));
}

Status Configuration::AddView(ViewDef view, std::string name) {
  if (std::find(view_names_.begin(), view_names_.end(), name) !=
      view_names_.end()) {
    return Status::AlreadyExists("view already in configuration: " + name);
  }
  views_.push_back(std::move(view));
  view_names_.push_back(std::move(name));
  return Status::Ok();
}

void Configuration::SetTablePartitioning(const std::string& table,
                                         PartitionScheme scheme) {
  table_partitioning_[ToLower(table)] = std::move(scheme);
}

void Configuration::ClearTablePartitioning(const std::string& table) {
  table_partitioning_.erase(ToLower(table));
}

bool Configuration::RemoveStructure(const std::string& canonical_name) {
  auto ix = std::find(index_names_.begin(), index_names_.end(), canonical_name);
  if (ix != index_names_.end()) {
    indexes_.erase(indexes_.begin() + (ix - index_names_.begin()));
    index_names_.erase(ix);
    return true;
  }
  auto v = std::find(view_names_.begin(), view_names_.end(), canonical_name);
  if (v != view_names_.end()) {
    views_.erase(views_.begin() + (v - view_names_.begin()));
    view_names_.erase(v);
    return true;
  }
  for (auto it = table_partitioning_.begin(); it != table_partitioning_.end();
       ++it) {
    if (TablePartitioningName(it->first, it->second) == canonical_name) {
      table_partitioning_.erase(it);
      return true;
    }
  }
  return false;
}

bool Configuration::ContainsStructure(const std::string& canonical_name) const {
  if (std::find(index_names_.begin(), index_names_.end(), canonical_name) !=
          index_names_.end() ||
      std::find(view_names_.begin(), view_names_.end(), canonical_name) !=
          view_names_.end()) {
    return true;
  }
  for (const auto& [table, scheme] : table_partitioning_) {
    if (TablePartitioningName(table, scheme) == canonical_name) return true;
  }
  return false;
}

const std::string& Configuration::NameOf(const IndexDef& index) const {
  const size_t i = static_cast<size_t>(&index - indexes_.data());
  DTA_CHECK(i < indexes_.size(), "NameOf: index not in this configuration");
  return index_names_[i];
}

const std::string& Configuration::NameOf(const ViewDef& view) const {
  const size_t i = static_cast<size_t>(&view - views_.data());
  DTA_CHECK(i < views_.size(), "NameOf: view not in this configuration");
  return view_names_[i];
}

const IndexDef* Configuration::FindClusteredIndex(
    std::string_view table) const {
  for (const auto& ix : indexes_) {
    if (ix.clustered && EqualsIgnoreCase(ix.table, table)) return &ix;
  }
  return nullptr;
}

const PartitionScheme* Configuration::FindTablePartitioning(
    std::string_view table) const {
  auto it = table_partitioning_.find(ToLower(table));
  return it != table_partitioning_.end() ? &it->second : nullptr;
}

std::vector<const IndexDef*> Configuration::IndexesOnTable(
    std::string_view table) const {
  std::vector<const IndexDef*> out;
  for (const auto& ix : indexes_) {
    if (EqualsIgnoreCase(ix.table, table)) out.push_back(&ix);
  }
  return out;
}

std::vector<const ViewDef*> Configuration::ViewsReferencing(
    std::string_view table) const {
  std::vector<const ViewDef*> out;
  for (const auto& v : views_) {
    for (const auto& t : v.referenced_tables) {
      if (EqualsIgnoreCase(t, table)) {
        out.push_back(&v);
        break;
      }
    }
  }
  return out;
}

uint64_t Configuration::EstimateBytes(const Catalog& catalog) const {
  uint64_t total = 0;
  for (const auto& ix : indexes_) {
    auto resolved = catalog.ResolveTable(ix.database, ix.table);
    if (resolved.ok()) total += ix.EstimateBytes(*resolved->table);
  }
  for (const auto& v : views_) total += v.EstimateBytes();
  return total;
}

bool Configuration::IsAligned(std::string_view table) const {
  const PartitionScheme* table_scheme = FindTablePartitioning(table);
  for (const auto& ix : indexes_) {
    if (!EqualsIgnoreCase(ix.table, table)) continue;
    if (table_scheme == nullptr) {
      if (ix.partitioning.has_value()) return false;
    } else {
      if (!ix.partitioning.has_value() ||
          !(*ix.partitioning == *table_scheme)) {
        return false;
      }
    }
  }
  return true;
}

bool Configuration::IsFullyAligned() const {
  // Collect table names from indexes and partitioning declarations.
  std::vector<std::string> tables;
  for (const auto& ix : indexes_) tables.push_back(ToLower(ix.table));
  for (const auto& [t, scheme] : table_partitioning_) tables.push_back(t);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  for (const auto& t : tables) {
    if (!IsAligned(t)) return false;
  }
  return true;
}

std::string Configuration::Fingerprint() const {
  std::vector<std::string> parts;
  parts.reserve(indexes_.size() + views_.size() + table_partitioning_.size());
  parts.insert(parts.end(), index_names_.begin(), index_names_.end());
  parts.insert(parts.end(), view_names_.begin(), view_names_.end());
  for (const auto& [t, scheme] : table_partitioning_) {
    parts.push_back(TablePartitioningName(t, scheme));
  }
  std::sort(parts.begin(), parts.end());
  return StrJoin(parts, "|");
}

}  // namespace dta::catalog
