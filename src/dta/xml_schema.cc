#include "dta/xml_schema.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/strings.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace dta::tuner {

namespace {

// Doubles render with human-friendly (lossy) formats in the display
// attributes; a bit-pattern companion attribute carries the exact value.
// Readers prefer the companion when present, so a configuration survives an
// XML round trip bit-exactly — the socket costing transport ships
// configurations this way, and a worker pricing a rounded EstimatedRows
// would return a subtly different cost than the in-process backend.
// Documents without the companion (hand-written, or from older versions)
// fall back to the display value.
std::string DoubleBits(double v) {
  return StrFormat("%llu",
                   static_cast<unsigned long long>(
                       std::bit_cast<uint64_t>(v)));
}

Status BadAttr(const xml::Element& e, std::string_view name,
               const char* expected) {
  return Status::InvalidArgument(StrFormat(
      "%s attribute %.*s is not %s: \"%s\"", e.name().c_str(),
      static_cast<int>(name.size()), name.data(), expected,
      e.Attr(name).c_str()));
}

// Reads a finite decimal attribute. strtod alone would read "abc" as 0 and
// accept "nan", which slips past every range check downstream.
Status ReadFiniteAttr(const xml::Element& e, std::string_view name,
                      double* out) {
  if (StrictDouble(e.Attr(name), out)) return Status::Ok();
  return BadAttr(e, name, "a finite number");
}

// Reads a DoubleBits companion attribute: the decimal bit pattern of a
// finite double.
Status ReadBitsAttr(const xml::Element& e, std::string_view name,
                    double* out) {
  uint64_t bits = 0;
  if (StrictUint64(e.Attr(name), &bits) &&
      std::isfinite(std::bit_cast<double>(bits))) {
    *out = std::bit_cast<double>(bits);
    return Status::Ok();
  }
  return BadAttr(e, name, "the bit pattern of a finite number");
}

void PartitioningToXml(const catalog::PartitionScheme& scheme,
                       xml::Element* parent) {
  xml::Element* p = parent->AddChild("Partitioning");
  p->SetAttr("Column", scheme.column);
  for (const auto& b : scheme.boundaries) {
    xml::Element* be = p->AddChild("Boundary");
    switch (b.type()) {
      case sql::ValueType::kInt:
        be->SetAttr("Type", "int");
        break;
      case sql::ValueType::kDouble:
        be->SetAttr("Type", "double");
        be->SetAttr("Bits", DoubleBits(b.AsDoubleStrict()));
        break;
      default:
        be->SetAttr("Type", "string");
        break;
    }
    be->set_text(b.ToDisplayString());
  }
}

Result<catalog::PartitionScheme> PartitioningFromXml(const xml::Element& p) {
  catalog::PartitionScheme scheme;
  scheme.column = ToLower(p.Attr("Column"));
  if (scheme.column.empty()) {
    return Status::InvalidArgument("Partitioning missing Column attribute");
  }
  for (const xml::Element* be : p.FindChildren("Boundary")) {
    const std::string& type = be->Attr("Type");
    auto bad_text = [be](const char* expected) {
      return Status::InvalidArgument(
          StrFormat("Boundary text is not %s: \"%s\"", expected,
                    be->text().c_str()));
    };
    if (type == "int") {
      int64_t value = 0;
      if (!StrictInt64(be->text(), &value)) return bad_text("an int");
      scheme.boundaries.push_back(sql::Value::Int(value));
    } else if (type == "double") {
      double value = 0;
      if (be->HasAttr("Bits")) {
        DTA_RETURN_IF_ERROR(ReadBitsAttr(*be, "Bits", &value));
      } else if (!StrictDouble(be->text(), &value)) {
        return bad_text("a finite number");
      }
      scheme.boundaries.push_back(sql::Value::Double(value));
    } else {
      scheme.boundaries.push_back(sql::Value::String(be->text()));
    }
  }
  return scheme;
}

const char* BoolStr(bool b) { return b ? "true" : "false"; }
bool ParseBool(const std::string& s, bool fallback) {
  if (s.empty()) return fallback;
  return EqualsIgnoreCase(s, "true") || s == "1";
}

}  // namespace

xml::ElementPtr ConfigurationToXml(const catalog::Configuration& config) {
  auto root = std::make_unique<xml::Element>("Configuration");
  for (const auto& ix : config.indexes()) {
    xml::Element* e = root->AddChild("Index");
    if (!ix.database.empty()) e->SetAttr("Database", ix.database);
    e->SetAttr("Table", ix.table);
    e->SetAttr("Clustered", BoolStr(ix.clustered));
    if (ix.constraint_enforcing) e->SetAttr("ConstraintEnforcing", "true");
    for (const auto& k : ix.key_columns) e->AddTextChild("KeyColumn", k);
    for (const auto& c : ix.included_columns) {
      e->AddTextChild("IncludedColumn", c);
    }
    if (ix.partitioning.has_value()) PartitioningToXml(*ix.partitioning, e);
  }
  for (const auto& v : config.views()) {
    xml::Element* e = root->AddChild("View");
    e->SetAttr("EstimatedRows", StrFormat("%.2f", v.estimated_rows));
    e->SetAttr("EstimatedRowsBits", DoubleBits(v.estimated_rows));
    e->SetAttr("EstimatedRowBytes", StrFormat("%d", v.estimated_row_bytes));
    if (v.definition != nullptr) {
      e->AddTextChild("Definition", sql::ToSql(*v.definition));
    }
    for (const auto& ck : v.clustered_key) {
      e->AddTextChild("ClusteredKeyColumn", ck);
    }
    if (v.partitioning.has_value()) PartitioningToXml(*v.partitioning, e);
  }
  for (const auto& [table, scheme] : config.table_partitioning()) {
    xml::Element* e = root->AddChild("TablePartitioning");
    e->SetAttr("Table", table);
    PartitioningToXml(scheme, e);
  }
  return root;
}

Result<catalog::Configuration> ConfigurationFromXml(
    const xml::Element& elem) {
  catalog::Configuration config;
  for (const xml::Element* e : elem.FindChildren("Index")) {
    catalog::IndexDef ix;
    ix.database = ToLower(e->Attr("Database"));
    ix.table = ToLower(e->Attr("Table"));
    if (ix.table.empty()) {
      return Status::InvalidArgument("Index missing Table attribute");
    }
    ix.clustered = ParseBool(e->Attr("Clustered"), false);
    ix.constraint_enforcing =
        ParseBool(e->Attr("ConstraintEnforcing"), false);
    for (const xml::Element* k : e->FindChildren("KeyColumn")) {
      ix.key_columns.push_back(ToLower(k->text()));
    }
    for (const xml::Element* c : e->FindChildren("IncludedColumn")) {
      ix.included_columns.push_back(ToLower(c->text()));
    }
    if (ix.key_columns.empty()) {
      return Status::InvalidArgument("Index requires at least one KeyColumn");
    }
    const xml::Element* p = e->FindChild("Partitioning");
    if (p != nullptr) {
      auto scheme = PartitioningFromXml(*p);
      if (!scheme.ok()) return scheme.status();
      ix.partitioning = std::move(scheme).value();
    }
    DTA_RETURN_IF_ERROR(config.AddIndex(std::move(ix)));
  }
  for (const xml::Element* e : elem.FindChildren("View")) {
    catalog::ViewDef v;
    const std::string& def_text = e->ChildText("Definition");
    if (def_text.empty()) {
      return Status::InvalidArgument("View missing Definition");
    }
    auto parsed = sql::ParseStatement(def_text);
    if (!parsed.ok()) return parsed.status();
    if (!parsed->is_select()) {
      return Status::InvalidArgument("View definition must be a SELECT");
    }
    v.definition =
        std::make_shared<sql::SelectStatement>(parsed->select().Clone());
    for (const auto& tr : v.definition->from) {
      v.referenced_tables.push_back(ToLower(tr.table));
    }
    // The exact companion wins over the display value; the one read must
    // be a finite, non-negative row count.
    const bool exact = e->HasAttr("EstimatedRowsBits");
    const char* rows_attr = exact ? "EstimatedRowsBits" : "EstimatedRows";
    if (e->HasAttr(rows_attr)) {
      DTA_RETURN_IF_ERROR(
          exact ? ReadBitsAttr(*e, rows_attr, &v.estimated_rows)
                : ReadFiniteAttr(*e, rows_attr, &v.estimated_rows));
      if (v.estimated_rows < 0) {
        return BadAttr(*e, rows_attr, "a non-negative row count");
      }
    }
    if (e->HasAttr("EstimatedRowBytes")) {
      int64_t row_bytes = 0;
      if (!StrictInt64(e->Attr("EstimatedRowBytes"), &row_bytes) ||
          row_bytes < 1 || row_bytes > std::numeric_limits<int>::max()) {
        return BadAttr(*e, "EstimatedRowBytes", "a positive int");
      }
      v.estimated_row_bytes = static_cast<int>(row_bytes);
    }
    for (const xml::Element* ck : e->FindChildren("ClusteredKeyColumn")) {
      v.clustered_key.push_back(ToLower(ck->text()));
    }
    const xml::Element* p = e->FindChild("Partitioning");
    if (p != nullptr) {
      auto scheme = PartitioningFromXml(*p);
      if (!scheme.ok()) return scheme.status();
      v.partitioning = std::move(scheme).value();
    }
    DTA_RETURN_IF_ERROR(config.AddView(std::move(v)));
  }
  for (const xml::Element* e : elem.FindChildren("TablePartitioning")) {
    const std::string table = ToLower(e->Attr("Table"));
    const xml::Element* p = e->FindChild("Partitioning");
    if (table.empty() || p == nullptr) {
      return Status::InvalidArgument(
          "TablePartitioning requires Table and Partitioning");
    }
    auto scheme = PartitioningFromXml(*p);
    if (!scheme.ok()) return scheme.status();
    config.SetTablePartitioning(table, std::move(scheme).value());
  }
  return config;
}

namespace {

xml::ElementPtr TuningOptionsToXml(const TuningOptions& o) {
  auto e = std::make_unique<xml::Element>("TuningOptions");
  e->SetAttr("Indexes", BoolStr(o.tune_indexes));
  e->SetAttr("MaterializedViews", BoolStr(o.tune_materialized_views));
  e->SetAttr("Partitioning", BoolStr(o.tune_partitioning));
  e->SetAttr("Alignment", BoolStr(o.require_alignment));
  e->SetAttr("WorkloadCompression", BoolStr(o.workload_compression));
  e->SetAttr("ReducedStatistics", BoolStr(o.reduced_statistics));
  if (o.num_threads != 0) {
    e->SetAttr("Threads", StrFormat("%d", o.num_threads));
  }
  if (o.storage_bytes.has_value()) {
    e->SetAttr("StorageBytes",
               StrFormat("%llu",
                         static_cast<unsigned long long>(*o.storage_bytes)));
  }
  if (o.time_limit_ms.has_value()) {
    e->SetAttr("TimeLimitMs", StrFormat("%.0f", *o.time_limit_ms));
  }
  if (!o.fault_spec.empty()) e->SetAttr("FaultSpec", o.fault_spec);
  if (!o.derived_costing) e->SetAttr("DerivedCosting", BoolStr(false));
  if (o.exact_costing) e->SetAttr("ExactCosting", BoolStr(true));
  if (o.derivation_error_bound_pct != 0) {
    e->SetAttr("DerivationErrorBoundPct",
               StrFormat("%.4f", o.derivation_error_bound_pct));
  }
  if (o.user_specified.StructureCount() > 0 ||
      !o.user_specified.table_partitioning().empty()) {
    xml::Element* u = e->AddChild("UserSpecifiedConfiguration");
    auto cfg = ConfigurationToXml(o.user_specified);
    // Move children of the serialized configuration under the wrapper.
    u->AddChild(std::move(cfg));
  }
  return e;
}

Result<TuningOptions> TuningOptionsFromXml(const xml::Element& e) {
  TuningOptions o;
  o.tune_indexes = ParseBool(e.Attr("Indexes"), true);
  o.tune_materialized_views = ParseBool(e.Attr("MaterializedViews"), true);
  o.tune_partitioning = ParseBool(e.Attr("Partitioning"), true);
  o.require_alignment = ParseBool(e.Attr("Alignment"), false);
  o.workload_compression = ParseBool(e.Attr("WorkloadCompression"), true);
  o.reduced_statistics = ParseBool(e.Attr("ReducedStatistics"), true);
  if (e.HasAttr("Threads")) {
    int64_t threads = 0;
    if (!StrictInt64(e.Attr("Threads"), &threads) || threads < 0 ||
        threads > std::numeric_limits<int>::max()) {
      return BadAttr(e, "Threads", "a non-negative int");
    }
    o.num_threads = static_cast<int>(threads);
  }
  if (e.HasAttr("StorageBytes")) {
    uint64_t bytes = 0;
    if (!StrictUint64(e.Attr("StorageBytes"), &bytes)) {
      return BadAttr(e, "StorageBytes", "a byte count");
    }
    o.storage_bytes = bytes;
  }
  if (e.HasAttr("TimeLimitMs")) {
    double ms = 0;
    DTA_RETURN_IF_ERROR(ReadFiniteAttr(e, "TimeLimitMs", &ms));
    o.time_limit_ms = ms;
  }
  if (e.HasAttr("FaultSpec")) o.fault_spec = e.Attr("FaultSpec");
  o.derived_costing = ParseBool(e.Attr("DerivedCosting"), true);
  o.exact_costing = ParseBool(e.Attr("ExactCosting"), false);
  if (e.HasAttr("DerivationErrorBoundPct")) {
    DTA_RETURN_IF_ERROR(ReadFiniteAttr(e, "DerivationErrorBoundPct",
                                       &o.derivation_error_bound_pct));
  }
  const xml::Element* u = e.FindChild("UserSpecifiedConfiguration");
  if (u != nullptr) {
    const xml::Element* cfg = u->FindChild("Configuration");
    if (cfg != nullptr) {
      auto parsed = ConfigurationFromXml(*cfg);
      if (!parsed.ok()) return parsed.status();
      o.user_specified = std::move(parsed).value();
    }
  }
  return o;
}

xml::ElementPtr WorkloadToXml(const workload::Workload& w) {
  auto e = std::make_unique<xml::Element>("Workload");
  for (const auto& ws : w.statements()) {
    xml::Element* s = e->AddChild("Statement");
    if (ws.weight != 1.0) s->SetAttr("Weight", StrFormat("%.4f", ws.weight));
    s->set_text(ws.text);
  }
  return e;
}

Result<workload::Workload> WorkloadFromXml(const xml::Element& e) {
  workload::Workload w;
  for (const xml::Element* s : e.FindChildren("Statement")) {
    auto stmt = sql::ParseStatement(s->text());
    if (!stmt.ok()) return stmt.status();
    double weight = 1.0;
    if (s->HasAttr("Weight")) {
      if (!StrictDouble(s->Attr("Weight"), &weight) || weight < 0) {
        return BadAttr(*s, "Weight", "a finite non-negative number");
      }
    }
    w.Add(std::move(stmt).value(), weight);
  }
  return w;
}

xml::ElementPtr InputToXmlElement(const TuningInput& input) {
  auto in = std::make_unique<xml::Element>("Input");
  xml::Element* server = in->AddChild("Server");
  server->SetAttr("Name", input.server_name);
  in->AddChild(WorkloadToXml(input.workload));
  in->AddChild(TuningOptionsToXml(input.options));
  return in;
}

}  // namespace

std::string TuningInputToXml(const TuningInput& input) {
  xml::Element root("DTAXML");
  root.AddChild(InputToXmlElement(input));
  return root.ToString(/*prolog=*/true);
}

Result<TuningInput> TuningInputFromXml(const std::string& xml_text) {
  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) return parsed.status();
  const xml::Element& root = **parsed;
  if (root.name() != "DTAXML") {
    return Status::InvalidArgument("not a DTAXML document");
  }
  const xml::Element* in = root.FindChild("Input");
  if (in == nullptr) {
    return Status::InvalidArgument("DTAXML missing <Input>");
  }
  TuningInput input;
  const xml::Element* server = in->FindChild("Server");
  if (server != nullptr) input.server_name = server->Attr("Name");
  const xml::Element* w = in->FindChild("Workload");
  if (w == nullptr) {
    return Status::InvalidArgument("DTAXML input missing <Workload>");
  }
  auto workload = WorkloadFromXml(*w);
  if (!workload.ok()) return workload.status();
  input.workload = std::move(workload).value();
  const xml::Element* opts = in->FindChild("TuningOptions");
  if (opts != nullptr) {
    auto parsed_opts = TuningOptionsFromXml(*opts);
    if (!parsed_opts.ok()) return parsed_opts.status();
    input.options = std::move(parsed_opts).value();
  }
  return input;
}

std::string TuningOutputToXml(const TuningInput& input,
                              const catalog::Configuration& recommendation,
                              const Report& report) {
  xml::Element root("DTAXML");
  root.AddChild(InputToXmlElement(input));
  xml::Element* out = root.AddChild("Output");
  out->AddChild(ConfigurationToXml(recommendation));
  out->AddChild(report.ToXml());
  return root.ToString(/*prolog=*/true);
}

Result<catalog::Configuration> RecommendationFromXml(
    const std::string& xml_text) {
  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) return parsed.status();
  const xml::Element* out = (*parsed)->FindChild("Output");
  if (out == nullptr) {
    return Status::InvalidArgument("DTAXML missing <Output>");
  }
  const xml::Element* cfg = out->FindChild("Configuration");
  if (cfg == nullptr) {
    return Status::InvalidArgument("DTAXML output missing <Configuration>");
  }
  return ConfigurationFromXml(*cfg);
}

}  // namespace dta::tuner
