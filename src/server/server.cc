#include "server/server.h"

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/hash.h"
#include "common/strings.h"
#include "sql/printer.h"
#include "xmlio/xml.h"

namespace dta::server {

Server::Server(std::string name, optimizer::HardwareParams hardware)
    : name_(std::move(name)), hardware_(hardware) {
  provider_ = std::make_unique<optimizer::StatsProvider>(&stats_);
  optimizer_ =
      std::make_unique<optimizer::Optimizer>(catalog_, *provider_, hardware_);
  executor_ = std::make_unique<engine::Executor>(catalog_, this);
}

Server::~Server() = default;

Status Server::AttachDatabase(catalog::Database db) {
  DTA_RETURN_IF_ERROR(catalog_.AddDatabase(std::move(db)));
  // Optimizers cache bound queries referencing catalog objects; rebuild to
  // avoid any staleness after catalog changes.
  optimizer_ =
      std::make_unique<optimizer::Optimizer>(catalog_, *provider_, hardware_);
  optimizer_->set_metrics(metrics_);
  {
    MutexLock lock(simulated_mu_);
    simulated_.clear();
  }
  executor_ = std::make_unique<engine::Executor>(catalog_, this);
  return Status::Ok();
}

Status Server::AttachTableData(const std::string& database,
                               storage::TableData data) {
  auto resolved = catalog_.ResolveTable(database, data.table_name());
  if (!resolved.ok()) return resolved.status();
  if (data.row_count() != resolved->table->row_count()) {
    return Status::InvalidArgument(StrFormat(
        "data row count %zu != catalog row count %llu for table '%s'",
        data.row_count(),
        static_cast<unsigned long long>(resolved->table->row_count()),
        data.table_name().c_str()));
  }
  std::string key = resolved->database->name() + "." + data.table_name();
  data_.insert_or_assign(key, std::move(data));
  return Status::Ok();
}

Status Server::RegisterColumnSpecs(const std::string& database,
                                   const std::string& table,
                                   std::vector<storage::ColumnSpec> specs) {
  auto resolved = catalog_.ResolveTable(database, table);
  if (!resolved.ok()) return resolved.status();
  if (specs.size() != resolved->table->columns().size()) {
    return Status::InvalidArgument(
        StrFormat("%zu specs for %zu columns of '%s'", specs.size(),
                  resolved->table->columns().size(),
                  resolved->table->name().c_str()));
  }
  specs_[resolved->database->name() + "." + resolved->table->name()] =
      std::move(specs);
  return Status::Ok();
}

const storage::TableData* Server::Table(const std::string& database,
                                        const std::string& table) const {
  auto it = data_.find(ToLower(database) + "." + ToLower(table));
  return it != data_.end() ? &it->second : nullptr;
}

bool Server::HasStatistics(const stats::StatsKey& key) const {
  return stats_.Contains(key);
}

Result<double> Server::CreateStatistics(const stats::StatsKey& key) {
  if (stats_.Contains(key)) return 0.0;
  auto resolved = catalog_.ResolveTable(key.database, key.table);
  if (!resolved.ok()) return resolved.status();
  const catalog::TableSchema& schema = *resolved->table;
  std::string data_key = resolved->database->name() + "." + schema.name();

  Result<stats::Statistics> built = Status::Internal("unset");
  auto data_it = data_.find(data_key);
  if (data_it != data_.end()) {
    built = stats::BuildFromData(resolved->database->name(), schema,
                                 data_it->second, key.columns);
  } else {
    auto spec_it = specs_.find(data_key);
    if (spec_it == specs_.end()) {
      return Status::FailedPrecondition(StrFormat(
          "server '%s' has neither data nor generator specs for '%s'; "
          "import statistics instead",
          name_.c_str(), schema.name().c_str()));
    }
    // Seed deterministically from the leading column so a statistic's
    // histogram is identical no matter which (and in what order) wider
    // statistics carry it — reduced statistics creation (§5.2) must yield
    // exactly the same information as the naive strategy.
    Random rng(HashBytes(data_key + "/" + key.columns[0]));
    built = stats::SynthesizeFromSpecs(resolved->database->name(), schema,
                                       spec_it->second, key.columns, &rng);
  }
  if (!built.ok()) return built.status();
  double duration = built->build_duration_ms;
  stats_.Put(std::move(built).value());
  AccrueOverhead(duration);
  if (m_stats_created_ != nullptr) m_stats_created_->Increment();
  return duration;
}

Result<const stats::Statistics*> Server::GetOrCreateStatistics(
    const stats::StatsKey& key) {
  if (!stats_.Contains(key)) {
    auto created = CreateStatistics(key);
    if (!created.ok()) return created.status();
  }
  const stats::Statistics* s = stats_.Find(key);
  if (s == nullptr) return Status::Internal("statistics vanished");
  return s;
}

void Server::ImportStatistics(const stats::Statistics& statistics) {
  stats_.Put(statistics);
}

std::vector<const stats::Statistics*> Server::ExportStatistics() const {
  return stats_.All();
}

double Server::SimulatedOptimizeDurationMs(
    const sql::Statement& stmt, const catalog::Configuration& config) const {
  // Calibrated against typical SQL Server compile times: ~10ms for a
  // single-table statement, growing quadratically with the join count
  // (plan-space size) and mildly with the number of hypothetical
  // structures the optimizer must consider.
  if (!stmt.is_select()) return 8.0;
  const sql::SelectStatement& sel = stmt.select();
  double tables = static_cast<double>(sel.from.size());
  double base = 22.0 + 1.5 * tables * tables +
                (sel.group_by.empty() ? 0.0 : 3.0);
  base += 0.3 * static_cast<double>(config.StructureCount());
  return base;
}

Result<Server::WhatIfResult> Server::WhatIfCost(
    const sql::Statement& stmt, const catalog::Configuration& config,
    const optimizer::HardwareParams* simulate_hardware, uint64_t fault_key) {
  if (fault_injector_ != nullptr) {
    if (fault_key == 0) {
      uint64_t h = HashBytes(sql::ToSql(stmt));
      for (const auto& name : config.index_names()) {
        h = HashCombine(h, HashBytes(name));
      }
      for (const auto& name : config.view_names()) {
        h = HashCombine(h, HashBytes(name));
      }
      for (const auto& [table, scheme] : config.table_partitioning()) {
        h = HashCombine(h, HashBytes(table + scheme.CanonicalString()));
      }
      fault_key = h == 0 ? 1 : h;
    }
    FaultInjector::Outcome outcome;
    if (!fault_injector_->spec().table.empty()) {
      // Table-targeted spec: tell the injector which tables this statement
      // touches so it can exempt unrelated calls. Computed only on this
      // path — untargeted specs never pay for the set.
      outcome = fault_injector_->Decide(fault_key, sql::ReferencedTables(stmt));
    } else {
      outcome = fault_injector_->Decide(fault_key);
    }
    if (outcome.latency_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(outcome.latency_ms));
      AccrueOverhead(outcome.latency_ms);
    }
    if (!outcome.status.ok()) {
      // The server burned a (failed) optimization: meter it like a real one.
      AccrueOverhead(SimulatedOptimizeDurationMs(stmt, config));
      whatif_calls_.fetch_add(1, std::memory_order_relaxed);
      return outcome.status;
    }
  }
  const optimizer::Optimizer* opt = OptimizerFor(simulate_hardware);
  WhatIfResult out;
  auto cost = opt->CostStatement(stmt, config, &out.missing_stats);
  out.simulated_ms = SimulatedOptimizeDurationMs(stmt, config);
  AccrueOverhead(out.simulated_ms);
  whatif_calls_.fetch_add(1, std::memory_order_relaxed);
  if (!cost.ok()) return cost.status();
  out.cost = *cost;
  return out;
}

const optimizer::Optimizer* Server::OptimizerFor(
    const optimizer::HardwareParams* simulate_hardware) {
  if (simulate_hardware == nullptr) return optimizer_.get();
  MutexLock lock(simulated_mu_);
  for (const auto& [hardware, opt] : simulated_) {
    if (hardware == *simulate_hardware) return opt.get();
  }
  simulated_.emplace_back(*simulate_hardware,
                          std::make_unique<optimizer::Optimizer>(
                              catalog_, *provider_, *simulate_hardware));
  simulated_.back().second->set_metrics(metrics_);
  return simulated_.back().second.get();
}

void Server::SetMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  m_stats_created_ =
      metrics != nullptr ? metrics->GetCounter("server.stats_created")
                         : nullptr;
  optimizer_->set_metrics(metrics);
  MutexLock lock(simulated_mu_);
  for (auto& [hardware, opt] : simulated_) opt->set_metrics(metrics);
}

Result<optimizer::Optimizer::QueryPlan> Server::WhatIfPlan(
    const sql::SelectStatement& stmt, const catalog::Configuration& config,
    const optimizer::HardwareParams* simulate_hardware) {
  sql::Statement wrapper;
  wrapper.node = stmt.Clone();
  AccrueOverhead(SimulatedOptimizeDurationMs(wrapper, config));
  whatif_calls_.fetch_add(1, std::memory_order_relaxed);
  return OptimizerFor(simulate_hardware)->OptimizeSelect(stmt, config);
}

Status Server::ImplementConfiguration(catalog::Configuration config) {
  current_config_ = std::move(config);
  executor_->ClearStructureCache();
  return Status::Ok();
}

Result<engine::QueryResult> Server::ExecuteSelect(
    const sql::SelectStatement& stmt, double* elapsed_ms) {
  const double start_ms = MonotonicNowMs();
  auto result = executor_->ExecuteSelect(stmt, current_config_, *optimizer_);
  double ms = MonotonicNowMs() - start_ms;
  if (elapsed_ms != nullptr) *elapsed_ms = ms;
  AccrueOverhead(ms);
  if (capturing_ && result.ok()) {
    sql::Statement wrapper;
    wrapper.node = stmt.Clone();
    captured_.Add(std::move(wrapper));
  }
  return result;
}

void Server::StartWorkloadCapture() {
  capturing_ = true;
  captured_ = workload::Workload();
}

workload::Workload Server::StopWorkloadCapture() {
  capturing_ = false;
  workload::Workload out = std::move(captured_);
  captured_ = workload::Workload();
  return out;
}

Result<double> Server::ExecuteStatement(const sql::Statement& stmt) {
  if (stmt.is_select()) {
    double ms = 0;
    auto r = ExecuteSelect(stmt.select(), &ms);
    if (!r.ok()) return r.status();
    return ms;
  }
  // DML: modeled, not applied — the estimated cost stands in for execution.
  auto cost = optimizer_->CostStatement(stmt, current_config_);
  if (!cost.ok()) return cost.status();
  AccrueOverhead(*cost);
  if (capturing_) {
    captured_.Add(stmt.Clone());
  }
  return *cost;
}

std::string Server::ScriptMetadata() const {
  xml::Element root("ServerMetadata");
  root.SetAttr("Name", name_);
  for (const auto& [db_name, db] : catalog_.databases()) {
    xml::Element* dbe = root.AddChild("Database");
    dbe->SetAttr("Name", db_name);
    for (const auto& [t_name, table] : db.tables()) {
      xml::Element* te = dbe->AddChild("Table");
      te->SetAttr("Name", t_name);
      te->SetAttr("RowCount",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        table.row_count())));
      for (const auto& col : table.columns()) {
        xml::Element* ce = te->AddChild("Column");
        ce->SetAttr("Name", col.name);
        ce->SetAttr("Type", catalog::ColumnTypeName(col.type));
        ce->SetAttr("Width", StrFormat("%d", col.width_bytes));
      }
      if (!table.primary_key().empty()) {
        xml::Element* pk = te->AddChild("PrimaryKey");
        for (int c : table.primary_key()) {
          pk->AddTextChild("Column", table.column(c).name);
        }
      }
    }
  }
  return root.ToString(/*prolog=*/true);
}

Result<std::unique_ptr<Server>> Server::FromMetadataScript(
    const std::string& xml_text, std::string name,
    optimizer::HardwareParams hardware) {
  auto parsed = xml::Parse(xml_text);
  if (!parsed.ok()) return parsed.status();
  const xml::Element& root = **parsed;
  if (root.name() != "ServerMetadata") {
    return Status::InvalidArgument("not a ServerMetadata document");
  }
  auto server = std::make_unique<Server>(std::move(name), hardware);
  for (const xml::Element* dbe : root.FindChildren("Database")) {
    catalog::Database db(dbe->Attr("Name"));
    for (const xml::Element* te : dbe->FindChildren("Table")) {
      std::vector<catalog::Column> columns;
      for (const xml::Element* ce : te->FindChildren("Column")) {
        auto type = catalog::ColumnTypeFromName(ce->Attr("Type"));
        if (!type.ok()) return type.status();
        catalog::Column col;
        col.name = ce->Attr("Name");
        col.type = *type;
        col.width_bytes = std::max(1, atoi(ce->Attr("Width").c_str()));
        columns.push_back(std::move(col));
      }
      catalog::TableSchema table(te->Attr("Name"), std::move(columns));
      table.set_row_count(
          strtoull(te->Attr("RowCount").c_str(), nullptr, 10));
      const xml::Element* pk = te->FindChild("PrimaryKey");
      if (pk != nullptr) {
        std::vector<std::string> key_cols;
        for (const xml::Element* kc : pk->FindChildren("Column")) {
          key_cols.push_back(kc->text());
        }
        table.SetPrimaryKey(key_cols);
      }
      DTA_RETURN_IF_ERROR(db.AddTable(std::move(table)));
    }
    DTA_RETURN_IF_ERROR(server->AttachDatabase(std::move(db)));
  }
  return server;
}

Result<std::unique_ptr<Server>> Server::Clone(std::string name) const {
  auto replica = std::make_unique<Server>(std::move(name), hardware_);
  for (const auto& [db_name, db] : catalog_.databases()) {
    DTA_RETURN_IF_ERROR(replica->AttachDatabase(db));
  }
  // data_/specs_ keys are "<resolved db>.<table>"; re-attaching through the
  // public setters revalidates against the replica's catalog and rebuilds
  // the exact same keys.
  for (const auto& [key, data] : data_) {
    DTA_RETURN_IF_ERROR(
        replica->AttachTableData(key.substr(0, key.find('.')), data));
  }
  for (const auto& [key, specs] : specs_) {
    const size_t dot = key.find('.');
    DTA_RETURN_IF_ERROR(replica->RegisterColumnSpecs(
        key.substr(0, dot), key.substr(dot + 1), specs));
  }
  for (const stats::Statistics* s : ExportStatistics()) {
    replica->ImportStatistics(*s);
  }
  DTA_RETURN_IF_ERROR(replica->ImplementConfiguration(current_config_));
  return replica;
}

}  // namespace dta::server
