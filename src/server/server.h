// A simulated database server instance: catalog + statistics + optimizer +
// execution engine + an overhead meter.
//
// The Server exposes exactly the interfaces DTA needs from Microsoft SQL
// Server in the paper:
//   * the what-if optimizer interface [9]: cost a statement under a
//     hypothetical configuration, optionally simulating *another* server's
//     hardware parameters (paper §5.3);
//   * CREATE STATISTICS (sampled), with a simulated duration;
//   * metadata scripting (schema only, no data) for the production/test
//     server scenario, plus statistics export/import;
//   * implementing a configuration and executing queries against actual
//     data (paper §7.2).
//
// Every statement submitted to a server (what-if optimizations, statistics
// creation, query executions) accrues simulated elapsed time on that
// server's overhead meter — the quantity Figure 3 of the paper reports.

#ifndef DTA_SERVER_SERVER_H_
#define DTA_SERVER_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/physical_design.h"
#include "catalog/schema.h"
#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/executor.h"
#include "optimizer/hardware.h"
#include "optimizer/optimizer.h"
#include "stats/builder.h"
#include "stats/statistics.h"
#include "storage/datagen.h"
#include "storage/table_data.h"
#include "workload/workload.h"

namespace dta::server {

class Server : public engine::DataSource {
 public:
  Server(std::string name, optimizer::HardwareParams hardware);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& name() const { return name_; }
  const optimizer::HardwareParams& hardware() const { return hardware_; }
  const catalog::Catalog& catalog() const { return catalog_; }
  const stats::StatsManager& stats_manager() const { return stats_; }

  // ---- Setup -----------------------------------------------------------
  Status AttachDatabase(catalog::Database db) EXCLUDES(simulated_mu_);
  // Attaches actual data for a table (enables execution and data-driven
  // statistics).
  Status AttachTableData(const std::string& database,
                         storage::TableData data);
  // Registers generator specs for a table; used to synthesize statistics
  // when no data is attached (large "customer" databases are modeled this
  // way).
  Status RegisterColumnSpecs(const std::string& database,
                             const std::string& table,
                             std::vector<storage::ColumnSpec> specs);

  // engine::DataSource:
  const storage::TableData* Table(const std::string& database,
                                  const std::string& table) const override;

  // ---- Statistics ------------------------------------------------------
  bool HasStatistics(const stats::StatsKey& key) const;
  // CREATE STATISTICS ... WITH SAMPLE. Returns the simulated duration (ms),
  // which is also accrued on this server's overhead meter.
  Result<double> CreateStatistics(const stats::StatsKey& key);
  // Returns the stored statistic (creating it first if absent).
  Result<const stats::Statistics*> GetOrCreateStatistics(
      const stats::StatsKey& key);
  // Imports a statistic from another server without touching data. No
  // overhead accrues here (catalog-only operation), mirroring §5.3.
  void ImportStatistics(const stats::Statistics& statistics);
  std::vector<const stats::Statistics*> ExportStatistics() const;

  // ---- What-if optimizer interface (paper [9], extended per §5.3) -------
  struct WhatIfResult {
    double cost = 0;
    // Simulated optimizer time for this call (what the overhead meter
    // accrued). Deterministic in the statement and configuration, so the
    // profiling layer can histogram it reproducibly.
    double simulated_ms = 0;
    std::set<stats::StatsKey> missing_stats;  // wanted but absent
  };
  // Costs `stmt` under hypothetical configuration `config`. When
  // `simulate_hardware` is provided, the optimizer models that hardware
  // instead of this server's own (test server simulating production).
  // Accrues a simulated optimization duration on this server.
  //
  // Thread-safe against concurrent WhatIfCost calls (the tuner's worker
  // pool fans costing out); setup mutations (AttachDatabase, statistics
  // creation/import, ImplementConfiguration) must still be serialized
  // against costing, which the tuning pipeline's phase structure does.
  //
  // When a fault injector is attached, each call first consults it: injected
  // latency accrues on the overhead meter (and really elapses), and injected
  // failures return Unavailable (transient) or Internal (permanent) without
  // producing a cost. `fault_key` identifies the logical call for the
  // injector's deterministic per-key decisions; 0 derives a key from the
  // statement and configuration. Failed attempts still count as what-if
  // calls and accrue the optimization duration — a failing server is not a
  // free server.
  Result<WhatIfResult> WhatIfCost(
      const sql::Statement& stmt, const catalog::Configuration& config,
      const optimizer::HardwareParams* simulate_hardware = nullptr,
      uint64_t fault_key = 0) EXCLUDES(simulated_mu_);

  // Attaches (or clears, with nullptr) a fault injector consulted by every
  // WhatIfCost call. The injector must outlive the server or be cleared
  // first; WhatIfPlan and statistics calls are not injected.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Attaches (or clears, with nullptr) a metrics registry: the optimizer's
  // per-call profiling counters and the server's statistics accounting
  // report into it. Like set_fault_injector, must not race active costing —
  // the tuning session attaches it before any fan-out starts.
  void SetMetrics(MetricsRegistry* metrics) EXCLUDES(simulated_mu_);

  // Full plan variant (same accounting and hardware simulation).
  Result<optimizer::Optimizer::QueryPlan> WhatIfPlan(
      const sql::SelectStatement& stmt, const catalog::Configuration& config,
      const optimizer::HardwareParams* simulate_hardware = nullptr);

  size_t whatif_call_count() const {
    return whatif_calls_.load(std::memory_order_relaxed);
  }

  // ---- Implemented configuration and execution --------------------------
  // Makes `config` the server's actual physical design (drops previously
  // materialized structures).
  Status ImplementConfiguration(catalog::Configuration config);
  const catalog::Configuration& current_configuration() const {
    return current_config_;
  }
  // Optimizes under the *current* configuration and executes on actual
  // data. Accrues the plan's estimated cost as execution overhead and
  // reports the measured wall-clock duration in `elapsed_ms`.
  Result<engine::QueryResult> ExecuteSelect(const sql::SelectStatement& stmt,
                                            double* elapsed_ms = nullptr);

  // ---- Metadata scripting (§5.3 Step 1) ---------------------------------
  // XML description of all databases: tables, columns, row counts, primary
  // keys. Contains no data.
  std::string ScriptMetadata() const;
  // Creates a metadata-only server (no data, no specs, no statistics) from
  // a metadata script.
  static Result<std::unique_ptr<Server>> FromMetadataScript(
      const std::string& xml_text, std::string name,
      optimizer::HardwareParams hardware);

  // ---- Multi-instance lifecycle (sharded costing) -----------------------
  // Deep replica of this server: same hardware, catalog, attached data,
  // generator specs, statistics, and implemented configuration — everything
  // the optimizer reads — so the clone prices any what-if call bit-identically
  // to the original. Runtime state (overhead meter, fault injector, metrics,
  // capture) starts fresh. The ShardRouter builds its shard fleet from these.
  Result<std::unique_ptr<Server>> Clone(std::string name) const;

  // ---- Workload capture (the paper's SQL Server Profiler, §2.1) ---------
  // While capture is active, every statement executed through
  // ExecuteSelect/ExecuteStatement is recorded. StopWorkloadCapture returns
  // the captured trace as a tunable workload.
  void StartWorkloadCapture();
  workload::Workload StopWorkloadCapture();
  bool capturing() const { return capturing_; }

  // Cost-only execution entry point for DML (the engine executes SELECTs;
  // data modification is modeled, not applied). Accrues the statement's
  // estimated cost as overhead and records it when capturing.
  Result<double> ExecuteStatement(const sql::Statement& stmt);

  // ---- Overhead metering -------------------------------------------------
  double overhead_ms() const EXCLUDES(meter_mu_) {
    MutexLock lock(meter_mu_);
    return overhead_ms_;
  }
  void ResetOverhead() EXCLUDES(meter_mu_) {
    MutexLock lock(meter_mu_);
    overhead_ms_ = 0;
    whatif_calls_.store(0, std::memory_order_relaxed);
  }

 private:
  // Simulated duration of one optimizer invocation, deterministic in the
  // statement's complexity and configuration size.
  double SimulatedOptimizeDurationMs(const sql::Statement& stmt,
                                     const catalog::Configuration& config)
      const;

  std::string name_;
  optimizer::HardwareParams hardware_;
  catalog::Catalog catalog_;
  stats::StatsManager stats_;
  std::map<std::string, storage::TableData> data_;  // "db.table"
  std::map<std::string, std::vector<storage::ColumnSpec>> specs_;

  // Accrues simulated elapsed time from concurrent what-if calls.
  void AccrueOverhead(double ms) EXCLUDES(meter_mu_) {
    MutexLock lock(meter_mu_);
    overhead_ms_ += ms;
  }

  std::unique_ptr<optimizer::StatsProvider> provider_;
  std::unique_ptr<optimizer::Optimizer> optimizer_;
  // The optimizer modelling `simulate_hardware`, or this server's own when
  // it is null.
  const optimizer::Optimizer* OptimizerFor(
      const optimizer::HardwareParams* simulate_hardware)
      EXCLUDES(simulated_mu_);

  // Optimizers for simulated hardware are built per distinct parameter set
  // (every field compared exactly), lazily and possibly from concurrent
  // what-if calls (guarded by simulated_mu_; unique_ptr values keep
  // handed-out pointers stable).
  Mutex simulated_mu_;
  std::vector<std::pair<optimizer::HardwareParams,
                        std::unique_ptr<optimizer::Optimizer>>>
      simulated_ GUARDED_BY(simulated_mu_);

  catalog::Configuration current_config_;
  std::unique_ptr<engine::Executor> executor_;
  FaultInjector* fault_injector_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* m_stats_created_ = nullptr;

  mutable Mutex meter_mu_;
  double overhead_ms_ GUARDED_BY(meter_mu_) = 0;
  std::atomic<size_t> whatif_calls_{0};

  bool capturing_ = false;
  workload::Workload captured_;
};

}  // namespace dta::server

#endif  // DTA_SERVER_SERVER_H_
