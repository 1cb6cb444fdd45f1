#include "dta/tuning_session.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "dta/candidates.h"
#include "dta/checkpoint.h"
#include "dta/column_groups.h"
#include "dta/cost_service.h"
#include "dta/enumeration.h"
#include "dta/greedy.h"
#include "dta/merging.h"
#include "dta/reduced_stats.h"
#include "dta/rpc/transport.h"
#include "dta/shard_router.h"
#include "dta/tenant_driver.h"

namespace dta::tuner {

// Tune and EvaluateConfiguration price through the same what-if interface,
// test server, fault tolerance, and shard fleet (§5.3, §6.3). Shard 0 is the
// tuning server itself; shards 1..N-1 are bit-exact clones of it. Every
// statistic the session creates is fanned out to the clones, so any shard
// answers any what-if call with the same cost — the router only decides
// *where* a call runs, never *what* it returns, which keeps results
// byte-identical at every (threads x shards) combination.
struct TuningSession::Run {
  Run(server::Server* server, const workload::Workload& tuned,
      const Clock* run_clock, double start, const TuningOptions& options)
      : tuning_server(server),
        workload(tuned),
        clock(run_clock),
        t_start(start),
        time_limit_ms(options.time_limit_ms),
        single(server),
        log(options.checkpoint_path) {}
  Run(const Run&) = delete;  // the cost service's budget holds its address
  Run& operator=(const Run&) = delete;
  ~Run();

  double NowMs() const { return clock->NowMs(); }
  bool DeadlineReached() const {
    return time_limit_ms.has_value() && NowMs() - t_start > *time_limit_ms;
  }
  // Runs `fn`, adding its time to the parallel phases' summed work.
  void Timed(const std::function<void()>& fn) {
    const double t0 = NowMs();
    fn();
    parallel_work_ms.fetch_add(NowMs() - t0);
  }

  // Fills the report's costing summary: what-if calls, cache hits, derived
  // answers, retries, degraded pricings (flagging each affected statement,
  // so `report->statements` must already hold one entry per statement),
  // and the shard fan-out.
  void Summarize(Report* report) const;

  server::Server* tuning_server;
  const workload::Workload& workload;  // as tuned (compressed)
  // One clock for every duration of the call (phases, pricing, deadlines):
  // exported timings are comparable, and zero under a test's FakeClock.
  const Clock* clock;
  double t_start;
  std::optional<double> time_limit_ms;
  MetricsRegistry* metrics = nullptr;
  int num_threads = 1;
  int shard_count = 1;
  bool socket_transport = false;
  // One thread fewer than requested: ParallelFor lets the calling thread
  // participate, so num_threads == 1 means no pool at all and every fan-out
  // degenerates to the exact serial code path.
  std::unique_ptr<ThreadPool> workers;
  // injectors[i] is shard i's fault injector, null when it has none; entry
  // 0 is the tuning server's.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<server::Server>> replicas;  // shards 1..N-1
  SingleServerBackend single;
  std::unique_ptr<ShardRouter> router;  // null when shards == 1
  std::unique_ptr<AdmittedBackend> admitted;
  std::unique_ptr<CostService> costs;

  // ---- Tune's progress: everything a checkpoint record carries, written
  // as it stands at every phase boundary.
  SessionCheckpoint progress;
  CheckpointLog log;
  bool cache_cleared = false;  // by a statistics request since the last write
  catalog::Configuration base;
  TuningResult result;
  // Summed per-task time of the parallel phases vs. their elapsed time.
  std::atomic<double> parallel_work_ms{0};
};

TuningSession::Run::~Run() {
  // Outermost layer first: once the cost service, the admission wrapper,
  // and the router (which closes its channels) are gone, nothing prices
  // any more. The replicas die next, before the injectors they consult.
  // The tuning server outlives the session, so it is detached from its
  // injector and from the session's registry before either can be freed;
  // otherwise it would keep pointers to both after the session ends.
  costs.reset();
  admitted.reset();
  router.reset();
  replicas.clear();
  if (!injectors.empty() && injectors[0] != nullptr) {
    tuning_server->set_fault_injector(nullptr);
  }
  if (metrics != nullptr) tuning_server->SetMetrics(nullptr);
}

void TuningSession::Run::Summarize(Report* report) const {
  report->whatif_calls = costs->whatif_calls();
  report->whatif_cache_hits = costs->cache_hits();
  report->derived_answers = costs->derived_answers();
  report->derivation_fallbacks = costs->derivation_fallbacks();
  report->whatif_calls_saved = costs->whatif_calls_saved();
  report->whatif_retries = costs->whatif_retries();
  report->degraded_calls = costs->degraded_calls();
  const auto histogram = costs->retry_histogram();
  report->retry_histogram.assign(histogram.begin(), histogram.end());
  // Degraded statements' cost columns are estimates of estimates.
  for (size_t i : costs->degraded_statements()) {
    if (i < report->statements.size()) report->statements[i].degraded = true;
  }
  report->shards = shard_count;
  if (router != nullptr) {
    report->shard_failovers = router->failovers();
    report->shard_slow_demotions = router->slow_demotions();
  }
}

Result<std::unique_ptr<TuningSession::Run>> TuningSession::NewRun(
    const workload::Workload& workload, double t_start) {
  server::Server* tuning_server = TuningServer();
  const optimizer::HardwareParams* simulate =
      test_ != nullptr ? &production_->hardware() : nullptr;
  const int shard_count = std::max(1, options_.shards);
  const bool socket_transport =
      options_.transport == TuningOptions::Transport::kSocket;
  FaultSpec server_faults;
  if (!options_.fault_spec.empty()) {
    auto spec = FaultSpec::Parse(options_.fault_spec);
    if (!spec.ok()) return spec.status();
    server_faults = *spec;
  }
  if (socket_transport) {
    // Everything the session would inject into an in-process fleet lives in
    // the worker processes now: fault injectors attach there (cost_server
    // --fault-spec), admission would have to gate there. Reject the knobs
    // that would otherwise silently do nothing.
    if (tenant_.admission != nullptr) {
      return Status::InvalidArgument(
          "socket transport cannot run under multi-tenant admission; "
          "admission gates the in-process what-if path, which socket "
          "workers bypass");
    }
    if (!options_.fault_spec.empty() || !options_.shard_fault_spec.empty()) {
      return Status::InvalidArgument(
          "fault specs attach in-process injectors, which the socket "
          "transport bypasses; pass --fault-spec to the cost_server "
          "worker processes instead");
    }
    if (options_.socket_endpoints.size() !=
        static_cast<size_t>(shard_count)) {
      return Status::InvalidArgument(StrFormat(
          "socket transport needs one endpoint per shard: %d shard(s) but "
          "%d endpoint(s)",
          shard_count, static_cast<int>(options_.socket_endpoints.size())));
    }
  }
  ShardFaultSpec shard_faults;
  if (!options_.shard_fault_spec.empty()) {
    auto parsed = ShardFaultSpec::Parse(options_.shard_fault_spec);
    if (!parsed.ok()) return parsed.status();
    shard_faults = std::move(parsed).value();
  }
  for (const auto& [shard_index, spec] : shard_faults.per_shard) {
    if (shard_index >= shard_count) {
      return Status::InvalidArgument(StrFormat(
          "shard fault spec targets shard %d but only %d shard(s) exist",
          shard_index, shard_count));
    }
    if (shard_index == 0 && spec.Enabled() && server_faults.Enabled()) {
      return Status::InvalidArgument(
          "shard fault spec targets shard 0 but a fault spec already "
          "attaches an injector to the tuning server; use one or the other");
    }
  }
  if (server_faults.Enabled()) shard_faults.per_shard[0] = server_faults;

  auto run = std::make_unique<Run>(tuning_server, workload, clock(), t_start,
                                   options_);
  run->metrics = obs_.metrics;
  run->num_threads = std::max(1, options_.ResolvedNumThreads());
  run->shard_count = shard_count;
  run->socket_transport = socket_transport;
  run->injectors.resize(static_cast<size_t>(shard_count));
  if (run->num_threads > 1) {
    run->workers = std::make_unique<ThreadPool>(run->num_threads - 1);
  }
  // The server (and through it the optimizer) profiles per-call counters
  // into the session's registry. Clones profile into the same registry:
  // each logical call is priced on exactly one shard, so counter totals
  // stay equal to the single-server run.
  if (obs_.metrics != nullptr) tuning_server->SetMetrics(obs_.metrics);
  std::vector<server::Server*> shard_servers = {tuning_server};
  for (int i = 1; i < shard_count && !socket_transport; ++i) {
    auto replica = tuning_server->Clone(
        StrFormat("%s-shard%d", tuning_server->name().c_str(), i));
    if (!replica.ok()) return replica.status();
    if (obs_.metrics != nullptr) (*replica)->SetMetrics(obs_.metrics);
    shard_servers.push_back(replica->get());
    run->replicas.push_back(std::move(replica).value());
  }
  for (const auto& [shard_index, spec] : shard_faults.per_shard) {
    if (!spec.Enabled()) continue;
    auto& injector = run->injectors[static_cast<size_t>(shard_index)];
    injector = std::make_unique<FaultInjector>(spec);
    shard_servers[static_cast<size_t>(shard_index)]->set_fault_injector(
        injector.get());
  }

  ShardRouterOptions router_options;
  router_options.max_inflight_per_shard = std::max(4, 2 * run->num_threads);
  // Fail-slow isolation: the detector measures shard latency on the
  // session's observability clock, so a test's FakeClock sees every
  // latency as 0 and the detector stays byte-silent.
  router_options.slow_threshold = options_.shard_slow_threshold;
  router_options.clock = run->clock;
  router_options.metrics = obs_.metrics;
  std::vector<std::unique_ptr<rpc::ShardChannel>> channels;
  if (socket_transport) {
    // Every shard — including shard 0 — is a cost_server worker process;
    // the local tuning server keeps serving catalog access, degradation
    // estimates, and reports, but never prices a what-if call.
    if (options_.rpc_attempt_timeout_ms > 0) {
      router_options.attempt_timeout_ms = options_.rpc_attempt_timeout_ms;
    }
    rpc::SocketChannelOptions channel_options;
    channel_options.metrics = obs_.metrics;
    for (int i = 0; i < shard_count; ++i) {
      auto channel = rpc::SocketChannel::Connect(
          StrFormat("worker%d", i), options_.socket_endpoints[i],
          channel_options);
      if (!channel.ok()) return channel.status();
      channels.push_back(std::move(channel).value());
    }
  } else if (shard_count > 1) {
    for (server::Server* shard : shard_servers) {
      channels.push_back(std::make_unique<rpc::InprocChannel>(shard));
    }
  }
  CostBackend* backend = &run->single;
  if (!channels.empty()) {
    run->router = std::make_unique<ShardRouter>(
        tuning_server, std::move(channels), router_options);
    backend = run->router.get();
  }
  // Multi-tenant admission: every real what-if call first passes the
  // fleet's shared admission controller.
  if (tenant_.admission != nullptr) {
    run->admitted = std::make_unique<AdmittedBackend>(
        backend, tenant_.admission, tenant_.tenant_id);
    backend = run->admitted.get();
  }

  // The cost service retries transient what-if failures under the session's
  // remaining time budget and degrades persistent ones.
  CostService::Config cost_config;
  cost_config.retry = options_.retry;
  cost_config.degrade_on_failure = options_.degrade_on_failure;
  cost_config.metrics = obs_.metrics;
  cost_config.clock = run->clock;
  cost_config.derived.enabled = options_.derived_costing;
  cost_config.derived.exact = options_.exact_costing;
  cost_config.derived.error_bound_pct = options_.derivation_error_bound_pct;
  if (run->time_limit_ms.has_value()) {
    cost_config.remaining_ms = [r = run.get()]() {
      return *r->time_limit_ms - (r->NowMs() - r->t_start);
    };
  }
  run->costs = std::make_unique<CostService>(
      backend, simulate, &workload, std::move(cost_config), cache_);
  return run;
}

TuningSession::TuningSession(server::Server* production,
                             TuningOptions options)
    : production_(production), options_(std::move(options)) {}

Status TuningSession::UseTestServer(server::Server* test) {
  if (test == nullptr) {
    test_ = nullptr;
    return Status::Ok();
  }
  if (test->catalog().databases().empty()) {
    return Status::FailedPrecondition(
        "test server has no databases; create it with "
        "Server::FromMetadataScript(production->ScriptMetadata(), ...)");
  }
  // Sanity: every production database must exist on the test server.
  for (const auto& [name, db] : production_->catalog().databases()) {
    if (test->catalog().FindDatabase(name) == nullptr) {
      return Status::FailedPrecondition(
          StrFormat("test server lacks database '%s'", name.c_str()));
    }
  }
  test_ = test;
  return Status::Ok();
}

Status TuningSession::CreateAndImportStats(
    const std::vector<stats::StatsKey>& keys, ShardRouter* fleet,
    SessionCheckpoint* progress) {
  for (const auto& key : keys) {
    if (production_->HasStatistics(key)) {
      // Already on production: only import (free) when in test mode.
    } else {
      auto duration = production_->CreateStatistics(key);
      if (!duration.ok()) {
        // Tables without data/specs cannot produce statistics; skip — the
        // optimizer falls back to heuristics for them. Socket workers run
        // on the same data, so their builds fail identically and the fleet
        // stays in lockstep without a mirror call.
        continue;
      }
      if (progress != nullptr) {
        progress->stats_created += 1;
        progress->stats_creation_ms += *duration;
        progress->created_stats.push_back(key);
      }
    }
    const stats::Statistics* s = production_->stats_manager().Find(key);
    if (s == nullptr) continue;
    if (test_ != nullptr && !test_->HasStatistics(key)) {
      test_->ImportStatistics(*s);
    }
    // Shard replicas mirror the tuning server's statistics: every shard
    // must price with identical information or the backend's bit-identity
    // contract breaks.
    if (fleet != nullptr) DTA_RETURN_IF_ERROR(fleet->MirrorStatistics(*s));
  }
  return Status::Ok();
}

Result<catalog::Configuration> TuningSession::BaseConfiguration() const {
  catalog::Configuration base;
  const catalog::Configuration& current =
      production_->current_configuration();
  for (size_t i = 0; i < current.indexes().size(); ++i) {
    const catalog::IndexDef& ix = current.indexes()[i];
    if (ix.constraint_enforcing || options_.keep_existing_structures) {
      DTA_RETURN_IF_ERROR(base.AddIndex(ix, current.index_names()[i]));
    }
  }
  if (options_.keep_existing_structures) {
    for (size_t i = 0; i < current.views().size(); ++i) {
      DTA_RETURN_IF_ERROR(
          base.AddView(current.views()[i], current.view_names()[i]));
    }
    for (const auto& [table, scheme] : current.table_partitioning()) {
      base.SetTablePartitioning(table, scheme);
    }
  }
  // User-specified configuration (paper §6.2) is honored verbatim.
  const catalog::Configuration& user = options_.user_specified;
  for (size_t i = 0; i < user.indexes().size(); ++i) {
    Status s = base.AddIndex(user.indexes()[i], user.index_names()[i]);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  for (size_t i = 0; i < user.views().size(); ++i) {
    Status s = base.AddView(user.views()[i], user.view_names()[i]);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
  }
  for (const auto& [table, scheme] : user.table_partitioning()) {
    base.SetTablePartitioning(table, scheme);
  }
  return base;
}

Result<TuningResult> TuningSession::Tune(const workload::Workload& input) {
  DTA_TRACE_PHASE(obs_.tracer, "tune");
  const double t_start = clock()->NowMs();

  // ---- Workload compression (§5.1). Without it the session tunes its
  // input as given.
  workload::Workload compressed;
  workload::CompressionStats compression;
  {
    DTA_TRACE_PHASE(obs_.tracer, "compression");
    if (options_.workload_compression) {
      compressed = workload::CompressWorkload(input, {}, &compression);
    } else {
      compression.original_statements = input.size();
      compression.compressed_statements = input.size();
      compression.templates = input.DistinctTemplates();
    }
  }
  const workload::Workload& tuned =
      options_.workload_compression ? compressed : input;
  if (tuned.empty()) return Status::InvalidArgument("workload is empty");

  // ---- The pipeline: one path over one progress record, which a resumed
  // run loads where its checkpoint log stops.
  auto run = NewRun(tuned, t_start);
  if (!run.ok()) return run.status();
  Run* r = run->get();
  r->result.events_total = input.size();
  r->result.compression = compression;
  DTA_RETURN_IF_ERROR(Start(r));
  DTA_RETURN_IF_ERROR(PriceCurrentCosts(r));
  DTA_RETURN_IF_ERROR(BuildCandidatePool(r));
  DTA_RETURN_IF_ERROR(Enumerate(r));
  DTA_RETURN_IF_ERROR(Finish(r));
  return std::move(r->result);
}

Status TuningSession::Start(Run* run) {
  SessionCheckpoint& progress = run->progress;
  progress.workload_fingerprint = WorkloadFingerprint(run->workload);
  progress.options_fingerprint = OptionsFingerprint(options_);
  if (!options_.resume_path.empty()) {
    auto loaded =
        LoadCheckpoint(options_.resume_path, run->tuning_server->catalog());
    if (!loaded.ok()) return loaded.status();
    if (loaded->workload_fingerprint != progress.workload_fingerprint ||
        loaded->options_fingerprint != progress.options_fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint was written for a different workload or different "
          "tuning options; refusing to resume");
    }
    if (loaded->current_costs.size() != run->workload.size()) {
      return Status::FailedPrecondition(
          "checkpoint current-cost vector does not match the workload");
    }
    progress = std::move(loaded).value();
    run->result.resumed = true;
  }
  // Records carry the topology of the run that writes them.
  progress.shards = run->shard_count;
  progress.transport = run->socket_transport ? "socket" : "inproc";

  // Re-create the state's statistics (deterministic in the data, and
  // already counted) BEFORE restoring its cost cache: its costs were priced
  // under them, and with them present no statistics request below creates
  // one, so none clears the restored cache.
  DTA_RETURN_IF_ERROR(CreateAndImportStats(progress.created_stats,
                                           run->router.get(), nullptr));
  for (const CostLine& line : progress.cache) {
    run->costs->cache().Restore(line.id, line.fingerprint, line.entry);
  }
  progress.cache = {};  // the cost cache holds them now
  run->costs->SeedMissingStats(progress.missing_stats);
  run->costs->SeedDegradedStatements(progress.degraded_statements);

  auto base = BaseConfiguration();
  if (!base.ok()) return base.status();
  run->base = std::move(base).value();
  return Status::Ok();
}

Status TuningSession::WriteCheckpoint(Run* run) {
  if (options_.checkpoint_path.empty()) return Status::Ok();
  DTA_TRACE_PHASE(obs_.tracer, "checkpoint");
  const double t_ckpt = run->NowMs();
  // The cost service keeps these two sets while fanned-out pricing adds to
  // them; a write sees them at a phase boundary, where nothing prices.
  run->progress.missing_stats = run->costs->missing_stats();
  run->progress.degraded_statements = run->costs->degraded_statements();
  CostCache* cache = &run->costs->cache();
  DTA_RETURN_IF_ERROR(run->log.Write(
      [&] { return EncodeSessionRecord(run->progress, cache, true, false); },
      [&] {
        return EncodeSessionRecord(run->progress, cache, false,
                                   run->cache_cleared);
      }));
  run->cache_cleared = false;
  run->result.checkpoint_ms += run->NowMs() - t_ckpt;
  if (checkpoint_probe_ != nullptr) {
    return checkpoint_probe_(static_cast<int>(run->log.writes()));
  }
  return Status::Ok();
}

Status TuningSession::PriceCurrentCosts(Run* run) {
  if (run->progress.phase >= kCheckpointCurrentCosts) return Status::Ok();
  // Missing statistics are recorded but NOT created yet: they join the
  // candidate-key statistics in one unified request, so reduced statistics
  // creation (§5.2) can cover a requested singleton with a wider candidate
  // statistic instead of creating both. Statements are priced
  // independently, so the pass fans out across the pool; results land in
  // their own slots and errors are surfaced in statement order.
  DTA_TRACE_PHASE(obs_.tracer, "current_cost");
  const double t_phase = run->NowMs();
  const catalog::Configuration& current =
      production_->current_configuration();
  std::vector<double>& current_costs = run->progress.current_costs;
  current_costs.assign(run->workload.size(), 0.0);
  std::vector<Status> statuses(run->workload.size());
  // The deadline doubles as the cancel predicate: workers stop claiming
  // statements once the time budget is spent.
  ParallelFor(
      run->workers.get(), run->workload.size(),
      [&](size_t i) {
        run->Timed([&] {
          auto c = run->costs->StatementCost(i, current);
          if (!c.ok()) {
            statuses[i] = c.status();
            return;
          }
          current_costs[i] = *c;
        });
      },
      [run] { return run->DeadlineReached(); });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  if (run->DeadlineReached()) run->result.hit_time_limit = true;
  run->result.parallel_wall_ms += run->NowMs() - t_phase;
  run->progress.phase = kCheckpointCurrentCosts;
  return WriteCheckpoint(run);
}

Status TuningSession::BuildCandidatePool(Run* run) {
  if (run->progress.phase >= kCheckpointPoolReady) return Status::Ok();
  // Column groups -> generation -> reduced stats -> per-statement selection
  // -> existing structures -> merging -> quarantine.
  SessionCheckpoint& progress = run->progress;
  TuningResult& result = run->result;
  CostService& costs = *run->costs;
  const workload::Workload& tuned = run->workload;
  server::Server* tuning_server = run->tuning_server;
  auto deadline_reached = [run] { return run->DeadlineReached(); };

  // ---- Column-group restriction (§2.2).
  auto groups = [&] {
    DTA_TRACE_PHASE(obs_.tracer, "column_groups");
    return ComputeInterestingColumnGroups(
        tuned, progress.current_costs, tuning_server->catalog(),
        options_.column_group_cost_fraction, options_.max_column_group_size);
  }();
  if (!groups.ok()) return groups.status();

  // ---- Candidate generation.
  StatsFetcher fetcher = [this, run](const stats::StatsKey& key)
      -> Result<const stats::Statistics*> {
    server::Server* ts = run->tuning_server;
    if (const stats::Statistics* s = ts->stats_manager().Find(key);
        s != nullptr) {
      return s;
    }
    // A statistic built on demand also counts as requested.
    const size_t created_before = run->progress.stats_created;
    DTA_RETURN_IF_ERROR(
        CreateAndImportStats({key}, run->router.get(), &run->progress));
    run->progress.stats_requested +=
        run->progress.stats_created - created_before;
    const stats::Statistics* s = ts->stats_manager().Find(key);
    if (s == nullptr) {
      return Status::NotFound("no statistics for " + key.CanonicalString());
    }
    return s;
  };

  // A statistics request (§5.2): planned reduced or naive, created on
  // production and mirrored to the fleet; cached costs priced without the
  // new statistics are dropped — unless every build failed (a table with
  // neither data nor specs, as on a metadata-only server).
  auto request_stats = [&](const std::set<stats::StatsKey>& keys) -> Status {
    StatsCreationPlan plan;
    if (options_.reduced_statistics) {
      plan = PlanReducedStatistics(keys, production_->ExportStatistics());
    } else {
      for (const auto& key : keys) {
        if (!production_->HasStatistics(key)) plan.to_create.push_back(key);
      }
      plan.naive_count = keys.size();
    }
    progress.stats_requested += plan.naive_count;
    const size_t created_before = progress.stats_created;
    DTA_RETURN_IF_ERROR(
        CreateAndImportStats(plan.to_create, run->router.get(), &progress));
    if (progress.stats_created != created_before) {
      costs.ClearCache();
      run->cache_cleared = true;
    }
    return Status::Ok();
  };

  std::vector<std::vector<Candidate>> per_statement(tuned.size());
  std::map<std::string, Candidate> pool_by_name;
  std::set<stats::StatsKey> requested_stats;
  {
    DTA_TRACE_PHASE(obs_.tracer, "candidate_generation");
    for (size_t i = 0; i < tuned.size(); ++i) {
      if (deadline_reached()) {
        result.hit_time_limit = true;
        break;
      }
      auto cands = GenerateCandidatesForStatement(
          tuned.statements()[i].stmt, tuning_server, *groups, options_,
          fetcher, tuned.statements()[i].weight);
      if (!cands.ok()) return cands.status();
      for (const Candidate& c : *cands) {
        if (c.kind == Candidate::Kind::kIndex &&
            !c.index.key_columns.empty()) {
          requested_stats.insert(stats::StatsKey(
              c.index.database, c.index.table, c.index.key_columns));
        }
      }
      per_statement[i] = std::move(cands).value();
    }
  }

  // ---- Reduced statistics creation (§5.2): one unified request covering
  // the optimizer's missing statistics and the candidate index keys.
  {
    DTA_TRACE_PHASE(obs_.tracer, "reduced_stats");
    for (const auto& key : costs.missing_stats()) {
      requested_stats.insert(key);
    }
    costs.ClearMissingStats();
    // Fill database qualifiers by resolving against the catalog.
    std::set<stats::StatsKey> resolved;
    for (const auto& key : requested_stats) {
      if (!key.database.empty()) {
        resolved.insert(key);
        continue;
      }
      auto r = tuning_server->catalog().ResolveTable("", key.table);
      if (r.ok()) {
        resolved.insert(
            stats::StatsKey(r->database->name(), key.table, key.columns));
      }
    }
    DTA_RETURN_IF_ERROR(request_stats(resolved));
  }

  // ---- Candidate selection: per-statement Greedy(m,k) (§2.2). Each
  // statement's search is independent (it only prices that statement), so
  // statements fan out across the pool, and each search prices a round's
  // subsets as one batch of lookups; the pool/benefit merge below runs
  // serially in statement order, keeping the outcome identical to the
  // serial loop.
  std::map<std::string, double> candidate_benefit;  // weighted savings
  {
    DTA_TRACE_PHASE(obs_.tracer, "candidate_selection");
    struct Selection {
      Status status;
      GreedyResult picked;
      double empty_cost = 0;
      bool ran = false;
    };
    const double t_phase = run->NowMs();
    std::vector<Selection> selections(tuned.size());
    ParallelFor(
        run->workers.get(), tuned.size(),
        [&](size_t i) {
          if (per_statement[i].empty()) return;
          if (deadline_reached()) return;
          run->Timed([&] {
            const std::vector<Candidate>& cands = per_statement[i];
            // Builds every feasible subset's configuration, then prices
            // them all in one batch: its lookups claim cold pairs in the
            // order a one-at-a-time loop would.
            auto evaluate =
                [&, i](const std::vector<std::vector<size_t>>& subsets) {
                  std::vector<Evaluation> out(subsets.size());
                  if (deadline_reached()) return out;
                  std::vector<catalog::Configuration> configs;
                  configs.reserve(subsets.size());  // lookups point in
                  std::vector<CostService::Lookup> lookups;
                  std::vector<size_t> subset_of;
                  for (size_t s = 0; s < subsets.size(); ++s) {
                    out[s].ran = true;
                    std::vector<const Candidate*> chosen;
                    for (size_t ci : subsets[s]) chosen.push_back(&cands[ci]);
                    auto config = BuildConfiguration(run->base, chosen, false);
                    if (!config.ok()) continue;  // infeasible
                    configs.push_back(std::move(config).value());
                    lookups.push_back({i, &configs.back()});
                    subset_of.push_back(s);
                  }
                  const auto priced = costs.StatementCosts(lookups);
                  for (size_t l = 0; l < priced.size(); ++l) {
                    Evaluation& e = out[subset_of[l]];
                    e.ok = priced[l].ok();
                    if (e.ok) e.cost = *priced[l];
                  }
                  return out;
                };
            auto empty_cost = costs.StatementCost(i, run->base);
            if (!empty_cost.ok()) {
              selections[i].status = empty_cost.status();
              return;
            }
            selections[i].picked = GreedySearch(
                cands.size(), options_.candidate_selection_m,
                options_.candidate_selection_k, *empty_cost, evaluate,
                deadline_reached);
            selections[i].empty_cost = *empty_cost;
            selections[i].ran = true;
          });
        },
        deadline_reached);
    result.parallel_wall_ms += run->NowMs() - t_phase;
    for (size_t i = 0; i < tuned.size(); ++i) {
      if (per_statement[i].empty()) continue;
      if (!selections[i].status.ok()) return selections[i].status;
      if (!selections[i].ran) {
        result.hit_time_limit = true;
        continue;
      }
      const std::vector<Candidate>& cands = per_statement[i];
      progress.candidates_generated += cands.size();
      const GreedyResult& picked = selections[i].picked;
      double weight = tuned.statements()[i].weight;
      double saved =
          std::max(0.0, selections[i].empty_cost - picked.cost) * weight;
      for (size_t ci : picked.chosen) {
        pool_by_name.emplace(cands[ci].name, cands[ci]);
        candidate_benefit[cands[ci].name] +=
            saved / static_cast<double>(picked.chosen.size());
      }
    }
  }

  std::vector<Candidate>& pool = progress.pool;
  pool.reserve(pool_by_name.size());
  for (auto& [name, cand] : pool_by_name) pool.push_back(cand);
  // Bound the pool entering enumeration: keep the best candidates by
  // accumulated per-query benefit.
  if (pool.size() > static_cast<size_t>(options_.max_enumeration_candidates)) {
    std::sort(pool.begin(), pool.end(),
              [&](const Candidate& a, const Candidate& b) {
                return candidate_benefit[a.name] > candidate_benefit[b.name];
              });
    pool.resize(static_cast<size_t>(options_.max_enumeration_candidates));
  }

  // ---- Existing non-constraint structures re-justify themselves: they
  // enter the pool as ordinary candidates (past the benefit cap, so they
  // are always considered). Whatever enumeration does not pick is an
  // implicit DROP recommendation.
  if (!options_.keep_existing_structures) {
    const catalog::Configuration& cur = production_->current_configuration();
    for (const auto& ix : cur.indexes()) {
      if (ix.constraint_enforcing) continue;
      Candidate cand = Candidate::MakeIndex(ix, tuning_server->catalog());
      if (pool_by_name.emplace(cand.name, cand).second) {
        pool.push_back(std::move(cand));
      }
    }
    for (const auto& v : cur.views()) {
      Candidate cand = Candidate::MakeView(v);
      if (pool_by_name.emplace(cand.name, cand).second) {
        pool.push_back(std::move(cand));
      }
    }
    for (const auto& [table, scheme] : cur.table_partitioning()) {
      auto resolved = tuning_server->catalog().ResolveTable("", table);
      Candidate cand = Candidate::MakePartitioning(
          resolved.ok() ? resolved->database->name() : "", table, scheme);
      if (pool_by_name.emplace(cand.name, cand).second) {
        pool.push_back(std::move(cand));
      }
    }
  }

  // ---- Merging (§2.2).
  if (options_.enable_merging && !deadline_reached()) {
    DTA_TRACE_PHASE(obs_.tracer, "merging");
    std::vector<Candidate> merged = MergeCandidatePool(pool, tuning_server);
    std::set<stats::StatsKey> merged_stats;
    for (const Candidate& c : merged) {
      if (c.kind == Candidate::Kind::kIndex) {
        auto r = tuning_server->catalog().ResolveTable(c.index.database,
                                                       c.index.table);
        if (r.ok()) {
          merged_stats.insert(stats::StatsKey(
              r->database->name(), c.index.table, c.index.key_columns));
        }
      }
      pool.push_back(c);
    }
    DTA_RETURN_IF_ERROR(request_stats(merged_stats));
  }

  // ---- DBA feedback quarantine (semi-automatic mode): rejected
  // structures leave the pool before enumeration, merged variants
  // included, so they cannot re-enter the recommendation until their
  // quarantine horizon expires. Applied before the pool checkpoint so a
  // resumed session (same options fingerprint, hence same quarantine set)
  // restores the already-filtered pool.
  if (!options_.quarantined_structures.empty()) {
    const std::set<std::string> quarantined(
        options_.quarantined_structures.begin(),
        options_.quarantined_structures.end());
    const size_t before = pool.size();
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&](const Candidate& c) {
                                return quarantined.count(c.name) != 0;
                              }),
               pool.end());
    progress.quarantined_candidates = before - pool.size();
  }

  progress.phase = kCheckpointPoolReady;
  return WriteCheckpoint(run);
}

Status TuningSession::Enumerate(Run* run) {
  // The greedy rounds inside fan their per-candidate evaluations out across
  // the pool. The search starts from a copy of the progress's greedy state
  // (none before the first snapshot), which the snapshots it hands back
  // after the exhaustive phase and every round overwrite, one record each.
  const EnumerationResume start = run->progress.enumeration;
  // Checkpoint writes from inside the search report failures (and probe
  // aborts) through this sticky status; the search is stopped via its
  // should_stop predicate and the status surfaces after it returns.
  Status checkpoint_status;
  std::function<void(const EnumerationResume&)> on_progress;
  if (!options_.checkpoint_path.empty()) {
    on_progress = [&](const EnumerationResume& snapshot) {
      run->progress.phase = kCheckpointEnumeration;
      run->progress.enumeration = snapshot;
      Status s = WriteCheckpoint(run);
      if (!s.ok() && checkpoint_status.ok()) checkpoint_status = s;
    };
  }
  auto stop = [&] { return !checkpoint_status.ok() || run->DeadlineReached(); };

  const double t_enum = run->NowMs();
  auto enumerated = [&] {
    DTA_TRACE_PHASE(obs_.tracer, "enumeration");
    return EnumerateConfiguration(run->costs.get(), run->progress.pool,
                                  run->base, options_, stop,
                                  run->workers.get(), &start, on_progress);
  }();
  if (!enumerated.ok()) return enumerated.status();
  if (!checkpoint_status.ok()) return checkpoint_status;
  TuningResult& result = run->result;
  result.parallel_wall_ms += run->NowMs() - t_enum;
  run->parallel_work_ms.fetch_add(enumerated->eval_work_ms);
  if (run->DeadlineReached()) result.hit_time_limit = true;
  result.enumeration_evaluations = enumerated->evaluations;
  result.recommendation = std::move(enumerated->configuration);
  return Status::Ok();
}

Status TuningSession::Finish(Run* run) {
  DTA_TRACE_PHASE(obs_.tracer, "report");
  CostService& costs = *run->costs;
  TuningResult& result = run->result;
  const workload::Workload& tuned = run->workload;
  const catalog::Configuration& current =
      production_->current_configuration();
  auto cur_total = costs.WorkloadCost(current);
  if (!cur_total.ok()) return cur_total.status();
  auto rec_total = costs.WorkloadCost(result.recommendation);
  if (!rec_total.ok()) return rec_total.status();
  result.current_cost = *cur_total;
  result.recommended_cost = *rec_total;
  result.events_tuned = tuned.size();
  result.threads_used = run->num_threads;
  result.seeded_cache_entries = costs.seeded_entries();
  // The counters the progress carries across a resume.
  result.stats_requested = run->progress.stats_requested;
  result.stats_created = run->progress.stats_created;
  result.stats_creation_ms = run->progress.stats_creation_ms;
  result.candidates_generated = run->progress.candidates_generated;
  result.quarantined_candidates = run->progress.quarantined_candidates;
  result.created_stats = run->progress.created_stats;
  // The costing summary counts what the search and the totals above priced;
  // the per-statement rows below only re-read the cache.
  result.report.statements.resize(tuned.size());
  run->Summarize(&result.report);
  result.whatif_calls = result.report.whatif_calls;
  result.whatif_cache_hits = result.report.whatif_cache_hits;
  result.whatif_dedup_waits = costs.dedup_waits();
  result.derived_answers = result.report.derived_answers;
  result.derivation_fallbacks = result.report.derivation_fallbacks;
  result.whatif_calls_saved = result.report.whatif_calls_saved;
  result.derivation_errors_exceeded = costs.derivation_errors_exceeded();
  result.checkpoint_writes = run->log.writes();
  result.checkpoint_bytes = run->log.bytes();
  result.parallel_work_ms = run->parallel_work_ms.load();

  // Fault-tolerance accounting.
  result.whatif_retries = result.report.whatif_retries;
  result.degraded_calls = result.report.degraded_calls;
  for (const auto& injector : run->injectors) {
    if (injector == nullptr) continue;
    result.injected_transient_faults += injector->transient_failures();
    result.injected_permanent_faults += injector->permanent_failures();
    result.injected_outage_faults += injector->outage_failures();
  }

  // Distributed costing accounting.
  result.shards_used = run->shard_count;
  if (const ShardRouter* router = run->router.get()) {
    result.shard_successes = router->successes();
    result.shard_failovers = router->failovers();
    result.shard_exhausted = router->exhausted();
    result.shard_slow_demotions = router->slow_demotions();
    for (size_t i = 0; i < router->shard_count(); ++i) {
      result.shard_calls.push_back(router->calls(i));
      result.shard_queue_peak =
          std::max(result.shard_queue_peak, router->queue_peak(i));
    }
  }

  result.report.current_total = *cur_total;
  result.report.recommended_total = *rec_total;
  result.report.threads = run->num_threads;
  result.report.parallel_speedup = result.ParallelSpeedup();
  result.report.checkpoint_writes = result.checkpoint_writes;
  result.report.checkpoint_ms = result.checkpoint_ms;
  if (obs_.tracer != nullptr) {
    // Completed direct children of the session's "tune" span, in pipeline
    // order ("tune" itself and the in-flight "report" span are still open).
    for (const auto& sv : obs_.tracer->Spans()) {
      if (sv.depth == 1 && sv.duration_ms >= 0) {
        result.report.phase_times.emplace_back(sv.name, sv.duration_ms);
      }
    }
  }
  for (size_t i = 0; i < tuned.size(); ++i) {
    StatementReport& sr = result.report.statements[i];
    sr.sql = tuned.statements()[i].text;
    sr.weight = tuned.statements()[i].weight;
    auto cc = costs.StatementCost(i, current);
    auto rc = costs.StatementCost(i, result.recommendation);
    sr.current_cost = cc.ok() ? *cc : 0;
    sr.recommended_cost = rc.ok() ? *rc : 0;
    // Structure usage from the recommended plan, on the hardware every
    // what-if call of the session modelled.
    const auto& stmt = tuned.statements()[i].stmt;
    if (stmt.is_select()) {
      auto plan = run->tuning_server->WhatIfPlan(
          stmt.select(), result.recommendation,
          test_ != nullptr ? &production_->hardware() : nullptr);
      if (plan.ok()) {
        std::vector<std::string> used;
        plan->root->CollectUsedStructures(&used);
        std::sort(used.begin(), used.end());
        used.erase(std::unique(used.begin(), used.end()), used.end());
        for (const auto& name : used) {
          result.report.structure_usage[name] += 1;
        }
      }
    }
  }

  result.tuning_time_ms = run->NowMs() - run->t_start;

  // Session-level metrics. Counters here are thread-count invariant (the
  // searches they count are deterministic); the gauges are wall-clock
  // derived, hence zero — and byte-stable — under an injected FakeClock.
  if (obs_.metrics != nullptr) {
    obs_.metrics->GetCounter("enumeration.evaluations")
        ->Increment(result.enumeration_evaluations);
    obs_.metrics->GetCounter("candidates.generated")
        ->Increment(result.candidates_generated);
    obs_.metrics->GetCounter("checkpoint.writes")
        ->Increment(result.checkpoint_writes);
    obs_.metrics->GetGauge("session.checkpoint_ms")
        ->Set(result.checkpoint_ms);
    obs_.metrics->GetGauge("session.tuning_time_ms")
        ->Set(result.tuning_time_ms);
  }
  return Status::Ok();
}

Result<EvaluationResult> TuningSession::EvaluateConfiguration(
    const workload::Workload& workload,
    const catalog::Configuration& config) {
  DTA_TRACE_PHASE(obs_.tracer, "evaluate");
  auto run = NewRun(workload, clock()->NowMs());
  if (!run.ok()) return run.status();
  CostService& costs = *(*run)->costs;

  EvaluationResult out;
  const catalog::Configuration& current =
      production_->current_configuration();

  // Statements are priced independently; fan out, then reduce serially in
  // statement order (identical totals at any thread count).
  std::vector<double> current_costs(workload.size(), 0.0);
  std::vector<double> evaluated_costs(workload.size(), 0.0);
  std::vector<Status> statuses(workload.size());
  ParallelFor((*run)->workers.get(), workload.size(), [&](size_t i) {
    auto cc = costs.StatementCost(i, current);
    if (!cc.ok()) {
      statuses[i] = cc.status();
      return;
    }
    auto ec = costs.StatementCost(i, config);
    if (!ec.ok()) {
      statuses[i] = ec.status();
      return;
    }
    current_costs[i] = *cc;
    evaluated_costs[i] = *ec;
  });
  for (size_t i = 0; i < workload.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];
    double w = workload.statements()[i].weight;
    out.current_cost += current_costs[i] * w;
    out.evaluated_cost += evaluated_costs[i] * w;
    StatementReport sr;
    sr.sql = workload.statements()[i].text;
    sr.weight = w;
    sr.current_cost = current_costs[i];
    sr.recommended_cost = evaluated_costs[i];
    out.report.statements.push_back(std::move(sr));
  }
  out.report.current_total = out.current_cost;
  out.report.recommended_total = out.evaluated_cost;
  (*run)->Summarize(&out.report);
  return out;
}

}  // namespace dta::tuner
