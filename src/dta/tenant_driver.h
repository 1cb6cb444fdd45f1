// Fleet-scale multi-tenant tuning driver.
//
// A tuning fleet serves many databases at once: each tenant brings its own
// workload, storage budget, and deadline, and the what-if costing capacity
// they draw on is shared. This driver runs N independent TuningSessions
// concurrently — one thread per tenant — with:
//
//   * per-tenant constraints: each TenantSpec carries its own TuningOptions
//     (storage_bytes, time_limit_ms, shards, fault spec, ...);
//   * admission control: an AdmissionController bounds the combined
//     concurrent what-if calls across tenants (and per tenant), dispatching
//     waiting tenants weighted-fair so one greedy workload cannot starve
//     the rest;
//   * per-tenant metrics namespaces: every session profiles into a private
//     MetricsRegistry, merged serially after the tenant threads join into
//     the shared registry under "tenant.<name>." — so the merged export is
//     deterministic whenever each tenant's is.
//
// Isolation contract: tenants share *capacity*, never *state*. Each tenant
// tunes its own server (its own catalog, statistics, cost caches, and —
// when sharded — its own replica fleet), so admission control only delays
// calls, never changes what any call returns. Recommendations for every
// tenant are therefore byte-identical at any (threads x shards x tenants)
// combination, with or without injected fail-slow faults: the same
// argument as the shard router's (routing and scheduling choose *when and
// where* work runs, never *what* it computes), applied one level up.

#ifndef DTA_DTA_TENANT_DRIVER_H_
#define DTA_DTA_TENANT_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dta/cost_service.h"
#include "dta/stream/continuous.h"
#include "dta/tuning_session.h"
#include "server/server.h"
#include "workload/workload.h"

namespace dta::tuner {

// Bounds concurrent what-if calls across tenants. Each tenant registers
// once; every real what-if call its session makes passes through
// Acquire/Release (via AdmittedBackend below). When more calls contend than
// `total_capacity` admits, waiting tenants are dispatched weighted-fair:
// the eligible waiter with the smallest virtual time (admitted calls /
// weight) goes first, so a tenant with twice the weight gets twice the
// calls under sustained contention — and a light tenant is never starved
// behind a heavy one.
class AdmissionController {
 public:
  struct Options {
    // Combined concurrent what-if calls across all tenants. Clamped to
    // >= 1.
    int total_capacity = 8;
    // Concurrent what-if calls any one tenant may hold. Clamped to
    // [1, total_capacity].
    int per_tenant_capacity = 4;
  };

  explicit AdmissionController(Options options);

  // Registers a tenant and returns its id (dense, registration order).
  // `weight` must be > 0 (clamped to a small positive floor otherwise).
  // Not thread-safe against Acquire/Release — register every tenant before
  // the sessions start.
  int RegisterTenant(const std::string& name, double weight) EXCLUDES(mu_);

  // Blocks until the tenant may start one what-if call. Fairness is decided
  // at admission time among the tenants *currently waiting*.
  void Acquire(int tenant) EXCLUDES(mu_);
  void Release(int tenant) EXCLUDES(mu_);

  const Options& options() const { return options_; }
  size_t tenant_count() const EXCLUDES(mu_);
  // Calls the tenant was admitted for (== its real backend calls).
  size_t admitted(int tenant) const EXCLUDES(mu_);
  // Peak combined in-flight calls (never exceeds total_capacity).
  size_t peak_inflight() const EXCLUDES(mu_);
  // Times an Acquire had to wait. Scheduling-dependent: surfaced for tests
  // and reports, never exported as a metric.
  size_t waits() const EXCLUDES(mu_);

 private:
  struct Tenant {
    std::string name;
    double weight = 1;
    int inflight GUARDED_BY(mu_) = 0;
    int waiting GUARDED_BY(mu_) = 0;
    size_t admitted GUARDED_BY(mu_) = 0;
    // Weighted-fair virtual time: admitted / weight. The eligible waiter
    // with the smallest vtime is admitted first (ties: lowest tenant id).
    double vtime GUARDED_BY(mu_) = 0;
  };

  // True when `tenant` may be admitted right now: capacity free, under its
  // per-tenant cap, and no eligible waiter is ahead of it in vtime order.
  bool CanAdmit(int tenant) const REQUIRES(mu_);

  Options options_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::unique_ptr<Tenant>> tenants_ GUARDED_BY(mu_);
  int total_inflight_ GUARDED_BY(mu_) = 0;
  size_t peak_inflight_ GUARDED_BY(mu_) = 0;
  size_t waits_ GUARDED_BY(mu_) = 0;
};

// CostBackend decorator: every call a tenant's CostService makes to the
// real backend (single server or shard router) first passes admission.
// Admission only delays the call — the inner backend still decides where it
// runs and what it returns — so wrapping preserves the backend determinism
// contract verbatim.
class AdmittedBackend : public CostBackend {
 public:
  AdmittedBackend(CostBackend* inner, AdmissionController* admission,
                  int tenant)
      : inner_(inner), admission_(admission), tenant_(tenant) {}

  // The admission is held from Submit until the call completes.
  void Submit(const WhatIfCall& call, Done done) override {
    admission_->Acquire(tenant_);
    inner_->Submit(call, [this, done = std::move(done)](
                             Result<server::Server::WhatIfResult> r) {
      admission_->Release(tenant_);
      done(std::move(r));
    });
  }

  server::Server* primary() const override { return inner_->primary(); }

 private:
  CostBackend* inner_;
  AdmissionController* admission_;
  int tenant_;
};

// One tenant's tuning job: its name (metrics namespace and report label),
// its workload, its options (constraints, topology, faults), and its
// admission weight.
struct TenantSpec {
  std::string name;
  const workload::Workload* workload = nullptr;
  TuningOptions options;
  double weight = 1;
};

struct TenantOutcome {
  std::string name;
  Status status;        // the session's terminal status
  TuningResult result;  // valid only when status is ok
};

struct TenantDriverOptions {
  AdmissionController::Options admission;
  // Shared registry the per-tenant namespaces merge into (optional).
  MetricsRegistry* metrics = nullptr;
  // Observability clock handed to every session (null = real monotonic
  // clock; tests inject a FakeClock for byte-stable exports).
  const Clock* clock = nullptr;
};

struct ContinuousTenantOutcome {
  std::string name;
  Status status;  // the service's terminal status
  std::string delta_text;
  uint64_t rounds = 0;
  bool resumed = false;
  catalog::Configuration recommendation;
};

// Runs every tenant's session concurrently and returns their outcomes in
// tenant order. `servers[i]` is tenant i's production server; tenants and
// servers must align. A tenant whose session fails reports its status in
// its outcome — one sick tenant never aborts the fleet.
class TenantDriver {
 public:
  explicit TenantDriver(TenantDriverOptions options)
      : options_(options) {}

  Result<std::vector<TenantOutcome>> Run(
      const std::vector<TenantSpec>& tenants,
      const std::vector<server::Server*>& servers);

  // Continuous-service mode: every tenant runs its own ContinuousTuner over
  // the same capture stream, against its own server, under the shared
  // admission controller — one thread per tenant, per-round parallelism
  // inside each tenant's sessions. Each tenant's service runs `config` with
  // its own server, options (TenantSpec::options), metrics namespace,
  // clock (options_.clock), tenant identity and, when
  // config.checkpoint_path is set, its own delta log at
  // "<checkpoint_path>.tenant.<name>"; the tracer and the delta sink stay
  // unset, as tenant threads must not share them. Every tenant consumes
  // `feedback` and then ingests `capture`. TenantSpec::workload is ignored
  // (the capture IS the workload). The isolation argument carries over
  // verbatim: each tenant's per-round delta text is byte-identical to a
  // standalone ContinuousTuner run at any (threads x shards x tenants)
  // combination.
  Result<std::vector<ContinuousTenantOutcome>> RunContinuous(
      const std::vector<TenantSpec>& tenants,
      const std::vector<server::Server*>& servers,
      const stream::ContinuousTuner::Config& config,
      const std::string& capture, const std::string& feedback);

  // Admission accounting of the last Run (valid until the next Run).
  size_t admission_waits() const { return admission_waits_; }
  size_t admission_peak_inflight() const { return admission_peak_; }

 private:
  // Shared validation for Run/RunContinuous.
  Status ValidateTenants(const std::vector<TenantSpec>& tenants,
                         const std::vector<server::Server*>& servers,
                         bool require_workloads) const;
  // The fleet scaffold Run and RunContinuous share: registers every tenant
  // with a fresh admission controller, runs `body` on one thread per
  // tenant with the tenant's identity and its private metrics registry
  // (null without options_.metrics), merges each registry into
  // options_.metrics under "tenant.<name>.", and records the admission
  // statistics.
  using TenantBody =
      std::function<void(size_t, const TenantContext&, MetricsRegistry*)>;
  void RunFleet(const std::vector<TenantSpec>& tenants, const TenantBody& body);

  TenantDriverOptions options_;
  size_t admission_waits_ = 0;
  size_t admission_peak_ = 0;
};

}  // namespace dta::tuner

#endif  // DTA_DTA_TENANT_DRIVER_H_
