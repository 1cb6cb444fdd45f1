#include "dta/tenant_driver.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace dta::tuner {

AdmissionController::AdmissionController(Options options)
    : options_(options) {
  options_.total_capacity = std::max(1, options_.total_capacity);
  options_.per_tenant_capacity = std::min(
      options_.total_capacity, std::max(1, options_.per_tenant_capacity));
}

int AdmissionController::RegisterTenant(const std::string& name,
                                        double weight) {
  MutexLock lock(mu_);
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->weight = weight > 0 ? weight : 1e-6;
  tenants_.push_back(std::move(tenant));
  return static_cast<int>(tenants_.size()) - 1;
}

bool AdmissionController::CanAdmit(int tenant) const {
  const Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  if (total_inflight_ >= options_.total_capacity) return false;
  if (t.inflight >= options_.per_tenant_capacity) return false;
  // Weighted-fair dispatch: yield to any *eligible* waiter further behind
  // in virtual time. A waiter pinned by its own per-tenant cap is not
  // eligible and cannot hold the door shut for everyone else.
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& other = *tenants_[i];
    if (static_cast<int>(i) == tenant || other.waiting == 0) continue;
    if (other.inflight >= options_.per_tenant_capacity) continue;
    if (other.vtime < t.vtime ||
        (other.vtime == t.vtime && static_cast<int>(i) < tenant)) {
      return false;
    }
  }
  return true;
}

void AdmissionController::Acquire(int tenant) {
  MutexLock lock(mu_);
  Tenant& t = *tenants_[static_cast<size_t>(tenant)];
  ++t.waiting;
  bool waited = false;
  while (!CanAdmit(tenant)) {
    waited = true;
    cv_.Wait(mu_);
  }
  --t.waiting;
  if (waited) ++waits_;
  ++t.inflight;
  ++total_inflight_;
  ++t.admitted;
  t.vtime = static_cast<double>(t.admitted) / t.weight;
  peak_inflight_ = std::max(peak_inflight_,
                            static_cast<size_t>(total_inflight_));
}

void AdmissionController::Release(int tenant) {
  MutexLock lock(mu_);
  --tenants_[static_cast<size_t>(tenant)]->inflight;
  --total_inflight_;
  // Broadcast, not signal: the freed slot's rightful taker is the min-vtime
  // waiter, and only a full re-check finds it.
  cv_.NotifyAll();
}

size_t AdmissionController::tenant_count() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

size_t AdmissionController::admitted(int tenant) const {
  MutexLock lock(mu_);
  return tenants_[static_cast<size_t>(tenant)]->admitted;
}

size_t AdmissionController::peak_inflight() const {
  MutexLock lock(mu_);
  return peak_inflight_;
}

size_t AdmissionController::waits() const {
  MutexLock lock(mu_);
  return waits_;
}

Status TenantDriver::ValidateTenants(
    const std::vector<TenantSpec>& tenants,
    const std::vector<server::Server*>& servers,
    bool require_workloads) const {
  if (tenants.empty()) {
    return Status::InvalidArgument("tenant driver needs at least one tenant");
  }
  if (servers.size() != tenants.size()) {
    return Status::InvalidArgument(StrFormat(
        "tenant driver got %zu tenants but %zu servers", tenants.size(),
        servers.size()));
  }
  for (size_t i = 0; i < tenants.size(); ++i) {
    if (require_workloads && tenants[i].workload == nullptr) {
      return Status::InvalidArgument(
          StrFormat("tenant '%s' has no workload", tenants[i].name.c_str()));
    }
    if (servers[i] == nullptr) {
      return Status::InvalidArgument(
          StrFormat("tenant '%s' has no server", tenants[i].name.c_str()));
    }
    for (size_t j = 0; j < i; ++j) {
      if (tenants[j].name == tenants[i].name) {
        return Status::InvalidArgument(StrFormat(
            "duplicate tenant name '%s'", tenants[i].name.c_str()));
      }
    }
  }
  return Status::Ok();
}

void TenantDriver::RunFleet(const std::vector<TenantSpec>& tenants,
                            const TenantBody& body) {
  AdmissionController admission(options_.admission);
  std::vector<TenantContext> contexts;
  // Each tenant profiles into a private registry; the shared registry sees
  // them only after the join below, merged serially in tenant order.
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  for (const TenantSpec& spec : tenants) {
    const int id = admission.RegisterTenant(spec.name, spec.weight);
    contexts.push_back({spec.name, &admission, id});
    registries.push_back(options_.metrics != nullptr
                             ? std::make_unique<MetricsRegistry>()
                             : nullptr);
  }

  std::vector<std::thread> threads;
  threads.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    threads.emplace_back([&, i] { body(i, contexts[i], registries[i].get()); });
  }
  for (std::thread& t : threads) t.join();

  if (options_.metrics != nullptr) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      options_.metrics->MergeFrom(*registries[i],
                                  "tenant." + tenants[i].name + ".");
    }
  }
  admission_waits_ = admission.waits();
  admission_peak_ = admission.peak_inflight();
}

Result<std::vector<TenantOutcome>> TenantDriver::Run(
    const std::vector<TenantSpec>& tenants,
    const std::vector<server::Server*>& servers) {
  Status valid = ValidateTenants(tenants, servers, /*require_workloads=*/true);
  if (!valid.ok()) return valid;

  std::vector<TenantOutcome> outcomes(tenants.size());
  RunFleet(tenants, [&](size_t i, const TenantContext& tenant,
                        MetricsRegistry* registry) {
    const TenantSpec& spec = tenants[i];
    outcomes[i].name = spec.name;
    TuningSession session(servers[i], spec.options);
    TuningSession::Observability obs;
    obs.metrics = registry;
    obs.clock = options_.clock;
    session.SetObservability(obs);
    session.SetTenantContext(tenant);
    auto result = session.Tune(*spec.workload);
    outcomes[i].status = result.status();
    if (result.ok()) outcomes[i].result = std::move(result).value();
  });
  return outcomes;
}

Result<std::vector<ContinuousTenantOutcome>> TenantDriver::RunContinuous(
    const std::vector<TenantSpec>& tenants,
    const std::vector<server::Server*>& servers,
    const stream::ContinuousTuner::Config& fleet_config,
    const std::string& capture, const std::string& feedback) {
  Status valid =
      ValidateTenants(tenants, servers, /*require_workloads=*/false);
  if (!valid.ok()) return valid;

  std::vector<ContinuousTenantOutcome> outcomes(tenants.size());
  RunFleet(tenants, [&](size_t i, const TenantContext& tenant,
                        MetricsRegistry* registry) {
    const TenantSpec& spec = tenants[i];
    outcomes[i].name = spec.name;
    stream::ContinuousTuner::Config config = fleet_config;
    config.server = servers[i];
    config.options = spec.options;
    if (!config.checkpoint_path.empty()) {
      config.checkpoint_path += ".tenant." + spec.name;
    }
    config.metrics = registry;
    config.tracer = nullptr;
    config.clock = options_.clock;
    config.tenant = tenant;
    config.delta_sink = nullptr;
    stream::ContinuousTuner service(std::move(config));
    Status status = service.Init();
    if (status.ok()) {
      service.ConsumeFeedback(feedback);
      status = service.Feed(capture);
    }
    if (status.ok()) status = service.Finish();
    outcomes[i].status = status;
    outcomes[i].delta_text = service.delta_text();
    outcomes[i].rounds = service.rounds();
    outcomes[i].resumed = service.resumed();
    outcomes[i].recommendation = service.recommendation();
  });
  return outcomes;
}

}  // namespace dta::tuner
