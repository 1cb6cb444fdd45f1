#include "common/fault_injector.h"

#include "common/hash.h"
#include "common/strings.h"

namespace dta {

namespace {

// Uniform double in [0, 1) from a 64-bit hash (53 mantissa bits).
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

// Low-entropy keys still spread: the salted key goes through Mix64.
uint64_t Mix(uint64_t seed, uint64_t key, uint64_t salt) {
  return Mix64(HashCombine(HashCombine(seed, key), salt));
}

}  // namespace

Result<FaultSpec> FaultSpec::Parse(const std::string& text) {
  FaultSpec spec;
  for (const std::string& part : StrSplit(text, ',')) {
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec entry missing '=': " + part);
    }
    std::string key = part.substr(0, eq);
    std::string value = part.substr(eq + 1);
    bool ok = false;
    if (key == "seed") {
      ok = StrictUint64(value, &spec.seed);
    } else if (key == "transient") {
      ok = StrictDouble(value, &spec.transient_probability);
    } else if (key == "permanent") {
      ok = StrictDouble(value, &spec.permanent_probability);
    } else if (key == "latency_ms") {
      ok = StrictDouble(value, &spec.latency_ms);
    } else if (key == "down_after") {
      ok = StrictInt64(value, &spec.down_after);
    } else if (key == "burst_start") {
      ok = StrictUint64(value, &spec.burst_start);
    } else if (key == "burst_len") {
      ok = StrictUint64(value, &spec.burst_len);
    } else if (key == "slow_after") {
      ok = StrictInt64(value, &spec.slow_after);
    } else if (key == "slow_factor") {
      ok = StrictDouble(value, &spec.slow_factor);
    } else if (key == "table") {
      // Identifier characters only — a stray ',' or ':' already split
      // elsewhere, so this catches the rest (spaces, quotes, '=').
      ok = !value.empty();
      for (char c : value) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
              (c >= 'A' && c <= 'Z') || c == '_')) {
          ok = false;
        }
      }
      if (ok) spec.table = ToLower(value);
    } else {
      return Status::InvalidArgument("unknown fault spec key: " + key);
    }
    if (!ok) {
      return Status::InvalidArgument("bad fault spec value: " + part);
    }
  }
  if (spec.transient_probability < 0 || spec.transient_probability > 1 ||
      spec.permanent_probability < 0 || spec.permanent_probability > 1) {
    return Status::InvalidArgument("fault probabilities must lie in [0, 1]");
  }
  if (spec.latency_ms < 0) {
    return Status::InvalidArgument("latency_ms must be >= 0");
  }
  if (spec.down_after < -1) {
    return Status::InvalidArgument("down_after must be >= 0 (or -1 = off)");
  }
  if (spec.slow_after < -1) {
    return Status::InvalidArgument("slow_after must be >= 0 (or -1 = off)");
  }
  if (spec.slow_factor < 1) {
    return Status::InvalidArgument("slow_factor must be >= 1");
  }
  return spec;
}

std::string FaultSpec::ToString() const {
  std::string out =
      StrFormat("seed=%llu,transient=%g,permanent=%g,latency_ms=%g",
                static_cast<unsigned long long>(seed), transient_probability,
                permanent_probability, latency_ms);
  if (down_after >= 0) {
    out += StrFormat(",down_after=%lld", static_cast<long long>(down_after));
  }
  if (burst_len > 0) {
    out += StrFormat(",burst_start=%llu,burst_len=%llu",
                     static_cast<unsigned long long>(burst_start),
                     static_cast<unsigned long long>(burst_len));
  }
  if (slow_after >= 0) {
    out += StrFormat(",slow_after=%lld,slow_factor=%g",
                     static_cast<long long>(slow_after), slow_factor);
  }
  if (!table.empty()) {
    out += ",table=" + table;
  }
  return out;
}

FaultInjector::Outcome FaultInjector::Decide(uint64_t key) {
  static const std::set<std::string> kNoTables;
  return Decide(key, kNoTables);
}

FaultInjector::Outcome FaultInjector::Decide(
    uint64_t key, const std::set<std::string>& tables) {
  const bool matched =
      spec_.table.empty() || tables.count(spec_.table) > 0;
  Outcome out;
  int attempt;
  uint64_t ordinal;
  {
    MutexLock lock(mu_);
    ++calls_;
    // A filtered-out call passes through untouched: no latency, no failure,
    // and no ordinal advance — the window shapes describe the targeted
    // table's call stream, not the whole server's.
    if (!matched) return out;
    attempt = attempts_[key]++;
    ordinal = matched_calls_++;
  }
  out.latency_ms = spec_.latency_ms;
  // Fail-slow comes before the failure draws: a slow node is slow for every
  // response it still manages to produce, successful or not.
  if (spec_.slow_after >= 0 &&
      ordinal >= static_cast<uint64_t>(spec_.slow_after)) {
    out.latency_ms *= spec_.slow_factor;
    MutexLock lock(mu_);
    ++slow_;
  }
  // Outage shapes next: an unreachable server fails every call in the
  // window regardless of the per-key draws below.
  const bool node_down =
      spec_.down_after >= 0 &&
      ordinal >= static_cast<uint64_t>(spec_.down_after);
  const bool in_burst = spec_.burst_len > 0 && ordinal >= spec_.burst_start &&
                        ordinal < spec_.burst_start + spec_.burst_len;
  if (node_down || in_burst) {
    MutexLock lock(mu_);
    ++outage_;
    out.status = Status::Unavailable(
        node_down ? "injected node death: server unreachable"
                  : "injected burst outage: server unreachable");
    return out;
  }
  // Permanent failures are a property of the call key alone: every attempt
  // fails, so retrying is futile and the caller must degrade.
  if (spec_.permanent_probability > 0 &&
      HashToUnit(Mix(spec_.seed, key, /*salt=*/0x7065726dull)) <
          spec_.permanent_probability) {
    MutexLock lock(mu_);
    ++permanent_;
    out.status = Status::Internal("injected permanent optimizer failure");
    return out;
  }
  // Transient failures draw fresh per attempt, so a retry of the same call
  // deterministically succeeds once the attempt's hash clears the threshold.
  if (spec_.transient_probability > 0 &&
      HashToUnit(Mix(spec_.seed, key, 0x7472616eull + attempt)) <
          spec_.transient_probability) {
    MutexLock lock(mu_);
    ++transient_;
    out.status = Status::Unavailable("injected transient optimizer failure");
    return out;
  }
  return out;
}

size_t FaultInjector::calls() const {
  MutexLock lock(mu_);
  return calls_;
}

size_t FaultInjector::transient_failures() const {
  MutexLock lock(mu_);
  return transient_;
}

size_t FaultInjector::permanent_failures() const {
  MutexLock lock(mu_);
  return permanent_;
}

size_t FaultInjector::outage_failures() const {
  MutexLock lock(mu_);
  return outage_;
}

size_t FaultInjector::slow_calls() const {
  MutexLock lock(mu_);
  return slow_;
}

size_t FaultInjector::skipped_calls() const {
  MutexLock lock(mu_);
  return calls_ - matched_calls_;
}

}  // namespace dta
