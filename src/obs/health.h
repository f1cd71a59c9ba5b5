// HealthMonitor: per-tenant SLO evaluation over the metrics registry.
//
// Components feed per-tenant observations (boot latency, verify latency,
// buffer enqueues/drops, restarts) through the monitor, which mirrors them
// into `innet_tenant_*` registry instruments and, on EvaluateAll(), folds the
// deterministic histogram quantiles and counters into one of three health
// states per tenant:
//
//   ok        every SLO inside its degraded threshold
//   degraded  at least one SLO past its degraded threshold
//   violated  at least one SLO past its violated threshold
//
// The thresholds are fixed (health.cc): boot p99, verify p99, drop rate,
// restarts, anomaly flags and path-conformance violations. Transitions
// upward (toward violated) are immediate; transitions downward require three
// consecutive cleaner evaluations (hysteresis), so a tenant flapping around a
// threshold does not thrash the control loop.
// Orchestrator::Rebalance() drains the least-healthy tenants first and the
// VM watchdog restarts their crashed VMs first, closing the
// observability→control loop.
//
// Like the tracer, the monitor is disabled by default: per-tenant label
// cardinality is only paid by runs that opt in (innet_run, slo_report,
// tests). Every accessor is a pure function of the observations made, so
// health dumps are byte-identical across identical seeded runs.
#ifndef SRC_OBS_HEALTH_H_
#define SRC_OBS_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace innet::obs {

enum class HealthState { kOk = 0, kDegraded = 1, kViolated = 2 };

// Stable wire name ("ok", "degraded", "violated"), used in dumps and traces.
const char* HealthStateName(HealthState state);

class HealthMonitor {
 public:
  // Instruments are created in `registry` (the global registry by default,
  // so health metrics ride along in the ordinary dumps).
  explicit HealthMonitor(MetricsRegistry* registry = &MetricsRegistry::Global())
      : registry_(registry) {}
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void Enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // --- Observation feeds (no-ops while disabled or tenant empty) ------------
  void ObserveBootLatency(const std::string& tenant, double ms);
  void ObserveVerifyLatency(const std::string& tenant, double ms);
  void CountBuffered(const std::string& tenant, uint64_t packets = 1);
  void CountDrop(const std::string& tenant, uint64_t packets = 1);
  void CountRestart(const std::string& tenant);
  // Fed by the AnomalyDetector when a sustained deviation is attributed to a
  // tenant: anomaly pressure steers Rebalance()/watchdog priority like any
  // other SLO clause.
  void CountAnomaly(const std::string& tenant);
  // Fed by the IntCollector when an observed packet path fails attestation
  // against the tenant's verified path digest.
  void CountPathViolation(const std::string& tenant);

  // Re-evaluates every known tenant (in sorted order), applies hysteresis,
  // updates the innet_tenant_health_state gauge, and records a
  // health_transition trace event for each state change.
  void EvaluateAll();

  // Last evaluated state (kOk for unknown tenants or while disabled).
  HealthState CurrentState(const std::string& tenant) const;
  // CurrentState as an integer (0=ok .. 2=violated) for sort keys.
  int Severity(const std::string& tenant) const {
    return static_cast<int>(CurrentState(tenant));
  }

  size_t tenant_count() const { return tenants_.size(); }

  // {"tenants": [{"tenant", "state", "boot_p99_ms", ...}]}, sorted by tenant.
  json::Value ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

  // Forgets every tenant (instruments stay in the registry; tests that reuse
  // the global monitor pair this with registry resets).
  void Clear() { tenants_.clear(); }

  // The process-wide monitor used by all built-in instrumentation.
  static HealthMonitor& Global();

 private:
  struct Tenant {
    HealthState state = HealthState::kOk;
    int clean_streak = 0;
    Histogram* boot_ms = nullptr;
    Histogram* verify_ms = nullptr;
    Counter* buffered = nullptr;
    Counter* drops = nullptr;
    Counter* restarts = nullptr;
    Counter* anomalies = nullptr;
    Counter* path_violations = nullptr;
    Gauge* state_gauge = nullptr;
  };

  Tenant& Touch(const std::string& tenant);
  // The state the SLO clauses demand right now, ignoring hysteresis.
  HealthState RawState(const Tenant& t) const;

  bool enabled_ = false;
  MetricsRegistry* registry_;
  // std::map keeps EvaluateAll() and ToJson() in sorted-tenant order.
  std::map<std::string, Tenant> tenants_;
};

// Shorthand for the global monitor.
inline HealthMonitor& Health() { return HealthMonitor::Global(); }

}  // namespace innet::obs

#endif  // SRC_OBS_HEALTH_H_
