#include "src/obs/health.h"

#include "src/obs/trace.h"

namespace innet::obs {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kViolated: return "violated";
  }
  return "unknown";
}

namespace {

// One rung of the SLO ladder. A tenant is on the rung when ANY clause
// crosses its threshold; drop rate is drops / (enqueued + drops).
struct SloThresholds {
  double boot_p99_ms;
  double verify_p99_ms;
  double drop_rate;
  uint64_t restarts;
  // Sustained-deviation flags from the AnomalyDetector (obs/timeseries.h).
  // Anomalies are corroborating evidence, not raw SLO breaches, so the
  // ladder is laxer than the restart clause: one flag degrades, a storm of
  // them violates.
  uint64_t anomalies;
  // Path-conformance violations from the INT collector (obs/int_telemetry.h).
  // A verified tenant should never leave its certified paths, so the ladder
  // matches the anomaly clause: one deviation degrades, a pattern violates.
  uint64_t path_violations;
};
constexpr SloThresholds kDegradedSlo{100.0, 50.0, 0.01, 1, 1, 1};
constexpr SloThresholds kViolatedSlo{500.0, 500.0, 0.05, 3, 4, 4};
// Consecutive EvaluateAll() passes below the current state's threshold
// before the state steps back down.
constexpr int kRecoverEvals = 3;

// Same ladder as innet_vm_boot_latency_ms so per-tenant and aggregate boot
// percentiles are comparable: 0.5ms .. ~4s.
std::vector<double> BootBucketsMs() { return ExponentialBuckets(0.5, 2.0, 14); }

// Verification is dominated by per-node/per-step symexec cost (tens of µs to
// a few ms per request): 0.01ms .. ~327ms.
std::vector<double> VerifyBucketsMs() { return ExponentialBuckets(0.01, 2.0, 16); }

}  // namespace

HealthMonitor::Tenant& HealthMonitor::Touch(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    return it->second;
  }
  Tenant t;
  Labels labels = {{"tenant", tenant}};
  t.boot_ms = registry_->GetHistogram("innet_tenant_boot_latency_ms", labels, BootBucketsMs());
  t.verify_ms =
      registry_->GetHistogram("innet_tenant_verify_latency_ms", labels, VerifyBucketsMs());
  t.buffered = registry_->GetCounter("innet_tenant_buffered_packets_total", labels);
  t.drops = registry_->GetCounter("innet_tenant_buffer_drops_total", labels);
  t.restarts = registry_->GetCounter("innet_tenant_restarts_total", labels);
  t.anomalies = registry_->GetCounter("innet_tenant_anomalies_total", labels);
  t.path_violations = registry_->GetCounter("innet_tenant_path_violations_total", labels);
  t.state_gauge = registry_->GetGauge("innet_tenant_health_state", labels);
  return tenants_.emplace(tenant, std::move(t)).first->second;
}

void HealthMonitor::ObserveBootLatency(const std::string& tenant, double ms) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).boot_ms->Observe(ms);
}

void HealthMonitor::ObserveVerifyLatency(const std::string& tenant, double ms) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).verify_ms->Observe(ms);
}

void HealthMonitor::CountBuffered(const std::string& tenant, uint64_t packets) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).buffered->Increment(packets);
}

void HealthMonitor::CountDrop(const std::string& tenant, uint64_t packets) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).drops->Increment(packets);
}

void HealthMonitor::CountRestart(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).restarts->Increment();
}

void HealthMonitor::CountAnomaly(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).anomalies->Increment();
}

void HealthMonitor::CountPathViolation(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).path_violations->Increment();
}

HealthState HealthMonitor::RawState(const Tenant& t) const {
  double boot_p99 = t.boot_ms->P99();
  double verify_p99 = t.verify_ms->P99();
  uint64_t offered = t.buffered->value() + t.drops->value();
  double drop_rate =
      offered == 0 ? 0.0 : static_cast<double>(t.drops->value()) / static_cast<double>(offered);
  uint64_t restarts = t.restarts->value();
  uint64_t anomalies = t.anomalies->value();
  uint64_t path_violations = t.path_violations->value();
  auto crosses = [&](const SloThresholds& slo) {
    return boot_p99 > slo.boot_p99_ms || verify_p99 > slo.verify_p99_ms ||
           drop_rate > slo.drop_rate || restarts >= slo.restarts ||
           anomalies >= slo.anomalies || path_violations >= slo.path_violations;
  };
  if (crosses(kViolatedSlo)) {
    return HealthState::kViolated;
  }
  if (crosses(kDegradedSlo)) {
    return HealthState::kDegraded;
  }
  return HealthState::kOk;
}

void HealthMonitor::EvaluateAll() {
  if (!enabled_) {
    return;
  }
  for (auto& [name, t] : tenants_) {
    HealthState raw = RawState(t);
    HealthState before = t.state;
    if (raw >= t.state) {
      // Getting worse (or holding): adopt immediately, restart recovery.
      t.state = raw;
      t.clean_streak = 0;
    } else if (++t.clean_streak >= kRecoverEvals) {
      t.state = raw;
      t.clean_streak = 0;
    }
    t.state_gauge->Set(static_cast<double>(t.state));
    if (t.state != before && Tracer().enabled()) {
      Tracer().RecordNow(EventKind::kHealthTransition, "tenant:" + name,
                         std::string(HealthStateName(before)) + "->" + HealthStateName(t.state),
                         static_cast<int64_t>(t.state));
    }
  }
}

HealthState HealthMonitor::CurrentState(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? HealthState::kOk : it->second.state;
}

json::Value HealthMonitor::ToJson() const {
  json::Value list = json::Value::Array();
  for (const auto& [name, t] : tenants_) {
    uint64_t offered = t.buffered->value() + t.drops->value();
    json::Value entry = json::Value::Object();
    entry.Set("tenant", name);
    entry.Set("state", HealthStateName(t.state));
    entry.Set("boot_p99_ms", t.boot_ms->P99());
    entry.Set("verify_p99_ms", t.verify_ms->P99());
    entry.Set("drop_rate", offered == 0 ? 0.0
                                        : static_cast<double>(t.drops->value()) /
                                              static_cast<double>(offered));
    entry.Set("restarts", t.restarts->value());
    entry.Set("anomalies", t.anomalies->value());
    entry.Set("path_violations", t.path_violations->value());
    list.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("tenants", std::move(list));
  return root;
}

bool HealthMonitor::WriteJsonFile(const std::string& path) const {
  return ToJson().WriteFile(path);
}

HealthMonitor& HealthMonitor::Global() {
  static HealthMonitor* monitor = new HealthMonitor();
  return *monitor;
}

}  // namespace innet::obs
