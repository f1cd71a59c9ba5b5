// innet_top: a deterministic status-table inspector for In-Net telemetry —
// the operator's "why is this tenant slow?" view.
//
// Usage:
//   innet_top --metrics FILE [--trace FILE] [--health FILE] [--postmortem FILE]
//             [--timeseries FILE] [--int FILE]
//   innet_top --postmortem FILE
//   innet_top --timeseries FILE
//   innet_top --int FILE
//
// --metrics reads a metrics dump (either the registry's native
// {"metrics": [...]} shape, or a bench snapshot whose results embed one under
// results.metrics, e.g. BENCH_placement_scaling.json) and renders per-tenant
// health/latency/drop rows, per-platform utilization rows, and the fleet
// totals. --trace adds a per-kind event summary from a trace dump; --health
// overrides the health-state column with a health report file.
//
// --postmortem renders a flight-recorder dump (innet_run --flight-out, or the
// one bench/dataplane_profile writes): per crash/give-up/abort bundle, the
// dying graph's element counters and the last-K events leading up to it.
//
// --timeseries renders a TRENDS section from an innet_run --timeseries-out
// dump: ASCII sparklines per tenant-labeled series (grouped by tenant), a
// fleet row for the headline platform counters, and any anomaly flags the
// EWMA detector raised during the run.
//
// --int renders a PATHS section from an innet_run --int-out dump: per tenant,
// every observed element chain with packet counts and hop latency, marked
// against the verify-time path digest — ** PATH VIOLATION ** rows are chains
// the symbolic engine never produced for that tenant's config. Degrades to a
// "no data" note on missing, truncated, or pre-INT dumps.
//
// To inspect a config run, dump it with innet_run --metrics-out/--trace-out/
// --health-out and pass the files here.
//
// All output derives from the dump contents: the same input always renders
// byte-identical tables. A missing, truncated, or shape-mismatched dump
// degrades to a per-section "no data" line — partial telemetry never turns
// into an error or garbage rows.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace {

using namespace innet;

// One instrument row lifted out of the JSON dump.
struct Instrument {
  std::string name;
  std::map<std::string, std::string> labels;
  std::string type;
  double value = 0;  // counter / gauge
  uint64_t count = 0;
  double sum = 0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;

  const std::string* Label(const std::string& key) const {
    auto it = labels.find(key);
    return it == labels.end() ? nullptr : &it->second;
  }
};

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

// Accepts the registry's native dump ({"metrics": [...]}) or a bench
// snapshot embedding one under results.metrics.
const obs::json::Value* FindMetricsArray(const obs::json::Value& root) {
  const obs::json::Value* metrics = root.Find("metrics");
  if (metrics != nullptr && metrics->is_array()) {
    return metrics;
  }
  const obs::json::Value* results = root.Find("results");
  if (results != nullptr) {
    const obs::json::Value* embedded = results->Find("metrics");
    if (embedded != nullptr) {
      metrics = embedded->Find("metrics");
      if (metrics != nullptr && metrics->is_array()) {
        return metrics;
      }
    }
  }
  return nullptr;
}

std::vector<Instrument> ParseInstruments(const obs::json::Value& metrics) {
  std::vector<Instrument> out;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const obs::json::Value& entry = metrics.at(i);
    Instrument inst;
    if (const auto* name = entry.Find("name")) {
      inst.name = name->string_value();
    }
    if (const auto* type = entry.Find("type")) {
      inst.type = type->string_value();
    }
    if (const auto* labels = entry.Find("labels")) {
      for (const auto& [key, value] : labels->members()) {
        inst.labels[key] = value.string_value();
      }
    }
    if (const auto* value = entry.Find("value")) {
      inst.value = value->number();
    }
    if (const auto* count = entry.Find("count")) {
      inst.count = static_cast<uint64_t>(count->int_number());
    }
    if (const auto* sum = entry.Find("sum")) {
      inst.sum = sum->number();
    }
    if (const auto* bounds = entry.Find("bounds")) {
      for (size_t b = 0; b < bounds->size(); ++b) {
        inst.bounds.push_back(bounds->at(b).number());
      }
    }
    if (const auto* buckets = entry.Find("buckets")) {
      for (size_t b = 0; b < buckets->size(); ++b) {
        inst.buckets.push_back(static_cast<uint64_t>(buckets->at(b).int_number()));
      }
    }
    out.push_back(std::move(inst));
  }
  return out;
}

const Instrument* FindInstrument(const std::vector<Instrument>& instruments,
                                 const std::string& name, const std::string& label_key = "",
                                 const std::string& label_value = "") {
  for (const Instrument& inst : instruments) {
    if (inst.name != name) {
      continue;
    }
    if (label_key.empty()) {
      return &inst;
    }
    const std::string* value = inst.Label(label_key);
    if (value != nullptr && *value == label_value) {
      return &inst;
    }
  }
  return nullptr;
}

double CounterValue(const std::vector<Instrument>& instruments, const std::string& name,
                    const std::string& label_key = "", const std::string& label_value = "") {
  const Instrument* inst = FindInstrument(instruments, name, label_key, label_value);
  return inst == nullptr ? 0 : inst->value;
}

const char* HealthNameForLevel(double level) {
  if (level >= 2) {
    return "violated";
  }
  if (level >= 1) {
    return "degraded";
  }
  return "ok";
}

void RenderTenants(const std::vector<Instrument>& instruments,
                   const obs::json::Value* health_root) {
  // Health report states (when a --health file was given) win over the
  // innet_tenant_health_state gauge.
  std::map<std::string, std::string> report_states;
  if (health_root != nullptr) {
    if (const auto* tenants = health_root->Find("tenants")) {
      for (size_t i = 0; i < tenants->size(); ++i) {
        const auto* tenant = tenants->at(i).Find("tenant");
        const auto* state = tenants->at(i).Find("state");
        if (tenant != nullptr && state != nullptr) {
          report_states[tenant->string_value()] = state->string_value();
        }
      }
    }
  }

  std::set<std::string> tenants;
  for (const Instrument& inst : instruments) {
    if (inst.name.rfind("innet_tenant_", 0) == 0) {
      const std::string* tenant = inst.Label("tenant");
      if (tenant != nullptr) {
        tenants.insert(*tenant);
      }
    }
  }
  if (tenants.empty()) {
    std::printf("TENANTS: none (per-tenant health monitor not enabled for this dump)\n\n");
    return;
  }

  std::printf("TENANTS (%zu)\n", tenants.size());
  std::printf("%-16s %-9s %9s %9s %10s %9s %7s %6s %8s\n", "tenant", "health", "boot_p50",
              "boot_p99", "verify_p99", "buffered", "drops", "drop%", "restarts");
  for (const std::string& tenant : tenants) {
    std::string health = "ok";
    auto reported = report_states.find(tenant);
    if (reported != report_states.end()) {
      health = reported->second;
    } else if (const Instrument* gauge =
                   FindInstrument(instruments, "innet_tenant_health_state", "tenant", tenant)) {
      health = HealthNameForLevel(gauge->value);
    }
    const Instrument* boot =
        FindInstrument(instruments, "innet_tenant_boot_latency_ms", "tenant", tenant);
    const Instrument* verify =
        FindInstrument(instruments, "innet_tenant_verify_latency_ms", "tenant", tenant);
    double buffered =
        CounterValue(instruments, "innet_tenant_buffered_packets_total", "tenant", tenant);
    double drops =
        CounterValue(instruments, "innet_tenant_buffer_drops_total", "tenant", tenant);
    double restarts =
        CounterValue(instruments, "innet_tenant_restarts_total", "tenant", tenant);
    double offered = buffered + drops;
    std::printf("%-16s %-9s %7.2fms %7.2fms %8.3fms %9.0f %7.0f %5.1f%% %8.0f\n",
                tenant.c_str(), health.c_str(),
                boot != nullptr ? obs::HistogramQuantile(boot->bounds, boot->buckets, 0.50) : 0.0,
                boot != nullptr ? obs::HistogramQuantile(boot->bounds, boot->buckets, 0.99) : 0.0,
                verify != nullptr
                    ? obs::HistogramQuantile(verify->bounds, verify->buckets, 0.99)
                    : 0.0,
                buffered, drops, offered > 0 ? 100.0 * drops / offered : 0.0, restarts);
  }
  std::printf("\n");
}

void RenderPlatforms(const std::vector<Instrument>& instruments) {
  std::set<std::string> platforms;
  for (const Instrument& inst : instruments) {
    if (inst.name == "innet_scheduler_platform_headroom_bytes" ||
        inst.name == "innet_scheduler_platform_utilization") {
      const std::string* platform = inst.Label("platform");
      if (platform != nullptr) {
        platforms.insert(*platform);
      }
    }
  }
  if (platforms.empty()) {
    return;  // dump has no scheduler view (bare-platform run)
  }
  std::printf("PLATFORMS (%zu)\n", platforms.size());
  std::printf("%-16s %6s %14s\n", "platform", "util", "headroom_MiB");
  for (const std::string& platform : platforms) {
    double util = CounterValue(instruments, "innet_scheduler_platform_utilization", "platform",
                               platform);
    double headroom = CounterValue(instruments, "innet_scheduler_platform_headroom_bytes",
                                   "platform", platform);
    std::printf("%-16s %6.2f %14.1f\n", platform.c_str(), util, headroom / (1 << 20));
  }
  std::printf("\n");
}

// Fault-tolerant control plane: channel message accounting, retry economics,
// and the deploy journal's state. Dumps that predate the control channel have
// none of these instruments and degrade to a one-line "no data" note.
void RenderControlPlane(const std::vector<Instrument>& instruments) {
  bool any = false;
  for (const Instrument& inst : instruments) {
    if (inst.name.rfind("innet_control_", 0) == 0 || inst.name.rfind("innet_journal_", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) {
    std::printf("CONTROL PLANE: no data (dump predates the control channel)\n\n");
    return;
  }
  std::printf("CONTROL PLANE\n");
  std::printf(
      "  channel: %.0f sent, %.0f delivered, %.0f dropped, %.0f duplicated, "
      "%.0f partition-dropped, %.0f deduped\n",
      CounterValue(instruments, "innet_control_messages_total", "event", "sent"),
      CounterValue(instruments, "innet_control_messages_total", "event", "delivered"),
      CounterValue(instruments, "innet_control_messages_total", "event", "dropped"),
      CounterValue(instruments, "innet_control_messages_total", "event", "duplicated"),
      CounterValue(instruments, "innet_control_messages_total", "event", "partition_dropped"),
      CounterValue(instruments, "innet_control_messages_total", "event", "deduped"));
  std::printf("  retries: %.0f retries, %.0f timeouts, %.0f give-ups\n",
              CounterValue(instruments, "innet_control_retries_total"),
              CounterValue(instruments, "innet_control_timeouts_total"),
              CounterValue(instruments, "innet_control_giveups_total"));
  if (const Instrument* partitioned =
          FindInstrument(instruments, "innet_control_partitioned_platforms")) {
    std::printf("  partitioned platforms: %.0f\n", partitioned->value);
  }
  // The journal: in-flight entries are deploys/migrations the controller has
  // promised but not yet confirmed — the crash-recovery working set.
  double inflight = CounterValue(instruments, "innet_journal_inflight");
  double replays = CounterValue(instruments, "innet_journal_replays_total");
  std::printf("  journal: %.0f in flight, %.0f replayed after crashes\n", inflight, replays);
  bool transitions = false;
  for (const Instrument& inst : instruments) {
    if (inst.name == "innet_journal_transitions_total") {
      if (!transitions) {
        std::printf("  journal transitions:");
        transitions = true;
      }
      const std::string* state = inst.Label("state");
      std::printf(" %s=%.0f", state != nullptr ? state->c_str() : "?", inst.value);
    }
  }
  if (transitions) {
    std::printf("\n");
  }
  std::printf("\n");
}

// Federated multi-PoP view: per-region fleet/degraded rows plus the
// coordinator's digest, deploy, migration, and reconcile accounting. Dumps
// that predate the federation layer have none of these instruments and
// degrade to a one-line "no data" note.
void RenderRegions(const std::vector<Instrument>& instruments) {
  std::set<std::string> regions;
  bool any = false;
  for (const Instrument& inst : instruments) {
    if (inst.name.rfind("innet_region_", 0) == 0 ||
        inst.name.rfind("innet_federation_", 0) == 0) {
      any = true;
      const std::string* region = inst.Label("region");
      if (region != nullptr) {
        regions.insert(*region);
      }
    }
  }
  if (!any) {
    std::printf("REGIONS: no data (dump predates the federation layer)\n\n");
    return;
  }
  std::printf("REGIONS (%zu)\n", regions.size());
  if (!regions.empty()) {
    std::printf("  %-16s %10s %8s %9s %14s\n", "region", "platforms", "tenants", "degraded",
                "queued_digests");
    for (const std::string& region : regions) {
      double degraded =
          CounterValue(instruments, "innet_region_degraded", "region", region);
      std::printf("  %-16s %10.0f %8.0f %9s %14.0f\n", region.c_str(),
                  CounterValue(instruments, "innet_region_platforms", "region", region),
                  CounterValue(instruments, "innet_region_tenants", "region", region),
                  degraded > 0 ? "yes" : "no",
                  CounterValue(instruments, "innet_region_queued_digests_total", "region",
                               region));
    }
  }
  std::printf("  digests: %.0f polled, %.0f received, %.0f lost, %.0f reordered\n",
              CounterValue(instruments, "innet_federation_digests_total", "event", "polled"),
              CounterValue(instruments, "innet_federation_digests_total", "event", "received"),
              CounterValue(instruments, "innet_federation_digests_total", "event", "lost"),
              CounterValue(instruments, "innet_federation_digests_total", "event", "reordered"));
  std::printf("  deploys: %.0f accepted, %.0f failed over, %.0f unplaceable\n",
              CounterValue(instruments, "innet_federation_deploys_total", "outcome", "accepted"),
              CounterValue(instruments, "innet_federation_deploys_total", "outcome",
                           "failed_over"),
              CounterValue(instruments, "innet_federation_deploys_total", "outcome",
                           "unplaceable"));
  std::printf("  migrations: %.0f completed, %.0f aborted, %.0f lost\n",
              CounterValue(instruments, "innet_federation_migrations_total", "outcome",
                           "completed"),
              CounterValue(instruments, "innet_federation_migrations_total", "outcome",
                           "aborted"),
              CounterValue(instruments, "innet_federation_migrations_total", "outcome", "lost"));
  std::printf("  reconciles: %.0f stale beliefs dropped, %.0f modules discovered\n",
              CounterValue(instruments, "innet_federation_reconcile_total", "outcome",
                           "stale_dropped"),
              CounterValue(instruments, "innet_federation_reconcile_total", "outcome",
                           "discovered"));
  std::printf("\n");
}

// Fleet observability dump (--fleet, the coordinator's FleetView written by
// bench/federation_failover or any coordinator embedder): per-region
// freshness/anomaly rows, the merged fleet series, and correlated incidents.
// A dump without the top-level "fleet" key (truncated, or predates the
// federated observability plane) degrades to a one-line "no data" note.
void RenderFleet(const obs::json::Value& root) {
  const obs::json::Value* fleet = root.Find("fleet");
  if (fleet == nullptr || !fleet->is_object()) {
    std::printf("FLEET: no data (dump has no fleet object)\n\n");
    return;
  }
  const obs::json::Value* regions = fleet->Find("regions");
  const obs::json::Value* ingests = fleet->Find("ingests");
  std::printf("FLEET (%zu regions, %lld digests ingested)\n",
              regions != nullptr && regions->is_array() ? regions->size() : 0,
              ingests != nullptr ? static_cast<long long>(ingests->int_number()) : 0);
  if (regions != nullptr && regions->is_array() && regions->size() > 0) {
    std::printf("  %-16s %9s %8s %6s %9s %10s\n", "region", "last_seq", "ingests", "stale",
                "degraded", "anomalous");
    for (size_t i = 0; i < regions->size(); ++i) {
      const obs::json::Value& region = regions->at(i);
      const auto* name = region.Find("region");
      const auto* last_seq = region.Find("last_seq");
      const auto* region_ingests = region.Find("ingests");
      const auto* stale = region.Find("stale");
      const auto* degraded = region.Find("degraded");
      const auto* anomalous = region.Find("anomalous");
      std::printf("  %-16s %9lld %8lld %6s %9s %10s\n",
                  name != nullptr ? name->string_value().c_str() : "?",
                  last_seq != nullptr ? static_cast<long long>(last_seq->int_number()) : 0,
                  region_ingests != nullptr
                      ? static_cast<long long>(region_ingests->int_number())
                      : 0,
                  stale != nullptr && stale->bool_value() ? "yes" : "no",
                  degraded != nullptr && degraded->bool_value() ? "yes" : "no",
                  anomalous != nullptr && anomalous->bool_value() ? "yes" : "no");
    }
  }
  const obs::json::Value* series = fleet->Find("series");
  if (series != nullptr && series->is_array() && series->size() > 0) {
    std::printf("  %-28s %12s %s\n", "series", "fleet_total", "flagged_regions");
    for (size_t i = 0; i < series->size(); ++i) {
      const obs::json::Value& entry = series->at(i);
      const auto* metric = entry.Find("metric");
      const auto* total = entry.Find("fleet_total");
      std::string flagged;
      const obs::json::Value* per_region = entry.Find("regions");
      if (per_region != nullptr && per_region->is_array()) {
        for (size_t r = 0; r < per_region->size(); ++r) {
          const auto* flag = per_region->at(r).Find("flagged");
          const auto* name = per_region->at(r).Find("region");
          if (flag != nullptr && flag->bool_value() && name != nullptr) {
            flagged += (flagged.empty() ? "" : " ") + name->string_value();
          }
        }
      }
      std::printf("  %-28s %12lld %s\n",
                  metric != nullptr ? metric->string_value().c_str() : "?",
                  total != nullptr ? static_cast<long long>(total->int_number()) : 0,
                  flagged.empty() ? "-" : flagged.c_str());
    }
  }
  const obs::json::Value* totals = fleet->Find("incident_totals");
  if (totals != nullptr && totals->is_object()) {
    const auto* fleet_scope = totals->Find("fleet");
    const auto* regional_scope = totals->Find("regional");
    std::printf("  incidents: %lld fleet-wide, %lld regional\n",
                fleet_scope != nullptr ? static_cast<long long>(fleet_scope->int_number()) : 0,
                regional_scope != nullptr
                    ? static_cast<long long>(regional_scope->int_number())
                    : 0);
  }
  const obs::json::Value* incidents = fleet->Find("incidents");
  if (incidents != nullptr && incidents->is_array()) {
    for (size_t i = 0; i < incidents->size(); ++i) {
      const obs::json::Value& incident = incidents->at(i);
      const auto* t_ns = incident.Find("t_ns");
      const auto* metric = incident.Find("metric");
      const auto* scope = incident.Find("scope");
      const auto* value = incident.Find("value");
      const auto* baseline = incident.Find("baseline");
      std::string names;
      const obs::json::Value* implicated = incident.Find("regions");
      if (implicated != nullptr && implicated->is_array()) {
        for (size_t r = 0; r < implicated->size(); ++r) {
          names += (names.empty() ? "" : " ") + implicated->at(r).string_value();
        }
      }
      std::printf("  t=%.3fs %-8s %-24s [%s] value %.4g vs baseline %.4g\n",
                  t_ns != nullptr ? static_cast<double>(t_ns->int_number()) / 1e9 : 0.0,
                  scope != nullptr ? scope->string_value().c_str() : "?",
                  metric != nullptr ? metric->string_value().c_str() : "?", names.c_str(),
                  value != nullptr ? value->number() : 0.0,
                  baseline != nullptr ? baseline->number() : 0.0);
    }
  }
  std::printf("\n");
}

void RenderTotals(const std::vector<Instrument>& instruments) {
  std::printf("TOTALS\n");
  std::printf("  vms: %.0f running, %.0f suspended, %.0f crashed\n",
              CounterValue(instruments, "innet_vm_running"),
              CounterValue(instruments, "innet_vm_suspended"),
              CounterValue(instruments, "innet_vm_crashed"));
  std::printf("  switch: %.0f delivered, %.0f missed, %.0f dropped\n",
              CounterValue(instruments, "innet_switch_delivered_total"),
              CounterValue(instruments, "innet_switch_missed_total"),
              CounterValue(instruments, "innet_switch_dropped_total"));
  for (const Instrument& inst : instruments) {
    if (inst.name != "innet_vm_boot_latency_ms") {
      continue;
    }
    const std::string* kind = inst.Label("kind");
    std::printf("  boot latency (%s): p50 %.2fms p99 %.2fms over %llu boots\n",
                kind != nullptr ? kind->c_str() : "all",
                obs::HistogramQuantile(inst.bounds, inst.buckets, 0.50),
                obs::HistogramQuantile(inst.bounds, inst.buckets, 0.99),
                static_cast<unsigned long long>(inst.count));
  }
  if (const Instrument* verify =
          FindInstrument(instruments, "innet_controller_verify_latency_ms")) {
    std::printf("  verify latency: p50 %.3fms p99 %.3fms over %llu requests\n",
                obs::HistogramQuantile(verify->bounds, verify->buckets, 0.50),
                obs::HistogramQuantile(verify->bounds, verify->buckets, 0.99),
                static_cast<unsigned long long>(verify->count));
  }
  if (const Instrument* dropped = FindInstrument(instruments, "innet_trace_dropped_total")) {
    std::printf("  trace: %.0f events dropped by the ring\n", dropped->value);
  }
  std::printf("\n");
}

void RenderTraceSummary(const obs::json::Value& trace_root) {
  const obs::json::Value* events = trace_root.Find("events");
  if (events == nullptr || !events->is_array()) {
    std::printf("TRACE: no data (dump has no events array)\n\n");
    return;
  }
  std::map<std::string, uint64_t> per_kind;
  uint64_t roots = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const auto* kind = events->at(i).Find("kind");
    if (kind != nullptr) {
      ++per_kind[kind->string_value()];
    }
    const auto* parent = events->at(i).Find("parent");
    if (parent != nullptr && parent->int_number() == 0) {
      ++roots;
    }
  }
  const obs::json::Value* dropped = trace_root.Find("dropped");
  std::printf("TRACE (%zu events, %lld dropped, %llu root spans)\n", events->size(),
              dropped != nullptr ? static_cast<long long>(dropped->int_number()) : 0,
              static_cast<unsigned long long>(roots));
  for (const auto& [kind, count] : per_kind) {
    std::printf("  %-24s %8llu\n", kind.c_str(), static_cast<unsigned long long>(count));
  }
  std::printf("\n");
}

void RenderPostmortems(const obs::json::Value& root) {
  const obs::json::Value* bundles = root.Find("postmortems");
  const obs::json::Value* recorded = root.Find("recorded");
  const obs::json::Value* depth = root.Find("depth");
  const obs::json::Value* evicted = root.Find("evicted");
  if (bundles == nullptr || !bundles->is_array()) {
    std::printf("POSTMORTEM: no data (dump has no postmortems array)\n\n");
    return;
  }
  std::printf("FLIGHT RECORDER (ring depth %lld, %lld events recorded, %zu postmortems",
              depth != nullptr ? static_cast<long long>(depth->int_number()) : 0,
              recorded != nullptr ? static_cast<long long>(recorded->int_number()) : 0,
              bundles->size());
  if (evicted != nullptr && evicted->int_number() > 0) {
    std::printf(", %lld evicted", static_cast<long long>(evicted->int_number()));
  }
  std::printf(")\n");
  if (bundles->size() == 0) {
    std::printf("  no postmortem bundles: nothing crashed, gave up, or aborted\n\n");
    return;
  }
  for (size_t i = 0; i < bundles->size(); ++i) {
    const obs::json::Value& bundle = bundles->at(i);
    const auto* trigger = bundle.Find("trigger");
    const auto* target = bundle.Find("target");
    const auto* tenant = bundle.Find("tenant");
    const auto* t_ns = bundle.Find("t_ns");
    const auto* detail = bundle.Find("detail");
    const auto* health = bundle.Find("health");
    std::printf("\n#%zu %s %s", i + 1,
                trigger != nullptr ? trigger->string_value().c_str() : "?",
                target != nullptr ? target->string_value().c_str() : "?");
    if (tenant != nullptr && !tenant->string_value().empty()) {
      std::printf(" tenant=%s", tenant->string_value().c_str());
    }
    if (t_ns != nullptr) {
      std::printf(" at t=%.6fs", static_cast<double>(t_ns->int_number()) / 1e9);
    }
    if (health != nullptr && !health->string_value().empty()) {
      std::printf(" health=%s", health->string_value().c_str());
    }
    if (detail != nullptr && !detail->string_value().empty()) {
      std::printf(" (%s)", detail->string_value().c_str());
    }
    std::printf("\n");
    const obs::json::Value* elements = bundle.Find("elements");
    if (elements != nullptr && elements->is_array() && elements->size() > 0) {
      std::printf("  %-24s %-18s %9s %10s %7s %12s\n", "element", "class", "packets", "bytes",
                  "drops", "proc_ns");
      for (size_t e = 0; e < elements->size(); ++e) {
        const obs::json::Value& element = elements->at(e);
        const auto* name = element.Find("element");
        const auto* cls = element.Find("class");
        const auto* packets = element.Find("packets");
        const auto* bytes = element.Find("bytes");
        const auto* drops = element.Find("drops");
        const auto* proc = element.Find("proc_ns");
        std::printf("  %-24s %-18s %9lld %10lld %7lld %12lld\n",
                    name != nullptr ? name->string_value().c_str() : "?",
                    cls != nullptr ? cls->string_value().c_str() : "?",
                    packets != nullptr ? static_cast<long long>(packets->int_number()) : 0,
                    bytes != nullptr ? static_cast<long long>(bytes->int_number()) : 0,
                    drops != nullptr ? static_cast<long long>(drops->int_number()) : 0,
                    proc != nullptr ? static_cast<long long>(proc->int_number()) : 0);
      }
    } else {
      std::printf("  elements: none captured (graph already torn down)\n");
    }
    const obs::json::Value* events = bundle.Find("events");
    if (events != nullptr && events->is_array() && events->size() > 0) {
      std::printf("  last %zu events:\n", events->size());
      for (size_t e = 0; e < events->size(); ++e) {
        const obs::json::Value& event = events->at(e);
        const auto* et = event.Find("t_ns");
        const auto* kind = event.Find("kind");
        const auto* etarget = event.Find("target");
        const auto* edetail = event.Find("detail");
        const auto* value = event.Find("value");
        std::printf("    t=%.6fs %-20s %-12s %-16s %lld\n",
                    et != nullptr ? static_cast<double>(et->int_number()) / 1e9 : 0.0,
                    kind != nullptr ? kind->string_value().c_str() : "?",
                    etarget != nullptr ? etarget->string_value().c_str() : "",
                    edetail != nullptr ? edetail->string_value().c_str() : "",
                    value != nullptr ? static_cast<long long>(value->int_number()) : 0);
      }
    } else {
      std::printf("  events: none captured\n");
    }
  }
  std::printf("\n");
}

// --- TRENDS (timeseries dump) -----------------------------------------------

// The value a sparkline plots for one point, by series kind.
double PointValue(const obs::json::Value& point, const std::string& kind) {
  const char* field = kind == "counter_rate" ? "rate_per_s"
                      : kind == "gauge"      ? "value"
                                             : "p99";
  const obs::json::Value* value = point.Find(field);
  return value != nullptr ? value->number() : 0.0;
}

// Renders up to the last `width` points as a fixed-alphabet ASCII sparkline,
// scaled to the series' own min..max (a flat series renders as all '-').
std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char kLevels[] = " .:-=+*#%@";
  constexpr size_t kLevelCount = sizeof(kLevels) - 2;  // index of highest level
  size_t start = values.size() > width ? values.size() - width : 0;
  double lo = values[start];
  double hi = values[start];
  for (size_t i = start; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  for (size_t i = start; i < values.size(); ++i) {
    size_t level =
        hi > lo ? static_cast<size_t>((values[i] - lo) / (hi - lo) * kLevelCount + 0.5)
                : kLevelCount / 2;
    out += kLevels[std::min(level, kLevelCount)];
  }
  return out;
}

struct TrendRow {
  std::string metric;
  std::string kind;
  std::vector<double> values;
  double last = 0;
  double peak = 0;
};

TrendRow MakeTrendRow(const obs::json::Value& series) {
  TrendRow row;
  if (const auto* name = series.Find("name")) {
    row.metric = name->string_value();
  }
  if (const auto* kind = series.Find("kind")) {
    row.kind = kind->string_value();
  }
  const obs::json::Value* points = series.Find("points");
  if (points != nullptr && points->is_array()) {
    for (size_t i = 0; i < points->size(); ++i) {
      double value = PointValue(points->at(i), row.kind);
      row.values.push_back(value);
      row.peak = std::max(row.peak, value);
      row.last = value;
    }
  }
  return row;
}

void PrintTrendRow(const TrendRow& row, size_t width) {
  if (row.values.empty()) {
    return;
  }
  const char* unit = row.kind == "counter_rate" ? "/s" : "";
  std::printf("  %-36s |%s| last %.4g%s peak %.4g%s\n", row.metric.c_str(),
              Sparkline(row.values, width).c_str(), row.last, unit, row.peak, unit);
}

void RenderTrends(const obs::json::Value& root) {
  const obs::json::Value* series_list = root.Find("series");
  if (series_list == nullptr || !series_list->is_array()) {
    std::printf("TRENDS: no data (dump has no series array)\n\n");
    return;
  }
  const obs::json::Value* window_ns = root.Find("window_ns");
  const obs::json::Value* windows = root.Find("windows_sampled");
  std::printf("TRENDS (window %.0f ms, %lld windows, %zu series)\n",
              window_ns != nullptr ? window_ns->number() / 1e6 : 0.0,
              windows != nullptr ? static_cast<long long>(windows->int_number()) : 0,
              series_list->size());

  constexpr size_t kSparkWidth = 40;
  // Tenant-labeled series grouped per tenant; a short watchlist of fleet
  // counters keeps the output a summary, not a dump of every instrument.
  std::map<std::string, std::vector<TrendRow>> per_tenant;
  std::vector<TrendRow> fleet;
  const std::set<std::string> fleet_watch = {
      "innet_platform_buffer_drops_total", "innet_switch_delivered_total",
      "innet_control_retries_total",       "innet_control_giveups_total",
      "innet_controller_verify_latency_ms", "innet_vm_running",
  };
  for (size_t i = 0; i < series_list->size(); ++i) {
    const obs::json::Value& series = series_list->at(i);
    const obs::json::Value* labels = series.Find("labels");
    const obs::json::Value* tenant =
        labels != nullptr ? labels->Find("tenant") : nullptr;
    TrendRow row = MakeTrendRow(series);
    if (row.values.empty()) {
      continue;
    }
    if (tenant != nullptr && tenant->is_string()) {
      per_tenant[tenant->string_value()].push_back(std::move(row));
    } else if (fleet_watch.count(row.metric) > 0) {
      fleet.push_back(std::move(row));
    }
  }

  for (const auto& [tenant, rows] : per_tenant) {
    std::printf(" tenant %s\n", tenant.c_str());
    for (const TrendRow& row : rows) {
      PrintTrendRow(row, kSparkWidth);
    }
  }
  if (per_tenant.empty()) {
    std::printf(" no tenant-labeled series (health monitor off for this run)\n");
  }
  if (!fleet.empty()) {
    std::printf(" fleet\n");
    for (const TrendRow& row : fleet) {
      PrintTrendRow(row, kSparkWidth);
    }
  }

  const obs::json::Value* anomalies = root.Find("anomalies");
  if (anomalies != nullptr && anomalies->is_array() && anomalies->size() > 0) {
    std::printf(" anomalies (%zu)\n", anomalies->size());
    for (size_t i = 0; i < anomalies->size(); ++i) {
      const obs::json::Value& flag = anomalies->at(i);
      const auto* t_ns = flag.Find("t_ns");
      const auto* signal = flag.Find("signal");
      const auto* target = flag.Find("target");
      const auto* value = flag.Find("value");
      const auto* baseline = flag.Find("baseline");
      std::printf("  t=%.3fs %-26s %-24s value %.4g vs baseline %.4g\n",
                  t_ns != nullptr ? static_cast<double>(t_ns->int_number()) / 1e9 : 0.0,
                  signal != nullptr ? signal->string_value().c_str() : "?",
                  target != nullptr ? target->string_value().c_str() : "?",
                  value != nullptr ? value->number() : 0.0,
                  baseline != nullptr ? baseline->number() : 0.0);
    }
  } else if (anomalies != nullptr) {
    std::printf(" anomalies: none flagged\n");
  }
  std::printf("\n");
}

// PATHS: per-tenant observed element chains from an innet_run --int-out dump,
// with attestation status against the verify-time path digest. Violations are
// the headline — a chain the symbolic engine never produced means the data
// plane diverged from what was verified at deploy time.
void RenderPaths(const obs::json::Value& root) {
  const obs::json::Value* tenants = root.Find("tenants");
  if (tenants == nullptr || !tenants->is_array()) {
    std::printf("PATHS: no data (dump has no tenants array — pre-INT dump?)\n\n");
    return;
  }
  const obs::json::Value* postcards = root.Find("postcards");
  const obs::json::Value* violations = root.Find("violations");
  std::printf("PATHS (%lld postcards, %lld violations, %zu tenants)\n",
              postcards != nullptr ? static_cast<long long>(postcards->int_number()) : 0,
              violations != nullptr ? static_cast<long long>(violations->int_number()) : 0,
              tenants->size());
  for (size_t i = 0; i < tenants->size(); ++i) {
    const obs::json::Value& tenant = tenants->at(i);
    const obs::json::Value* name = tenant.Find("tenant");
    const obs::json::Value* attested = tenant.Find("attested");
    const obs::json::Value* digest_paths = tenant.Find("digest_paths");
    const obs::json::Value* tenant_violations = tenant.Find("violations");
    bool is_attested = attested != nullptr && attested->bool_value();
    std::string name_text =
        name != nullptr && !name->string_value().empty() ? name->string_value() : "(unattributed)";
    if (is_attested) {
      std::printf(" tenant %-20s attested against %lld verified paths, %lld violations\n",
                  name_text.c_str(),
                  digest_paths != nullptr ? static_cast<long long>(digest_paths->int_number())
                                          : 0,
                  tenant_violations != nullptr
                      ? static_cast<long long>(tenant_violations->int_number())
                      : 0);
    } else {
      std::printf(" tenant %-20s unattested (no path digest registered)\n", name_text.c_str());
    }
    const obs::json::Value* paths = tenant.Find("paths");
    if (paths == nullptr || !paths->is_array()) {
      continue;
    }
    for (size_t j = 0; j < paths->size(); ++j) {
      const obs::json::Value& path = paths->at(j);
      const obs::json::Value* chain = path.Find("chain");
      const obs::json::Value* count = path.Find("count");
      const obs::json::Value* avg_ns = path.Find("avg_ns");
      const obs::json::Value* path_violations = path.Find("violations");
      const obs::json::Value* delivered = path.Find("delivered");
      long long bad =
          path_violations != nullptr ? static_cast<long long>(path_violations->int_number()) : 0;
      std::printf("  %-44s %6lld pkts  avg %8.0f ns  %s%s\n",
                  chain != nullptr && !chain->string_value().empty()
                      ? chain->string_value().c_str()
                      : "(empty chain)",
                  count != nullptr ? static_cast<long long>(count->int_number()) : 0,
                  avg_ns != nullptr ? avg_ns->number() : 0.0,
                  delivered != nullptr && delivered->bool_value() ? "delivered" : "dropped  ",
                  bad > 0 ? "  ** PATH VIOLATION **" : "");
    }
  }
  std::printf("\n");
}

int RenderFromFiles(const std::string& metrics_path, const std::string& trace_path,
                    const std::string& health_path, const std::string& postmortem_path,
                    const std::string& timeseries_path, const std::string& fleet_path,
                    const std::string& int_path) {
  std::string text;
  std::string error;

  // Each section degrades independently: a missing or truncated file renders
  // as a one-line "no data" note, never an error exit — partial telemetry
  // after a crash is exactly when this tool matters.
  std::vector<Instrument> instruments;
  bool have_metrics = false;
  std::string metrics_note;
  obs::json::Value root;
  if (!metrics_path.empty()) {
    if (!ReadFile(metrics_path, &text, &error)) {
      metrics_note = error;
    } else if (!obs::json::Value::Parse(text, &root, &error)) {
      metrics_note = metrics_path + ": " + error;
    } else {
      const obs::json::Value* metrics = FindMetricsArray(root);
      if (metrics == nullptr) {
        metrics_note = metrics_path + ": no metrics array (native dump or bench snapshot)";
      } else {
        instruments = ParseInstruments(*metrics);
        have_metrics = true;
      }
    }
  }

  obs::json::Value health_root;
  bool have_health = false;
  std::string health_note;
  if (!health_path.empty()) {
    if (!ReadFile(health_path, &text, &error)) {
      health_note = error;
    } else if (!obs::json::Value::Parse(text, &health_root, &error)) {
      health_note = health_path + ": " + error;
    } else {
      have_health = true;
    }
  }

  if (have_metrics) {
    std::printf("innet_top — %s (%zu instruments)\n\n", metrics_path.c_str(),
                instruments.size());
  } else {
    std::printf("innet_top\n\n");
  }
  if (!metrics_note.empty()) {
    std::printf("METRICS: no data (%s)\n\n", metrics_note.c_str());
  }
  if (!health_note.empty()) {
    std::printf("HEALTH: no data (%s)\n\n", health_note.c_str());
  }
  if (have_metrics) {
    RenderTenants(instruments, have_health ? &health_root : nullptr);
    RenderPlatforms(instruments);
    RenderControlPlane(instruments);
    RenderRegions(instruments);
    RenderTotals(instruments);
  }

  if (!trace_path.empty()) {
    obs::json::Value trace_root;
    if (!ReadFile(trace_path, &text, &error)) {
      std::printf("TRACE: no data (%s)\n\n", error.c_str());
    } else if (!obs::json::Value::Parse(text, &trace_root, &error)) {
      std::printf("TRACE: no data (%s: %s)\n\n", trace_path.c_str(), error.c_str());
    } else {
      RenderTraceSummary(trace_root);
    }
  }

  if (!postmortem_path.empty()) {
    obs::json::Value flight_root;
    if (!ReadFile(postmortem_path, &text, &error)) {
      std::printf("POSTMORTEM: no data (%s)\n\n", error.c_str());
    } else if (!obs::json::Value::Parse(text, &flight_root, &error)) {
      std::printf("POSTMORTEM: no data (%s: %s)\n\n", postmortem_path.c_str(), error.c_str());
    } else {
      RenderPostmortems(flight_root);
    }
  }

  if (!timeseries_path.empty()) {
    obs::json::Value ts_root;
    if (!ReadFile(timeseries_path, &text, &error)) {
      std::printf("TRENDS: no data (%s)\n\n", error.c_str());
    } else if (!obs::json::Value::Parse(text, &ts_root, &error)) {
      std::printf("TRENDS: no data (%s: %s)\n\n", timeseries_path.c_str(), error.c_str());
    } else {
      RenderTrends(ts_root);
    }
  }

  if (!fleet_path.empty()) {
    obs::json::Value fleet_root;
    if (!ReadFile(fleet_path, &text, &error)) {
      std::printf("FLEET: no data (%s)\n\n", error.c_str());
    } else if (!obs::json::Value::Parse(text, &fleet_root, &error)) {
      std::printf("FLEET: no data (%s: %s)\n\n", fleet_path.c_str(), error.c_str());
    } else {
      RenderFleet(fleet_root);
    }
  }

  if (!int_path.empty()) {
    obs::json::Value int_root;
    if (!ReadFile(int_path, &text, &error)) {
      std::printf("PATHS: no data (%s)\n\n", error.c_str());
    } else if (!obs::json::Value::Parse(text, &int_root, &error)) {
      std::printf("PATHS: no data (%s: %s)\n\n", int_path.c_str(), error.c_str());
    } else {
      RenderPaths(int_root);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  std::string health_path;
  std::string postmortem_path;
  std::string timeseries_path;
  std::string fleet_path;
  std::string int_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--health" && i + 1 < argc) {
      health_path = argv[++i];
    } else if (arg == "--postmortem" && i + 1 < argc) {
      postmortem_path = argv[++i];
    } else if (arg == "--timeseries" && i + 1 < argc) {
      timeseries_path = argv[++i];
    } else if (arg == "--fleet" && i + 1 < argc) {
      fleet_path = argv[++i];
    } else if (arg == "--int" && i + 1 < argc) {
      int_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --metrics FILE [--trace FILE] [--health FILE] "
                   "[--postmortem FILE] [--timeseries FILE] [--fleet FILE] [--int FILE]\n"
                   "       %s --postmortem FILE\n"
                   "       %s --timeseries FILE\n"
                   "       %s --fleet FILE\n"
                   "       %s --int FILE\n",
                   argv[0], argv[0], argv[0], argv[0], argv[0]);
      return 2;
    }
  }
  if (metrics_path.empty() && postmortem_path.empty() && timeseries_path.empty() &&
      fleet_path.empty() && int_path.empty()) {
    std::fprintf(stderr,
                 "one of --metrics, --postmortem, --timeseries, --fleet, or --int is required\n");
    return 2;
  }
  return RenderFromFiles(metrics_path, trace_path, health_path, postmortem_path,
                         timeseries_path, fleet_path, int_path);
}
