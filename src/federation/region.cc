#include "src/federation/region.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::federation {

using controller::ClientRequest;
using controller::ControlOp;
using controller::ControlRequest;
using controller::ControlResponse;
using controller::RespondFn;

namespace {

// Coordinator silence after which a region flags itself degraded. The
// monitor checks twice per threshold.
constexpr sim::TimeNs kSilenceThreshold = 2 * sim::kSecond;

}  // namespace

obs::json::Value ClientRequestToJson(const ClientRequest& request) {
  obs::json::Value v = obs::json::Value::Object();
  v.Set("client_id", request.client_id);
  v.Set("requester", static_cast<int64_t>(request.requester));
  v.Set("click_config", request.click_config);
  v.Set("requirements", request.requirements);
  obs::json::Value whitelist = obs::json::Value::Array();
  for (const Ipv4Address& addr : request.whitelist) {
    whitelist.Push(addr.ToString());
  }
  v.Set("whitelist", std::move(whitelist));
  obs::json::Value prefixes = obs::json::Value::Array();
  for (const Ipv4Prefix& prefix : request.owned_prefixes) {
    prefixes.Push(prefix.ToString());
  }
  v.Set("owned_prefixes", std::move(prefixes));
  v.Set("pinned_platform", request.pinned_platform);
  return v;
}

bool ClientRequestFromJson(const obs::json::Value& value, ClientRequest* out,
                           std::string* error) {
  if (!value.is_object()) {
    *error = "client request: not an object";
    return false;
  }
  auto string_field = [&value](const std::string& key) -> std::string {
    const obs::json::Value* field = value.Find(key);
    return field != nullptr && field->is_string() ? field->string_value() : std::string();
  };
  out->client_id = string_field("client_id");
  out->click_config = string_field("click_config");
  out->requirements = string_field("requirements");
  out->pinned_platform = string_field("pinned_platform");
  if (const obs::json::Value* requester = value.Find("requester");
      requester != nullptr && requester->is_number()) {
    out->requester = static_cast<controller::RequesterClass>(requester->int_number());
  }
  out->whitelist.clear();
  if (const obs::json::Value* whitelist = value.Find("whitelist");
      whitelist != nullptr && whitelist->is_array()) {
    for (size_t i = 0; i < whitelist->size(); ++i) {
      auto addr = Ipv4Address::Parse(whitelist->at(i).string_value());
      if (!addr) {
        *error = "client request: bad whitelist address";
        return false;
      }
      out->whitelist.push_back(*addr);
    }
  }
  out->owned_prefixes.clear();
  if (const obs::json::Value* prefixes = value.Find("owned_prefixes");
      prefixes != nullptr && prefixes->is_array()) {
    for (size_t i = 0; i < prefixes->size(); ++i) {
      auto prefix = Ipv4Prefix::Parse(prefixes->at(i).string_value());
      if (!prefix) {
        *error = "client request: bad owned prefix";
        return false;
      }
      out->owned_prefixes.push_back(*prefix);
    }
  }
  return true;
}

obs::json::Value RegionDigest::ToJson() const {
  obs::json::Value v = obs::json::Value::Object();
  v.Set("region", region);
  v.Set("seq", seq);
  v.Set("generated_ns", generated_ns);
  v.Set("degraded", degraded);
  v.Set("platforms", static_cast<uint64_t>(platforms));
  v.Set("tenants", static_cast<uint64_t>(tenants));
  v.Set("memory_total", memory_total);
  v.Set("memory_used", memory_used);
  obs::json::Value modules = obs::json::Value::Array();
  for (const std::string& module : live_modules) {
    modules.Push(module);
  }
  v.Set("live_modules", std::move(modules));
  obs::json::Value metrics = obs::json::Value::Object();
  for (const auto& [name, value] : metric_samples) {
    metrics.Set(name, value);
  }
  v.Set("metrics", std::move(metrics));
  return v;
}

bool RegionDigest::FromJson(const obs::json::Value& value, RegionDigest* out,
                            std::string* error) {
  if (!value.is_object()) {
    *error = "region digest: not an object";
    return false;
  }
  const obs::json::Value* region = value.Find("region");
  if (region == nullptr || !region->is_string()) {
    *error = "region digest: missing region";
    return false;
  }
  out->region = region->string_value();
  auto int_field = [&value](const std::string& key) -> uint64_t {
    const obs::json::Value* field = value.Find(key);
    return field != nullptr && field->is_number() ? static_cast<uint64_t>(field->int_number())
                                                  : 0;
  };
  out->seq = int_field("seq");
  out->generated_ns = int_field("generated_ns");
  out->platforms = static_cast<size_t>(int_field("platforms"));
  out->tenants = static_cast<size_t>(int_field("tenants"));
  out->memory_total = int_field("memory_total");
  out->memory_used = int_field("memory_used");
  const obs::json::Value* degraded = value.Find("degraded");
  out->degraded = degraded != nullptr && degraded->bool_value();
  out->live_modules.clear();
  if (const obs::json::Value* modules = value.Find("live_modules");
      modules != nullptr && modules->is_array()) {
    for (size_t i = 0; i < modules->size(); ++i) {
      out->live_modules.push_back(modules->at(i).string_value());
    }
  }
  out->metric_samples.clear();
  if (const obs::json::Value* metrics = value.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    for (const auto& [name, sample] : metrics->members()) {
      if (sample.is_number()) {
        out->metric_samples[name] = static_cast<uint64_t>(sample.int_number());
      }
    }
  }
  return true;
}

RegionController::RegionController(std::string name, topology::Network network,
                                   sim::EventQueue* clock)
    : name_(std::move(name)),
      clock_(clock),
      orch_(std::move(network), clock),
      alive_(std::make_shared<char>(0)) {
  obs::Registry().GetGauge("innet_region_degraded", {{"region", name_}})->Set(0);
}

RegionDigest RegionController::BuildDigest() {
  RegionDigest digest;
  digest.region = name_;
  digest.seq = ++digest_seq_;
  digest.generated_ns = clock_->now();
  digest.degraded = degraded_;
  std::vector<std::string> platform_names = orch_.fleet().Names();
  digest.platforms = platform_names.size();
  for (const std::string& platform_name : platform_names) {
    platform::InNetPlatform* box = orch_.fleet().Get(platform_name);
    if (box != nullptr) {
      digest.memory_total += box->vms().memory_total();
      digest.memory_used += box->vms().memory_used();
    }
  }
  for (const controller::Deployment& deployment : orch_.controller().deployments()) {
    if (orch_.HasPlacement(deployment.module_id)) {
      digest.live_modules.push_back(deployment.module_id);
    }
  }
  std::sort(digest.live_modules.begin(), digest.live_modules.end());
  digest.tenants = digest.live_modules.size();
  // The fleet-aggregation snapshot: cumulative counters from the region's
  // own control plane (never the process-wide registry, which a simulated
  // multi-region run shares). Keys are stable wire names, sorted by the map.
  // Strictly cumulative counters only: FleetView's per-digest deltas treat a
  // shrinking value as a counter reset, so a gauge (memory, live tenants —
  // both already first-class digest fields) would read as a reset storm.
  digest.metric_samples["control_giveups"] = orch_.control_client().giveups();
  digest.metric_samples["control_retries"] = orch_.control_client().retries();
  digest.metric_samples["control_timeouts"] = orch_.control_client().timeouts();
  digest.metric_samples["deploys_served"] =
      static_cast<uint64_t>(orch_.controller().deployments().size());
  // INT conformance, region-scoped the same way: sum the per-tenant
  // violation counters only for clients with a live module in THIS region —
  // the collector itself is shared across a simulated multi-region process.
  uint64_t path_violations = 0;
  std::set<std::string> region_clients;
  for (const controller::Deployment& deployment : orch_.controller().deployments()) {
    if (orch_.HasPlacement(deployment.module_id)) {
      region_clients.insert(deployment.client_id);
    }
  }
  for (const std::string& client : region_clients) {
    path_violations += obs::Int().TenantViolations(client);
  }
  digest.metric_samples["path_violations"] = path_violations;
  return digest;
}

void RegionController::HandleRegionOp(const ControlRequest& request, RespondFn respond) {
  NoteCoordinatorContact();
  // Propagated trace context: spans the handler opens (the orchestrator's
  // deploy / import trees) parent under the coordinator's span, so a
  // federated operation renders as one connected tree. Replays never reach
  // this handler (the endpoint answers them from its dedup cache), so a
  // WAN-duplicated request cannot emit duplicate child spans. A zero id is a
  // no-op.
  obs::ScopedParent trace_parent(obs::Tracer(),
                                 request.trace_id != 0 ? request.parent_span : 0);
  ControlResponse response;
  switch (request.op) {
    case ControlOp::kRegionDigest: {
      response.ok = true;
      response.payload_json = BuildDigest().ToJson().ToString();
      break;
    }
    case ControlOp::kRegionDeploy: {
      ClientRequest deploy_request;
      obs::json::Value payload;
      std::string error;
      if (!obs::json::Value::Parse(request.payload_json, &payload, &error) ||
          !ClientRequestFromJson(payload, &deploy_request, &error)) {
        response.error = "region " + name_ + ": bad deploy payload: " + error;
        break;
      }
      controller::OrchestratedDeploy deploy = orch_.Deploy(deploy_request);
      response.ok = deploy.outcome.accepted;
      response.error = deploy.outcome.reason;
      obs::json::Value outcome = obs::json::Value::Object();
      outcome.Set("module_id", deploy.outcome.module_id);
      outcome.Set("platform", deploy.outcome.platform);
      outcome.Set("addr", deploy.outcome.module_addr.ToString());
      response.payload_json = outcome.ToString();
      break;
    }
    case ControlOp::kRegionExport: {
      // Deferred completion: the ack carries the frozen guest once the
      // suspend lands on the simulated clock.
      orch_.ExportTenant(request.tenant,
                         [respond = std::move(respond)](const controller::TenantExport& exported) {
                           ControlResponse done;
                           done.ok = exported.ok;
                           done.error = exported.error;
                           done.moved = exported.moved;
                           done.payload_json =
                               ClientRequestToJson(exported.request).ToString();
                           respond(std::move(done));
                         });
      return;  // responded above (now or when the suspend lands)
    }
    case ControlOp::kRegionImport: {
      ClientRequest import_request;
      obs::json::Value payload;
      std::string error;
      if (!obs::json::Value::Parse(request.payload_json, &payload, &error) ||
          !ClientRequestFromJson(payload, &import_request, &error)) {
        response.error = "region " + name_ + ": bad import payload: " + error;
        break;
      }
      controller::TenantAdopt adopt = orch_.AdoptMigrated(import_request, request.moved);
      response.ok = adopt.ok;
      response.error = adopt.error;
      obs::json::Value outcome = obs::json::Value::Object();
      outcome.Set("module_id", adopt.module_id);
      outcome.Set("platform", adopt.platform);
      outcome.Set("addr", adopt.addr.ToString());
      response.payload_json = outcome.ToString();
      break;
    }
    default:
      response.error = "region " + name_ + ": not a federation op";
      break;
  }
  respond(std::move(response));
}

void RegionController::EnableDegradedMonitor() {
  if (degraded_monitor_) {
    return;
  }
  degraded_monitor_ = true;
  last_contact_ns_ = clock_->now();
  DegradedTick();
}

void RegionController::DegradedTick() {
  if (clock_->now() - last_contact_ns_ >= kSilenceThreshold) {
    if (!degraded_) {
      EnterDegraded();
    }
    // An update the region would have gossiped if it could reach the
    // coordinator; it queues locally and flushes at heal.
    ++queued_digests_;
    obs::Registry()
        .GetCounter("innet_region_queued_digests_total", {{"region", name_}})
        ->Increment();
  }
  std::weak_ptr<char> watch = alive_;
  clock_->ScheduleAfter(kSilenceThreshold / 2, [this, watch] {
    if (watch.expired()) {
      return;
    }
    DegradedTick();
  });
}

void RegionController::EnterDegraded() {
  degraded_ = true;
  obs::Registry().GetGauge("innet_region_degraded", {{"region", name_}})->Set(1);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionDegraded, "region:" + name_,
                         "entered: coordinator silent");
  }
}

void RegionController::ClearDegraded() {
  degraded_ = false;
  obs::Registry().GetGauge("innet_region_degraded", {{"region", name_}})->Set(0);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionDegraded, "region:" + name_,
                         "cleared: coordinator contact",
                         static_cast<int64_t>(queued_digests_));
  }
  queued_digests_ = 0;  // flushed with the next digest poll
}

void RegionController::NoteCoordinatorContact() {
  last_contact_ns_ = clock_->now();
  if (degraded_) {
    ClearDegraded();
  }
}

}  // namespace innet::federation
