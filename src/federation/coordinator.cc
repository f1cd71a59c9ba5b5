#include "src/federation/coordinator.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::federation {

using controller::ControlOp;
using controller::ControlRequest;
using controller::ControlResponse;

namespace {

// How often StartDigestPolling polls every region.
constexpr sim::TimeNs kDigestPeriod = 500 * sim::kMillisecond;
// Retry schedule for coordinator -> region ops (WAN links are slower than
// the intra-PoP control plane, so timeouts are roomier).
constexpr controller::ControlRetryPolicy kWanRetry{/*op_timeout=*/400 * sim::kMillisecond,
                                                   /*backoff_base=*/100 * sim::kMillisecond,
                                                   /*backoff_factor=*/2.0,
                                                   /*backoff_cap=*/2 * sim::kSecond,
                                                   /*max_attempts=*/5};
// Modeled RTT matrix: client -> own region, and per step of
// registration-order distance between regions.
constexpr double kIntraRttMs = 2.0;
constexpr double kInterRttStepMs = 20.0;

}  // namespace

// One federated deploy walking the ranked region list until a region accepts.
struct DeployAttempt {
  FederatedRequest request;
  std::vector<std::string> ranked;
  size_t index = 0;
  uint64_t trace_id = 0;  // root span every hop of this deploy parents under
  FederationCoordinator::DeployCallback on_done;
};

FederationCoordinator::FederationCoordinator(sim::EventQueue* clock)
    : clock_(clock),
      channel_(clock),
      client_(clock, &channel_, kWanRetry),
      alive_(std::make_shared<char>(0)) {
  channel_.set_fault_scope(controller::FaultScope::kRegion);
}

void FederationCoordinator::AddRegion(RegionController* region) {
  RegionState state;
  state.region = region;
  state.index = regions_.size();
  const std::string name = region->name();
  channel_.RegisterEndpoint(
      name, [region](const ControlRequest& request, controller::RespondFn respond) {
        region->HandleRegionOp(request, std::move(respond));
      });
  regions_[name] = std::move(state);
}

double FederationCoordinator::ModelRtt(const std::string& from, const std::string& to) const {
  if (from == to) {
    return kIntraRttMs;
  }
  auto from_it = regions_.find(from);
  auto to_it = regions_.find(to);
  if (from_it == regions_.end() || to_it == regions_.end()) {
    // Unknown client population: flat one-step RTT, so ranking falls back to
    // load alone.
    return kInterRttStepMs;
  }
  size_t a = from_it->second.index;
  size_t b = to_it->second.index;
  size_t distance = a > b ? a - b : b - a;
  return static_cast<double>(distance) * kInterRttStepMs;
}

void FederationCoordinator::StartDigestPolling() {
  if (polling_) {
    return;
  }
  polling_ = true;
  PollDigests();
  SchedulePollTick();
}

void FederationCoordinator::SchedulePollTick() {
  std::weak_ptr<char> watch = alive_;
  clock_->ScheduleAfter(kDigestPeriod, [this, watch] {
    if (watch.expired()) {
      return;
    }
    PollDigests();
    SchedulePollTick();
  });
}

void FederationCoordinator::PollDigests() {
  std::weak_ptr<char> watch = alive_;
  for (const auto& [name, state] : regions_) {
    obs::Registry()
        .GetCounter("innet_federation_digests_total", {{"event", "polled"}})
        ->Increment();
    ControlRequest request;
    request.op = ControlOp::kRegionDigest;
    request.tenant = "digest:" + name;
    request.attempt_epoch = 0;  // read-only: no dedup, every poll is fresh
    client_.Issue(name, request, [this, watch, name = name](ControlResponse response) {
      if (watch.expired()) {
        return;
      }
      if (!response.ok) {
        obs::Registry()
            .GetCounter("innet_federation_digests_total", {{"event", "lost"}})
            ->Increment();
        return;
      }
      obs::json::Value payload;
      std::string error;
      RegionDigest digest;
      if (!obs::json::Value::Parse(response.payload_json, &payload, &error) ||
          !RegionDigest::FromJson(payload, &digest, &error)) {
        obs::Registry()
            .GetCounter("innet_federation_digests_total", {{"event", "lost"}})
            ->Increment();
        return;
      }
      AcceptDigest(name, digest);
    });
  }
}

void FederationCoordinator::AcceptDigest(const std::string& region, const RegionDigest& digest) {
  auto it = regions_.find(region);
  if (it == regions_.end()) {
    return;
  }
  RegionState& state = it->second;
  if (state.have_digest && digest.seq <= state.digest.seq) {
    // A reordered WAN link delivered an older digest after a newer one; the
    // monotonic sequence makes dropping it safe.
    obs::Registry()
        .GetCounter("innet_federation_digests_total", {{"event", "reordered"}})
        ->Increment();
    return;
  }
  state.digest = digest;
  state.received_ns = clock_->now();
  state.have_digest = true;
  // Only *accepted* digests feed the fleet view: the seq guard above already
  // discarded duplicates and reorders, so each delta counts exactly once.
  fleet_view_.Ingest(region, digest.seq, clock_->now(), digest.degraded, digest.metric_samples);
  obs::Registry()
      .GetCounter("innet_federation_digests_total", {{"event", "received"}})
      ->Increment();
  obs::Registry()
      .GetGauge("innet_region_platforms", {{"region", region}})
      ->Set(static_cast<double>(digest.platforms));
  obs::Registry()
      .GetGauge("innet_region_tenants", {{"region", region}})
      ->Set(static_cast<double>(digest.tenants));
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionDigest, "region:" + region,
                         "seq=" + std::to_string(digest.seq) +
                             " tenants=" + std::to_string(digest.tenants) +
                             (digest.degraded ? " degraded" : ""),
                         static_cast<int64_t>(digest.seq));
  }
}

void FederationCoordinator::Deploy(const FederatedRequest& request, DeployCallback on_done) {
  std::vector<scheduler::RegionCandidate> candidates;
  const uint64_t now = clock_->now();
  const std::vector<std::string> anomalous = fleet_view_.AnomalousRegions(now);
  candidates.reserve(regions_.size());
  for (const auto& [name, state] : regions_) {
    scheduler::RegionCandidate candidate;
    candidate.name = name;
    candidate.rtt_ms = ModelRtt(request.client_region, name);
    candidate.anomalous = std::binary_search(anomalous.begin(), anomalous.end(), name);
    if (state.have_digest) {
      candidate.utilization = state.digest.utilization();
      candidate.degraded = state.digest.degraded;
      candidate.stale = now - state.received_ns > obs::FleetView::kStalenessWindowNs;
    } else {
      candidate.stale = true;  // never heard from it: last resort only
    }
    candidates.push_back(std::move(candidate));
  }
  auto attempt = std::make_shared<DeployAttempt>();
  attempt->request = request;
  attempt->ranked = scheduler::RankRegions(candidates);
  attempt->on_done = std::move(on_done);
  if (obs::Tracer().enabled()) {
    // Root of the federated operation: every WAN hop and every region-local
    // handler span parents under this id via the propagated trace context.
    attempt->trace_id = obs::Tracer().Record(
        now, obs::EventKind::kRegionDeploy, "client:" + request.request.client_id,
        "federated deploy from " + request.client_region);
  }
  TryDeploy(std::move(attempt));
}

void FederationCoordinator::TryDeploy(std::shared_ptr<DeployAttempt> attempt) {
  if (attempt->index >= attempt->ranked.size()) {
    obs::Registry()
        .GetCounter("innet_federation_deploys_total", {{"outcome", "unplaceable"}})
        ->Increment();
    FederatedDeploy out;
    out.error = "federation: no region accepted " + attempt->request.request.client_id;
    out.attempts = attempt->index;
    out.trace_id = attempt->trace_id;
    attempt->on_done(out);
    return;
  }
  const std::string region = attempt->ranked[attempt->index];
  ControlRequest request;
  request.op = ControlOp::kRegionDeploy;
  request.tenant = attempt->request.request.client_id;
  request.attempt_epoch = MintEpoch();
  request.payload_json = ClientRequestToJson(attempt->request.request).ToString();
  request.origin_region = "coordinator";
  request.trace_id = attempt->trace_id;
  request.parent_span = attempt->trace_id;
  std::weak_ptr<char> watch = alive_;
  client_.Issue(region, request, [this, watch, attempt, region](ControlResponse response) {
    if (watch.expired()) {
      return;
    }
    if (!response.ok) {
      // Rejected (admission/verify) or unreachable (gave up): either way the
      // ranking's next region gets its shot.
      ++attempt->index;
      TryDeploy(attempt);
      return;
    }
    FederatedDeploy out;
    out.ok = true;
    out.region = region;
    out.attempts = attempt->index + 1;
    out.failed_over = attempt->index > 0;
    out.trace_id = attempt->trace_id;
    obs::json::Value payload;
    std::string error;
    if (obs::json::Value::Parse(response.payload_json, &payload, &error)) {
      if (const obs::json::Value* module = payload.Find("module_id")) {
        out.module_id = module->string_value();
      }
      if (const obs::json::Value* platform = payload.Find("platform")) {
        out.platform = platform->string_value();
      }
    }
    if (!out.module_id.empty()) {
      beliefs_[out.module_id] = region;
    }
    obs::Registry()
        .GetCounter("innet_federation_deploys_total",
                    {{"outcome", out.failed_over ? "failed_over" : "accepted"}})
        ->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionDeploy,
                           "client:" + attempt->request.request.client_id,
                           "region=" + region + " module=" + out.module_id +
                               (out.failed_over ? " failed_over" : ""),
                           static_cast<int64_t>(out.attempts), attempt->trace_id);
    }
    attempt->on_done(out);
  });
}

void FederationCoordinator::Migrate(const std::string& module_id,
                                    const std::string& target_region,
                                    MigrationCallback on_done) {
  FederatedMigration out;
  out.module_id = module_id;
  out.target_region = target_region;
  if (obs::Tracer().enabled()) {
    // Root span of the migration: export, import, and (on rollback) the
    // source re-import all carry this id, so a cross-region move renders as
    // one connected tree even though it touches two regions' tracers.
    out.trace_id = obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionMigrate,
                                        "module:" + module_id, "requested -> " + target_region);
  }
  auto belief = beliefs_.find(module_id);
  if (belief == beliefs_.end()) {
    out.error = "federation: no placement belief for " + module_id;
    FinishMigration(out, on_done);
    return;
  }
  out.source_region = belief->second;
  if (regions_.count(target_region) == 0) {
    out.error = "federation: unknown target region " + target_region;
    FinishMigration(out, on_done);
    return;
  }
  if (out.source_region == target_region) {
    out.error = "federation: " + module_id + " already in " + target_region;
    FinishMigration(out, on_done);
    return;
  }
  ControlRequest export_request;
  export_request.op = ControlOp::kRegionExport;
  export_request.tenant = module_id;
  export_request.attempt_epoch = MintEpoch();
  export_request.origin_region = "coordinator";
  export_request.trace_id = out.trace_id;
  export_request.parent_span = out.trace_id;
  std::weak_ptr<char> watch = alive_;
  client_.Issue(out.source_region, export_request,
                [this, watch, out, on_done](ControlResponse exported) mutable {
    if (watch.expired()) {
      return;
    }
    if (!exported.ok) {
      // Export failed closed: the guest never left the source.
      out.error = "federation: export failed: " + exported.error;
      FinishMigration(out, on_done);
      return;
    }
    // From here the tenant no longer exists at the source — a failure must
    // re-import it there or the guest is lost.
    obs::json::Value payload;
    std::string error;
    controller::ClientRequest request;
    if (!obs::json::Value::Parse(exported.payload_json, &payload, &error) ||
        !ClientRequestFromJson(payload, &request, &error)) {
      out.lost = true;
      out.error = "federation: exported request unreadable: " + error;
      beliefs_.erase(out.module_id);
      FinishMigration(out, on_done);
      return;
    }
    auto moved = exported.moved;
    ControlRequest import_request;
    import_request.op = ControlOp::kRegionImport;
    import_request.tenant = out.module_id;
    import_request.attempt_epoch = MintEpoch();
    import_request.payload_json = ClientRequestToJson(request).ToString();
    import_request.moved = moved;
    import_request.origin_region = "coordinator";
    import_request.trace_id = out.trace_id;
    import_request.parent_span = out.trace_id;
    client_.Issue(out.target_region, import_request,
                  [this, watch, out, on_done, request, moved](ControlResponse imported) mutable {
      if (watch.expired()) {
        return;
      }
      if (imported.ok) {
        obs::json::Value outcome;
        std::string perror;
        if (obs::json::Value::Parse(imported.payload_json, &outcome, &perror)) {
          if (const obs::json::Value* module = outcome.Find("module_id")) {
            out.new_module_id = module->string_value();
          }
        }
        beliefs_.erase(out.module_id);
        if (!out.new_module_id.empty()) {
          beliefs_[out.new_module_id] = out.target_region;
        }
        out.ok = true;
        FinishMigration(out, on_done);
        return;
      }
      // Target refused or is unreachable: put the guest back at the source,
      // mirroring the single-region migration's import-failure rollback.
      ControlRequest undo;
      undo.op = ControlOp::kRegionImport;
      undo.tenant = out.module_id;
      undo.attempt_epoch = MintEpoch();
      undo.payload_json = ClientRequestToJson(request).ToString();
      undo.moved = moved;
      undo.origin_region = "coordinator";
      undo.trace_id = out.trace_id;
      undo.parent_span = out.trace_id;
      client_.Issue(out.source_region, undo,
                    [this, watch, out, on_done, imported](ControlResponse restored) mutable {
        if (watch.expired()) {
          return;
        }
        beliefs_.erase(out.module_id);
        if (restored.ok) {
          obs::json::Value outcome;
          std::string perror;
          std::string back_id;
          if (obs::json::Value::Parse(restored.payload_json, &outcome, &perror)) {
            if (const obs::json::Value* module = outcome.Find("module_id")) {
              back_id = module->string_value();
            }
          }
          if (!back_id.empty()) {
            beliefs_[back_id] = out.source_region;
          }
          out.error =
              "federation: target rejected (" + imported.error + "); guest restored at source";
        } else {
          out.lost = true;
          out.error = "federation: target rejected (" + imported.error +
                      ") and source re-import failed (" + restored.error + ")";
        }
        FinishMigration(out, on_done);
      });
    });
  });
}

void FederationCoordinator::FinishMigration(const FederatedMigration& result,
                                            const MigrationCallback& on_done) {
  const char* outcome = result.ok ? "completed" : (result.lost ? "lost" : "aborted");
  obs::Registry()
      .GetCounter("innet_federation_migrations_total", {{"outcome", outcome}})
      ->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionMigrate,
                         "module:" + result.module_id,
                         std::string(outcome) + " " + result.source_region + " -> " +
                             result.target_region +
                             (result.new_module_id.empty() ? "" : " as " + result.new_module_id),
                         0, result.trace_id);
  }
  on_done(result);
}

void FederationCoordinator::SetRegionPartitioned(const std::string& region, bool partitioned) {
  channel_.SetPartitioned(region, partitioned);
  if (!partitioned && regions_.count(region) != 0) {
    // Heal: pull truth over the direct path and converge beliefs now rather
    // than waiting for the next poll round.
    ReconcileRegion(region);
  }
}

FederationCoordinator::ReconcileOutcome FederationCoordinator::ReconcileRegion(
    const std::string& region) {
  ReconcileOutcome outcome;
  auto it = regions_.find(region);
  if (it == regions_.end()) {
    return outcome;
  }
  ControlRequest request;
  request.op = ControlOp::kRegionDigest;
  request.tenant = "digest:" + region;
  ControlResponse response = channel_.DeliverDirect(region, request);
  if (!response.ok) {
    return outcome;
  }
  obs::json::Value payload;
  std::string error;
  RegionDigest digest;
  if (!obs::json::Value::Parse(response.payload_json, &payload, &error) ||
      !RegionDigest::FromJson(payload, &digest, &error)) {
    return outcome;
  }
  AcceptDigest(region, digest);
  std::set<std::string> live(digest.live_modules.begin(), digest.live_modules.end());
  for (auto belief = beliefs_.begin(); belief != beliefs_.end();) {
    if (belief->second == region && live.count(belief->first) == 0) {
      belief = beliefs_.erase(belief);
      ++outcome.stale_dropped;
    } else {
      ++belief;
    }
  }
  for (const std::string& module : digest.live_modules) {
    auto [pos, inserted] = beliefs_.emplace(module, region);
    if (inserted) {
      ++outcome.discovered;
    } else {
      // The region's own digest is ground truth for modules it hosts.
      pos->second = region;
    }
  }
  obs::Registry()
      .GetCounter("innet_federation_reconcile_total", {{"outcome", "stale_dropped"}})
      ->Increment(outcome.stale_dropped);
  obs::Registry()
      .GetCounter("innet_federation_reconcile_total", {{"outcome", "discovered"}})
      ->Increment(outcome.discovered);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kRegionReconcile, "region:" + region,
                         "stale_dropped=" + std::to_string(outcome.stale_dropped) +
                             " discovered=" + std::to_string(outcome.discovered),
                         static_cast<int64_t>(outcome.stale_dropped));
  }
  return outcome;
}

size_t FederationCoordinator::StaleBeliefCount() const {
  size_t stale = 0;
  for (const auto& [module, region] : beliefs_) {
    auto it = regions_.find(region);
    if (it == regions_.end() || !it->second.have_digest) {
      ++stale;
      continue;
    }
    const std::vector<std::string>& live = it->second.digest.live_modules;
    if (!std::binary_search(live.begin(), live.end(), module)) {
      ++stale;
    }
  }
  return stale;
}

const RegionDigest* FederationCoordinator::ViewOf(const std::string& region) const {
  auto it = regions_.find(region);
  return it != regions_.end() && it->second.have_digest ? &it->second.digest : nullptr;
}

std::string FederationCoordinator::BeliefOf(const std::string& module_id) const {
  auto it = beliefs_.find(module_id);
  return it != beliefs_.end() ? it->second : std::string();
}

}  // namespace innet::federation
