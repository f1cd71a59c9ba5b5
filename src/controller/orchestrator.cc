#include "src/controller/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <unordered_map>

#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/trace.h"
#include "src/platform/consolidation.h"

namespace innet::controller {

using platform::InNetPlatform;
using platform::TenantConfig;
using platform::Vm;
using platform::VmState;

namespace {

// A control op gave up after exhausting retries: leave a breadcrumb in the
// platform's always-on flight recorder so a later post-mortem shows the
// controller losing contact.
void RecordGiveUp(PlatformFleet* fleet, sim::EventQueue* clock, const std::string& platform_name,
                  const std::string& what) {
  InNetPlatform* box = fleet->Get(platform_name);
  if (box != nullptr) {
    box->flight_recorder().Record(clock->now(), obs::EventKind::kControlGiveUp,
                                  "platform:" + platform_name, what);
  }
}

}  // namespace

// State threaded through a stateful migration's control-op chain
// (suspend -> verify -> export -> import -> cutover), kept alive by the
// channel callbacks that reference it.
struct Orchestrator::MigrationCtx {
  uint64_t journal_id = 0;
  std::string module_id;  // the pre-migration id
  std::string source;
  std::string target;
  platform::Vm::VmId vm_id = 0;       // the source guest
  platform::Vm::VmId new_vm_id = 0;   // the imported guest on the target
  ClientRequest request;              // original request, pin cleared
  DeployOutcome redo;                 // the target re-verification
  MigrationReport report;
  uint64_t migrate_span = 0;
  MigrationCallback on_done;
  std::shared_ptr<platform::InNetPlatform::MigratedVm> moved;
  // The target's quota share (null until the target verifies).
  std::shared_ptr<scheduler::ReservationGuard> guard;
  // The suspend request can fail synchronously (ideal channel, guest not
  // running); MigrateTenant turns that into started=false like the old
  // in-process call did.
  bool inline_phase = true;
  bool inline_failed = false;
  std::string inline_reason;
};

Orchestrator::Orchestrator(topology::Network network, sim::EventQueue* clock,
                           OrchestratorOptions options)
    : Orchestrator(std::move(network), clock, options, nullptr, nullptr) {}

Orchestrator::Orchestrator(topology::Network network, sim::EventQueue* clock,
                           OrchestratorOptions options, PlatformFleet* fleet,
                           DeployJournal* journal)
    : controller_(std::move(network)),
      clock_(clock),
      cost_model_(options.cost_model),
      options_(options),
      engine_(
          [this](const std::string& name, scheduler::PlatformResources* out) {
            return ProbePlatform(name, out);
          },
          options.policy),
      owned_fleet_(fleet == nullptr
                       ? std::make_unique<PlatformFleet>(clock, options.cost_model,
                                                         options.platform_memory_bytes)
                       : nullptr),
      owned_journal_(journal == nullptr ? std::make_unique<DeployJournal>() : nullptr),
      fleet_(fleet != nullptr ? fleet : owned_fleet_.get()),
      journal_(journal != nullptr ? journal : owned_journal_.get()),
      client_(clock, &fleet_->channel(), options.control_retry),
      alive_(std::make_shared<char>(0)) {
  for (const topology::Node* node : controller_.network().Platforms()) {
    fleet_->AddPlatform(node->name);
    platforms_.emplace(node->name, PlatformState{});
    engine_.ledger().AddPlatform(node->name);
  }
  ctr_migrations_started_ =
      obs::Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "started"}});
  ctr_migrations_completed_ =
      obs::Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "completed"}});
  ctr_migrations_aborted_ =
      obs::Registry().GetCounter("innet_scheduler_migrations_total", {{"event", "aborted"}});
  ctr_replays_ = obs::Registry().GetCounter("innet_journal_replays_total");
}

Orchestrator::~Orchestrator() {
  // A crash in mid-flight leaves guards captured inside continuations whose
  // clock events have not fired (or been destroyed) yet. Their engine pointer
  // is about to dangle: defuse them so a later event tear-down cannot release
  // into freed memory — the ledger dies with this controller either way, and
  // a successor rebuilds it from the journal.
  for (auto& weak : channel_guards_) {
    if (auto guard = weak.lock()) {
      guard->Confirm();
    }
  }
}

std::shared_ptr<scheduler::ReservationGuard> Orchestrator::MakeChannelGuard(
    const std::string& client_id) {
  auto guard =
      std::make_shared<scheduler::ReservationGuard>(&engine_, client_id, ModuleMemoryBytes());
  std::erase_if(channel_guards_, [](const auto& weak) { return weak.expired(); });
  channel_guards_.push_back(guard);
  return guard;
}

size_t Orchestrator::ConsolidatedTenantCount(const std::string& platform_name) const {
  auto it = platforms_.find(platform_name);
  return it == platforms_.end() ? 0 : it->second.consolidated.size();
}

const std::pair<std::string, Vm::VmId>* Orchestrator::FindPlacement(
    const std::string& module_id) const {
  auto it = placements_.find(module_id);
  return it == placements_.end() ? nullptr : &it->second;
}

bool Orchestrator::ProbePlatform(const std::string& name, scheduler::PlatformResources* out) {
  auto it = platforms_.find(name);
  InNetPlatform* box = fleet_->Get(name);
  if (it == platforms_.end() || box == nullptr) {
    return false;
  }
  out->memory_total = box->vms().memory_total();
  out->memory_used = box->vms().memory_used();
  out->vm_count = box->vms().vm_count();
  out->running_vms = box->vms().running_count();
  out->consolidated_tenants = it->second.consolidated.size();
  out->buffer_occupancy = box->buffer_occupancy();
  out->available = !controller_.IsPlatformFailed(name);
  return true;
}

Ipv4Address Orchestrator::ModuleAddr(const std::string& module_id) const {
  for (const Deployment& deployment : controller_.deployments()) {
    if (deployment.module_id == module_id) {
      return deployment.addr;
    }
  }
  return Ipv4Address();
}

Vm::VmId Orchestrator::RebuildSharedVm(const std::string& platform_name, PlatformState* state,
                                       std::string* error) {
  ControlRequest req;
  req.op = ControlOp::kRebuildShared;
  req.tenant = "shared:" + platform_name;
  req.attempt_epoch = journal_->MintEpoch();
  req.tenants = state->consolidated;
  req.vm_id = state->shared_vm;
  ControlResponse resp = fleet_->channel().DeliverDirect(platform_name, req);
  if (!resp.ok) {
    *error = resp.error;
    return 0;  // the old shared VM is kept
  }
  state->shared_vm = resp.vm_id;
  return resp.vm_id;  // 0 when the tenant list was empty
}

void Orchestrator::CommitPlacement(const ClientRequest& request, const std::string& module_id,
                                   const std::string& platform_name, Vm::VmId dedicated_vm) {
  placements_[module_id] = {platform_name, dedicated_vm};
  requests_[module_id] = request;
  // Every placement path (deploy, migration cutover, recovery) funnels
  // through here, so registering the digest here is what "carried through
  // migration" means: the new placement re-attests under the same keys.
  // Both keys matter: the control plane reports per client id, while
  // consolidated data planes attribute sampled packets by module address.
  for (const Deployment& dep : controller_.deployments()) {
    if (dep.module_id == module_id) {
      obs::IntPathDigest digest;
      // An empty digest (config with no symbolic model) attests nothing:
      // leave the tenant unattested rather than flag every walk.
      if (obs::IntPathDigest::Decode(dep.path_digest, &digest) && !digest.empty()) {
        obs::Int().SetTenantDigest(request.client_id, digest);
        obs::Int().SetTenantDigest(dep.addr.ToString(), digest);
      }
      break;
    }
  }
}

void Orchestrator::ClearModuleDigest(const std::string& module_id) {
  const Deployment* dead = nullptr;
  for (const Deployment& dep : controller_.deployments()) {
    if (dep.module_id == module_id) {
      dead = &dep;
      break;
    }
  }
  if (dead == nullptr) {
    return;
  }
  obs::Int().ClearTenantDigest(dead->addr.ToString());
  bool client_has_other = false;
  for (const Deployment& dep : controller_.deployments()) {
    if (dep.module_id != module_id && dep.client_id == dead->client_id) {
      client_has_other = true;
      break;
    }
  }
  if (!client_has_other) {
    obs::Int().ClearTenantDigest(dead->client_id);
  }
}

OrchestratedDeploy Orchestrator::Deploy(const ClientRequest& request) {
  // The request span roots the whole deploy tree: admission, placement
  // ranking, verification, and the on-platform boot all auto-parent to it.
  std::optional<obs::SpanScope> deploy_span;
  if (obs::Tracer().enabled()) {
    deploy_span.emplace(obs::Tracer(), clock_->now(), obs::EventKind::kDeployRequest,
                        "client:" + request.client_id);
  }
  // Write the intent ahead of everything else: a crash from here on leaves a
  // journal entry to converge from.
  uint64_t jid = journal_->Begin(JournalEntryKind::kDeploy, request, clock_->now());
  // Admission + placement ranking first: quota and headroom rejections must
  // not burn verification time.
  scheduler::PlacementRequest needs;
  needs.memory_bytes = ModuleMemoryBytes();
  needs.pinned_platform = request.pinned_platform;
  scheduler::PlacementDecision decision = engine_.Decide(request.client_id, needs);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kAdmission,
                         "client:" + request.client_id,
                         decision.admitted ? "admitted" : "rejected: " + decision.reject_reason);
  }
  if (!decision.admitted) {
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "admission rejected: " + decision.reject_reason);
    OrchestratedDeploy result;
    result.journal_id = jid;
    result.outcome.reason = decision.reject_reason;
    return result;
  }
  if (obs::Tracer().enabled()) {
    std::string ranked;
    for (const std::string& candidate : decision.candidates) {
      if (!ranked.empty()) {
        ranked += ',';
      }
      ranked += candidate;
    }
    obs::Tracer().Record(clock_->now(), obs::EventKind::kPlacementRanked,
                         "client:" + request.client_id, ranked,
                         static_cast<int64_t>(decision.candidates.size()));
  }
  // The guard releases the quota share on every early-exit path below;
  // only a fully-acked placement confirms it.
  scheduler::ReservationGuard guard(&engine_, request.client_id, ModuleMemoryBytes());
  OrchestratedDeploy result = DeployOn(request, decision.candidates, jid);
  if (result.outcome.accepted) {
    guard.Confirm();
  }
  obs::Health().ObserveVerifyLatency(request.client_id,
                                     static_cast<double>(result.outcome.sim_verify_ns) / 1e6);
  return result;
}

OrchestratedDeploy Orchestrator::DeployOn(const ClientRequest& request,
                                          const std::vector<std::string>& candidates,
                                          uint64_t journal_id) {
  OrchestratedDeploy result;
  result.journal_id = journal_id;
  result.outcome = controller_.Deploy(request, candidates);
  if (!result.outcome.accepted) {
    if (journal_id != 0) {
      journal_->Advance(journal_id, JournalState::kRolledBack, clock_->now(),
                        "verification failed: " + result.outcome.reason);
    }
    return result;
  }
  auto it = platforms_.find(result.outcome.platform);
  if (it == platforms_.end()) {
    result.outcome.accepted = false;
    result.outcome.reason = "platform has no data-plane instance";
    controller_.Kill(result.outcome.module_id);
    if (journal_id != 0) {
      journal_->Advance(journal_id, JournalState::kRolledBack, clock_->now(),
                        result.outcome.reason);
    }
    return result;
  }
  PlatformState& state = it->second;
  const Deployment& deployment = controller_.deployments().back();
  bool stateless = platform::IsStatelessConfig(deployment.config) && !result.outcome.sandboxed;
  JournalEntry* entry = journal_id != 0 ? journal_->Find(journal_id) : nullptr;
  if (entry != nullptr) {
    entry->module_id = result.outcome.module_id;
    entry->platform = result.outcome.platform;
    entry->addr = result.outcome.module_addr.ToString();
    entry->sandboxed = result.outcome.sandboxed;
    entry->consolidated = stateless;
    entry->path_digest = deployment.path_digest;
    journal_->Advance(journal_id, JournalState::kVerified, clock_->now());
  }

  std::string error;
  if (stateless) {
    // Consolidate: static checking already proved the module safe in
    // isolation; merging adds only the explicit-addressing demux.
    state.consolidated.push_back(TenantConfig{deployment.addr, deployment.config_text});
    state.consolidated_module_ids.push_back(result.outcome.module_id);
    Vm::VmId vm = RebuildSharedVm(result.outcome.platform, &state, &error);
    if (vm == 0) {
      state.consolidated.pop_back();
      state.consolidated_module_ids.pop_back();
      controller_.Kill(result.outcome.module_id);
      result.outcome.accepted = false;
      result.outcome.reason = "consolidation failed: " + error;
      if (journal_id != 0) {
        journal_->Advance(journal_id, JournalState::kRolledBack, clock_->now(),
                          result.outcome.reason);
      }
      return result;
    }
    result.consolidated = true;
    result.vm_id = vm;
    CommitPlacement(request, result.outcome.module_id, result.outcome.platform, 0);
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kDeployCutover,
                           "module:" + result.outcome.module_id,
                           result.outcome.platform + " consolidated", static_cast<int64_t>(vm));
    }
    if (journal_id != 0) {
      if (entry != nullptr) {
        entry->vm_id = vm;
      }
      // The direct path completed synchronously: the platform's ack walks
      // the entry straight through placed to steady state.
      journal_->Advance(journal_id, JournalState::kPlaced, clock_->now(), "synchronous ack");
      journal_->Advance(journal_id, JournalState::kCutover, clock_->now());
    }
    return result;
  }

  // Dedicated VM, sandboxed when the verdict requires it. Still an explicit
  // control message — just on the channel's fault-exempt direct path.
  ControlRequest req;
  req.op = ControlOp::kInstall;
  req.tenant = result.outcome.module_id;
  req.attempt_epoch = journal_->MintEpoch();
  req.addr = deployment.addr;
  req.config_text = deployment.config_text;
  req.sandbox = result.outcome.sandboxed;
  req.whitelist = request.whitelist;
  if (entry != nullptr) {
    entry->op_epoch = req.attempt_epoch;
  }
  ControlResponse resp = fleet_->channel().DeliverDirect(result.outcome.platform, req);
  if (!resp.ok) {
    controller_.Kill(result.outcome.module_id);
    result.outcome.accepted = false;
    result.outcome.reason = "platform install failed: " + resp.error;
    if (journal_id != 0) {
      journal_->Advance(journal_id, JournalState::kRolledBack, clock_->now(),
                        result.outcome.reason);
    }
    return result;
  }
  result.vm_id = resp.vm_id;
  // Dedicated guests are attributable: tag the owner before the boot
  // completion fires so lifecycle events feed the tenant's health record.
  fleet_->Get(result.outcome.platform)->SetVmOwner(resp.vm_id, request.client_id);
  CommitPlacement(request, result.outcome.module_id, result.outcome.platform, resp.vm_id);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kDeployCutover,
                         "module:" + result.outcome.module_id, result.outcome.platform,
                         static_cast<int64_t>(resp.vm_id));
  }
  if (journal_id != 0) {
    if (entry != nullptr) {
      entry->vm_id = resp.vm_id;
    }
    journal_->Advance(journal_id, JournalState::kPlaced, clock_->now(), "synchronous ack");
    journal_->Advance(journal_id, JournalState::kCutover, clock_->now());
  }
  return result;
}

void Orchestrator::DeployViaChannel(const ClientRequest& request, DeployCallback on_done) {
  std::optional<obs::SpanScope> deploy_span;
  if (obs::Tracer().enabled()) {
    deploy_span.emplace(obs::Tracer(), clock_->now(), obs::EventKind::kDeployRequest,
                        "client:" + request.client_id, "channel");
  }
  uint64_t jid = journal_->Begin(JournalEntryKind::kDeploy, request, clock_->now());
  OrchestratedDeploy result;
  result.journal_id = jid;

  scheduler::PlacementRequest needs;
  needs.memory_bytes = ModuleMemoryBytes();
  needs.pinned_platform = request.pinned_platform;
  scheduler::PlacementDecision decision = engine_.Decide(request.client_id, needs);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kAdmission,
                         "client:" + request.client_id,
                         decision.admitted ? "admitted" : "rejected: " + decision.reject_reason);
  }
  if (!decision.admitted) {
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "admission rejected: " + decision.reject_reason);
    result.outcome.reason = decision.reject_reason;
    if (on_done) {
      on_done(result);
    }
    return;
  }

  result.outcome = controller_.Deploy(request, decision.candidates);
  obs::Health().ObserveVerifyLatency(request.client_id,
                                     static_cast<double>(result.outcome.sim_verify_ns) / 1e6);
  if (!result.outcome.accepted) {
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "verification failed: " + result.outcome.reason);
    if (on_done) {
      on_done(result);
    }
    return;
  }
  auto it = platforms_.find(result.outcome.platform);
  if (it == platforms_.end()) {
    controller_.Kill(result.outcome.module_id);
    result.outcome.accepted = false;
    result.outcome.reason = "platform has no data-plane instance";
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(), result.outcome.reason);
    if (on_done) {
      on_done(result);
    }
    return;
  }
  const Deployment& deployment = controller_.deployments().back();
  bool stateless = platform::IsStatelessConfig(deployment.config) && !result.outcome.sandboxed;
  JournalEntry* entry = journal_->Find(jid);
  entry->module_id = result.outcome.module_id;
  entry->platform = result.outcome.platform;
  entry->addr = result.outcome.module_addr.ToString();
  entry->sandboxed = result.outcome.sandboxed;
  entry->consolidated = stateless;
  entry->path_digest = deployment.path_digest;
  journal_->Advance(jid, JournalState::kVerified, clock_->now());
  uint64_t epoch = journal_->MintEpoch();
  entry->op_epoch = epoch;

  // The reservation travels with the async chain; if the chain dies on any
  // path without confirming, the guard's destructor releases the share.
  auto guard = MakeChannelGuard(request.client_id);
  std::weak_ptr<char> watch = alive_;
  const std::string platform_name = result.outcome.platform;
  const std::string module_id = result.outcome.module_id;

  if (stateless) {
    TenantConfig tenant{deployment.addr, deployment.config_text};
    EnqueueRebuild(
        platform_name,
        [this, watch, jid, request, result, guard, epoch, platform_name, module_id, tenant,
         on_done](std::function<void()> next) mutable {
          if (watch.expired()) {
            return;
          }
          // Desired tenant list computed only now: earlier queued rebuilds
          // have landed, so this is the authoritative merge set.
          PlatformState& state = platforms_[platform_name];
          std::vector<TenantConfig> desired = state.consolidated;
          desired.push_back(tenant);
          ControlRequest req;
          req.op = ControlOp::kRebuildShared;
          req.tenant = module_id;
          req.attempt_epoch = epoch;
          req.tenants = std::move(desired);
          req.vm_id = state.shared_vm;
          client_.Issue(
              platform_name, req,
              [this, watch, jid, request, result, guard, platform_name, module_id, tenant,
               on_done, next](ControlResponse resp) mutable {
                if (watch.expired()) {
                  return;
                }
                uint64_t now = clock_->now();
                if (resp.ok) {
                  PlatformState& acked_state = platforms_[platform_name];
                  acked_state.consolidated.push_back(tenant);
                  acked_state.consolidated_module_ids.push_back(module_id);
                  acked_state.shared_vm = resp.vm_id;
                  CommitPlacement(request, module_id, platform_name, 0);
                  guard->Confirm();
                  result.consolidated = true;
                  result.vm_id = resp.vm_id;
                  if (JournalEntry* e = journal_->Find(jid)) {
                    e->vm_id = resp.vm_id;
                  }
                  journal_->Advance(jid, JournalState::kPlaced, now, "platform acked rebuild");
                  if (obs::Tracer().enabled()) {
                    obs::Tracer().Record(now, obs::EventKind::kDeployCutover,
                                         "module:" + module_id,
                                         platform_name + " consolidated",
                                         static_cast<int64_t>(resp.vm_id));
                  }
                  ScheduleConfirm(jid, options_.confirm_rounds);
                } else {
                  controller_.Kill(module_id);
                  if (resp.gave_up) {
                    RecordGiveUp(fleet_, clock_, platform_name, "install:" + module_id);
                    pending_cleanups_.emplace_back(platform_name, tenant.addr);
                  }
                  journal_->Advance(jid, JournalState::kRolledBack, now,
                                    "install failed: " + resp.error);
                  result.outcome.accepted = false;
                  result.outcome.reason = "platform install failed: " + resp.error;
                }
                if (on_done) {
                  on_done(result);
                }
                next();
              });
        });
    return;
  }

  ControlRequest req;
  req.op = ControlOp::kInstall;
  req.tenant = module_id;
  req.attempt_epoch = epoch;
  req.addr = deployment.addr;
  req.config_text = deployment.config_text;
  req.sandbox = result.outcome.sandboxed;
  req.whitelist = request.whitelist;
  Ipv4Address addr = deployment.addr;
  client_.Issue(
      platform_name, req,
      [this, watch, jid, request, result, guard, platform_name, module_id, addr,
       on_done](ControlResponse resp) mutable {
        if (watch.expired()) {
          return;
        }
        uint64_t now = clock_->now();
        if (resp.ok) {
          InNetPlatform* box = fleet_->Get(platform_name);
          if (box != nullptr) {
            box->SetVmOwner(resp.vm_id, request.client_id);
          }
          CommitPlacement(request, module_id, platform_name, resp.vm_id);
          guard->Confirm();
          result.vm_id = resp.vm_id;
          if (JournalEntry* e = journal_->Find(jid)) {
            e->vm_id = resp.vm_id;
          }
          journal_->Advance(jid, JournalState::kPlaced, now, "platform acked install");
          if (obs::Tracer().enabled()) {
            obs::Tracer().Record(now, obs::EventKind::kDeployCutover, "module:" + module_id,
                                 platform_name, static_cast<int64_t>(resp.vm_id));
          }
          ScheduleConfirm(jid, options_.confirm_rounds);
        } else {
          controller_.Kill(module_id);
          if (resp.gave_up) {
            RecordGiveUp(fleet_, clock_, platform_name, "install:" + module_id);
            // The platform may have executed the unacked install: queue an
            // idempotent uninstall for the heal-time reconcile, and fire a
            // best-effort one now in case only the ack leg was lossy.
            pending_cleanups_.emplace_back(platform_name, addr);
            ControlRequest undo;
            undo.op = ControlOp::kUninstallAddr;
            undo.tenant = module_id;
            undo.attempt_epoch = journal_->MintEpoch();
            undo.addr = addr;
            client_.Issue(platform_name, undo, nullptr);
          }
          journal_->Advance(jid, JournalState::kRolledBack, now,
                            "install failed: " + resp.error);
          result.outcome.accepted = false;
          result.outcome.reason = "platform install failed: " + resp.error;
        }
        if (on_done) {
          on_done(result);
        }
      });
}

void Orchestrator::EnqueueRebuild(const std::string& platform_name,
                                  std::function<void(std::function<void()>)> task) {
  PlatformState& state = platforms_[platform_name];
  state.rebuild_queue.push_back(std::move(task));
  if (!state.rebuild_busy) {
    RunNextRebuild(platform_name);
  }
}

void Orchestrator::RunNextRebuild(const std::string& platform_name) {
  PlatformState& state = platforms_[platform_name];
  if (state.rebuild_queue.empty()) {
    state.rebuild_busy = false;
    return;
  }
  state.rebuild_busy = true;
  auto task = std::move(state.rebuild_queue.front());
  state.rebuild_queue.pop_front();
  std::weak_ptr<char> watch = alive_;
  task([this, watch, platform_name] {
    if (watch.expired()) {
      return;
    }
    RunNextRebuild(platform_name);
  });
}

void Orchestrator::ScheduleConfirm(uint64_t journal_id, int rounds_left) {
  if (rounds_left <= 0) {
    return;
  }
  std::weak_ptr<char> watch = alive_;
  clock_->ScheduleAfter(options_.confirm_interval, [this, watch, journal_id, rounds_left] {
    if (watch.expired()) {
      return;
    }
    ConfirmProbe(journal_id, rounds_left);
  });
}

void Orchestrator::ConfirmProbe(uint64_t journal_id, int rounds_left) {
  JournalEntry* entry = journal_->Find(journal_id);
  if (entry == nullptr ||
      (entry->state != JournalState::kPlaced && entry->state != JournalState::kBooted)) {
    return;  // completed, rolled back, or killed since the probe was armed
  }
  auto placement = placements_.find(entry->module_id);
  if (placement == placements_.end() || placement->second.first != entry->platform) {
    return;  // killed or migrated away meanwhile
  }
  ControlRequest probe;
  probe.op = ControlOp::kHealthProbe;  // epoch 0: read-only, no dedup
  probe.tenant = entry->module_id;
  if (entry->consolidated) {
    probe.vm_id = platforms_[entry->platform].shared_vm;
    if (auto addr = Ipv4Address::Parse(entry->addr)) {
      probe.addr = *addr;
    }
  } else {
    probe.vm_id = placement->second.second;
  }
  std::weak_ptr<char> watch = alive_;
  bool consolidated = entry->consolidated;
  std::string platform_name = entry->platform;
  client_.Issue(
      platform_name, probe,
      [this, watch, journal_id, rounds_left, consolidated, platform_name](ControlResponse r) {
        if (watch.expired()) {
          return;
        }
        JournalEntry* live = journal_->Find(journal_id);
        if (live == nullptr ||
            (live->state != JournalState::kPlaced && live->state != JournalState::kBooted)) {
          return;
        }
        uint64_t now = clock_->now();
        if (r.gave_up) {
          // Unreachable (partitioned): stop probing; the heal reconcile
          // re-arms the chain.
          RecordGiveUp(fleet_, clock_, platform_name, "confirm:" + live->module_id);
          return;
        }
        bool up = r.ok && r.vm_known &&
                  (r.vm_state == VmState::kRunning || r.vm_state == VmState::kSuspended);
        if (up) {
          if (live->state == JournalState::kPlaced) {
            journal_->Advance(journal_id, JournalState::kBooted, now, "probe saw guest up");
            ScheduleConfirm(journal_id, rounds_left - 1);
          } else {
            journal_->Advance(journal_id, JournalState::kCutover, now,
                              "steady state confirmed");
          }
          return;
        }
        if (r.ok && !r.vm_known && !consolidated) {
          // The dedicated guest vanished before it ever confirmed.
          journal_->Advance(journal_id, JournalState::kKilled, now,
                            "guest lost before cut-over");
          Kill(live->module_id);
          return;
        }
        // Still booting / resuming (or a transient error): probe again.
        ScheduleConfirm(journal_id, rounds_left - 1);
      });
}

bool Orchestrator::Kill(const std::string& module_id) {
  auto placement = placements_.find(module_id);
  if (placement == placements_.end()) {
    return false;  // never placed (or already killed): clean no-op
  }
  const std::string platform_name = placement->second.first;
  const Vm::VmId vm_id = placement->second.second;
  PlatformState& state = platforms_.at(platform_name);
  if (vm_id != 0) {
    ControlRequest req;
    req.op = ControlOp::kUninstallVm;
    req.tenant = module_id;
    req.attempt_epoch = journal_->MintEpoch();
    req.vm_id = vm_id;
    fleet_->channel().DeliverDirect(platform_name, req);
  } else {
    for (size_t i = 0; i < state.consolidated_module_ids.size(); ++i) {
      if (state.consolidated_module_ids[i] == module_id) {
        state.consolidated.erase(state.consolidated.begin() + static_cast<ptrdiff_t>(i));
        state.consolidated_module_ids.erase(state.consolidated_module_ids.begin() +
                                            static_cast<ptrdiff_t>(i));
        break;
      }
    }
    std::string error;
    RebuildSharedVm(platform_name, &state, &error);
  }
  auto request = requests_.find(module_id);
  if (request != requests_.end()) {
    engine_.ReleasePlacement(request->second.client_id, ModuleMemoryBytes());
    requests_.erase(request);
  }
  placements_.erase(placement);
  journal_->MarkModuleTerminal(module_id, JournalState::kKilled, clock_->now(), "killed");
  ClearModuleDigest(module_id);
  return controller_.Kill(module_id);
}

MigrationStart Orchestrator::MigrateTenant(const std::string& module_id,
                                           const std::string& target_platform,
                                           MigrationCallback on_done) {
  MigrationStart start;
  auto placement = placements_.find(module_id);
  if (placement == placements_.end()) {
    start.reason = "unknown module id";
    return start;
  }
  const std::string source = placement->second.first;
  Vm::VmId vm_id = placement->second.second;
  if (source == target_platform) {
    start.reason = "module already on target platform";
    return start;
  }
  if (platforms_.count(target_platform) == 0) {
    start.reason = "unknown target platform";
    return start;
  }
  if (controller_.IsPlatformFailed(target_platform)) {
    start.reason = "target platform is failed";
    return start;
  }
  auto request_it = requests_.find(module_id);
  if (request_it == requests_.end()) {
    start.reason = "no recorded request for module";
    return start;
  }

  // Journal the intent before any message leaves the controller, linked to
  // the deploy entry this migration supersedes on success.
  uint64_t jid = journal_->Begin(JournalEntryKind::kMigration, request_it->second, clock_->now());
  uint64_t supersedes = 0;
  for (const JournalEntry& je : journal_->entries()) {
    if (je.id != jid && je.module_id == module_id && !DeployJournal::IsTerminal(je.state)) {
      supersedes = je.id;  // newest live entry wins
    }
  }
  {
    JournalEntry* e = journal_->Find(jid);
    e->module_id = module_id;
    e->platform = target_platform;
    e->source_platform = source;
    e->vm_id = vm_id;
    e->supersedes = supersedes;
  }

  if (vm_id == 0) {
    // Consolidated (stateless) tenant: migration degenerates to
    // make-before-break redeployment — there is no guest state to carry.
    // The whole exchange is synchronous, so one SpanScope parents the
    // redeploy and the abort/cutover records below.
    ctr_migrations_started_->Increment();
    std::optional<obs::SpanScope> migrate_span;
    if (obs::Tracer().enabled()) {
      migrate_span.emplace(obs::Tracer(), clock_->now(), obs::EventKind::kMigrateStart,
                           "module:" + module_id, source + "->" + target_platform);
    }
    MigrationReport report;
    report.module_id = module_id;
    report.source = source;
    report.target = target_platform;
    report.old_addr = ModuleAddr(module_id);
    ClientRequest request = request_it->second;
    request.pinned_platform.clear();
    OrchestratedDeploy redo = DeployOn(request, {target_platform}, jid);
    if (!redo.outcome.accepted) {
      ctr_migrations_aborted_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort, "module:" + module_id,
                             redo.outcome.reason);
      }
      report.reason = "target verification failed: " + redo.outcome.reason;
      if (on_done) {
        on_done(report);
      }
      start.started = true;
      return start;
    }
    scheduler::ReservationGuard guard(&engine_, request.client_id, ModuleMemoryBytes());
    if (supersedes != 0) {
      journal_->Advance(supersedes, JournalState::kSuperseded, clock_->now(),
                        "migrated to " + target_platform);
    }
    Kill(module_id);  // releases the old placement's quota share
    guard.Confirm();
    report.ok = true;
    report.new_module_id = redo.outcome.module_id;
    report.new_addr = redo.outcome.module_addr;
    ctr_migrations_completed_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateCutover, "module:" + module_id,
                           source + "->" + target_platform);
    }
    if (on_done) {
      on_done(report);
    }
    start.started = true;
    return start;
  }

  // Stateful guest: suspend over the channel (the platform-side agent parks
  // stalled traffic and acks when the guest is frozen); the chain continues
  // when the ack arrives. The migrate-start span is opened before the
  // suspend so every chained record hangs off one migration tree.
  uint64_t migrate_span = 0;
  if (obs::Tracer().enabled()) {
    migrate_span = obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateStart,
                                        "module:" + module_id, source + "->" + target_platform);
  }
  auto ctx = std::make_shared<MigrationCtx>();
  ctx->journal_id = jid;
  ctx->module_id = module_id;
  ctx->source = source;
  ctx->target = target_platform;
  ctx->vm_id = vm_id;
  ctx->request = request_it->second;
  ctx->request.pinned_platform.clear();
  ctx->migrate_span = migrate_span;
  ctx->on_done = std::move(on_done);
  ctx->report.module_id = module_id;
  ctx->report.source = source;
  ctx->report.target = target_platform;
  ctx->report.live = true;
  ctx->report.old_addr = ModuleAddr(module_id);
  {
    JournalEntry* e = journal_->Find(jid);
    e->op_epoch = journal_->MintEpoch();
    ControlRequest req;
    req.op = ControlOp::kSuspend;
    req.tenant = module_id;
    req.attempt_epoch = e->op_epoch;
    req.vm_id = vm_id;
    std::weak_ptr<char> watch = alive_;
    obs::ScopedParent in_migration(obs::Tracer(), migrate_span);
    client_.Issue(source, req, [this, watch, ctx](ControlResponse response) {
      if (watch.expired()) {
        return;
      }
      MigrationSuspendDone(ctx, std::move(response));
    });
  }
  if (ctx->inline_failed) {
    // Mirrors the old in-process behavior: a guest that is not running
    // fails the start synchronously, with no started/aborted counting.
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(), ctx->inline_reason);
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort, "module:" + module_id,
                           ctx->inline_reason, 0, migrate_span);
    }
    InNetPlatform* box = fleet_->Get(source);
    if (box != nullptr) {
      box->TakePostmortem(obs::EventKind::kMigrateAbort, vm_id, ctx->inline_reason);
    }
    start.reason = ctx->inline_reason;
    return start;
  }
  ctx->inline_phase = false;
  ctr_migrations_started_->Increment();
  start.started = true;
  return start;
}

void Orchestrator::AbortMigration(const std::shared_ptr<MigrationCtx>& ctx,
                                  const std::string& reason) {
  obs::ScopedParent in_migration(obs::Tracer(), ctx->migrate_span);
  ctr_migrations_aborted_->Increment();
  journal_->Advance(ctx->journal_id, JournalState::kRolledBack, clock_->now(), reason);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort,
                         "module:" + ctx->module_id, reason);
  }
  // Post-mortem on the source platform (when it still exists): the guest's
  // last element counters and the events leading up to the abort.
  InNetPlatform* box = fleet_->Get(ctx->source);
  if (box != nullptr) {
    box->TakePostmortem(obs::EventKind::kMigrateAbort, ctx->vm_id, reason);
  }
  if (ctx->guard != nullptr) {
    ctx->guard->Release();
  }
  ctx->report.reason = reason;
  if (ctx->on_done) {
    ctx->on_done(ctx->report);
  }
}

void Orchestrator::MigrationSuspendDone(const std::shared_ptr<MigrationCtx>& ctx,
                                        ControlResponse response) {
  if (!response.ok) {
    if (ctx->inline_phase) {
      ctx->inline_failed = true;
      ctx->inline_reason = response.error;
      return;
    }
    if (response.gave_up) {
      // The suspend may or may not have landed; best-effort cancel now, the
      // heal-time reconcile resolves whatever remains.
      RecordGiveUp(fleet_, clock_, ctx->source, "suspend:" + ctx->module_id);
      ControlRequest cancel;
      cancel.op = ControlOp::kCancelMigration;
      cancel.tenant = ctx->module_id;
      cancel.attempt_epoch = journal_->MintEpoch();
      cancel.vm_id = ctx->vm_id;
      client_.Issue(ctx->source, cancel, nullptr);
    }
    AbortMigration(ctx, response.error);
    return;
  }
  obs::ScopedParent in_migration(obs::Tracer(), ctx->migrate_span);
  auto cancel_source = [this, &ctx] {
    ControlRequest cancel;
    cancel.op = ControlOp::kCancelMigration;
    cancel.tenant = ctx->module_id;
    cancel.attempt_epoch = journal_->MintEpoch();
    cancel.vm_id = ctx->vm_id;
    client_.Issue(ctx->source, cancel, nullptr);
  };
  if (placements_.count(ctx->module_id) == 0 || requests_.count(ctx->module_id) == 0) {
    cancel_source();
    AbortMigration(ctx, "module disappeared during suspend");
    return;
  }

  // Re-verify on the target while the guest is frozen. The old deployment
  // stays committed during the check, so the verifier sees the worst-case
  // network with both copies present; only after the target passes does the
  // old one disappear.
  DeployOutcome redo = controller_.Deploy(ctx->request, {ctx->target});
  if (!redo.accepted) {
    cancel_source();
    AbortMigration(ctx, "target verification failed: " + redo.reason);
    return;
  }
  ctx->redo = redo;
  JournalEntry* e = journal_->Find(ctx->journal_id);
  if (e != nullptr) {
    e->module_id = redo.module_id;  // the entry now tracks the new placement
    e->addr = redo.module_addr.ToString();
    e->sandboxed = redo.sandboxed;
  }
  journal_->Advance(ctx->journal_id, JournalState::kVerified, clock_->now(),
                    "target verified");
  // Reserve the target's quota share for the duration of the transfer.
  ctx->guard = MakeChannelGuard(ctx->request.client_id);

  ControlRequest exp;
  exp.op = ControlOp::kSnapshotExport;
  exp.tenant = ctx->module_id;
  exp.attempt_epoch = journal_->MintEpoch();
  exp.vm_id = ctx->vm_id;
  if (e != nullptr) {
    e->op_epoch = exp.attempt_epoch;
  }
  std::weak_ptr<char> watch = alive_;
  client_.Issue(ctx->source, exp, [this, watch, ctx](ControlResponse resp) {
    if (watch.expired()) {
      return;
    }
    MigrationExportDone(ctx, std::move(resp));
  });
}

void Orchestrator::MigrationExportDone(const std::shared_ptr<MigrationCtx>& ctx,
                                       ControlResponse response) {
  obs::ScopedParent in_migration(obs::Tracer(), ctx->migrate_span);
  if (!response.ok || !response.moved) {
    controller_.Kill(ctx->redo.module_id);
    if (response.gave_up) {
      RecordGiveUp(fleet_, clock_, ctx->source, "export:" + ctx->module_id);
      AbortMigration(ctx, response.error);
      return;
    }
    // The guest was lost while suspended; clear the migration mark so the
    // watchdog path owns whatever is left of it.
    ControlRequest cancel;
    cancel.op = ControlOp::kCancelMigration;
    cancel.tenant = ctx->module_id;
    cancel.attempt_epoch = journal_->MintEpoch();
    cancel.vm_id = ctx->vm_id;
    client_.Issue(ctx->source, cancel, nullptr);
    AbortMigration(ctx, "detach failed: " + response.error);
    return;
  }
  ctx->moved = response.moved;
  ctx->report.parked_packets = ctx->moved->parked.size();
  journal_->MarkExported(ctx->journal_id, clock_->now());

  ControlRequest imp;
  imp.op = ControlOp::kSnapshotImport;
  imp.tenant = ctx->redo.module_id;
  imp.attempt_epoch = journal_->MintEpoch();
  imp.addr = ctx->redo.module_addr;
  imp.moved = ctx->moved;
  if (JournalEntry* e = journal_->Find(ctx->journal_id)) {
    e->op_epoch = imp.attempt_epoch;
  }
  std::weak_ptr<char> watch = alive_;
  client_.Issue(ctx->target, imp, [this, watch, ctx](ControlResponse resp) {
    if (watch.expired()) {
      return;
    }
    MigrationImportDone(ctx, std::move(resp));
  });
}

void Orchestrator::MigrationImportDone(const std::shared_ptr<MigrationCtx>& ctx,
                                       ControlResponse response) {
  obs::ScopedParent in_migration(obs::Tracer(), ctx->migrate_span);
  if (response.ok) {
    ctx->new_vm_id = response.vm_id;
    if (JournalEntry* e = journal_->Find(ctx->journal_id)) {
      e->vm_id = response.vm_id;
    }
    journal_->Advance(ctx->journal_id, JournalState::kPlaced, clock_->now(),
                      "target adopted guest");
    ControlRequest cut;
    cut.op = ControlOp::kCutover;
    cut.tenant = ctx->redo.module_id;
    cut.attempt_epoch = journal_->MintEpoch();
    cut.addr = ctx->redo.module_addr;
    cut.moved = ctx->moved;
    if (JournalEntry* e = journal_->Find(ctx->journal_id)) {
      e->op_epoch = cut.attempt_epoch;
    }
    std::weak_ptr<char> watch = alive_;
    client_.Issue(ctx->target, cut, [this, watch, ctx](ControlResponse resp) {
      if (watch.expired()) {
        return;
      }
      MigrationCutoverDone(ctx, std::move(resp));
    });
    return;
  }

  // The target did not (or may not have) adopted the guest. Undo the
  // target-side verification and re-adopt on the source — its RAM was freed
  // by the suspend, so the import fits. The re-import carries a single
  // idempotency token, so duplicated or retried messages resume the source
  // exactly once.
  std::string fail_reason = response.gave_up ? response.error
                                             : "target install failed: " + response.error;
  controller_.Kill(ctx->redo.module_id);
  if (response.gave_up) {
    RecordGiveUp(fleet_, clock_, ctx->target, "import:" + ctx->redo.module_id);
    // The unacked import may have executed: queue an idempotent uninstall
    // for the heal reconcile and fire a best-effort one now.
    pending_cleanups_.emplace_back(ctx->target, ctx->redo.module_addr);
    ControlRequest undo;
    undo.op = ControlOp::kUninstallAddr;
    undo.tenant = ctx->redo.module_id;
    undo.attempt_epoch = journal_->MintEpoch();
    undo.addr = ctx->redo.module_addr;
    client_.Issue(ctx->target, undo, nullptr);
  }
  ControlRequest back;
  back.op = ControlOp::kSnapshotImport;
  back.tenant = ctx->module_id;
  back.attempt_epoch = journal_->MintEpoch();
  back.addr = ctx->report.old_addr;
  back.moved = ctx->moved;
  std::weak_ptr<char> watch = alive_;
  client_.Issue(ctx->source, back, [this, watch, ctx, fail_reason](ControlResponse resp) {
    if (watch.expired()) {
      return;
    }
    obs::ScopedParent in_rollback(obs::Tracer(), ctx->migrate_span);
    if (resp.ok) {
      auto placement = placements_.find(ctx->module_id);
      if (placement != placements_.end()) {
        placement->second.second = resp.vm_id;
      }
      // Replay the blackout traffic on the source; the resume-on-traffic
      // path drains it once the guest is back up.
      ControlRequest replay;
      replay.op = ControlOp::kCutover;
      replay.tenant = ctx->module_id;
      replay.attempt_epoch = journal_->MintEpoch();
      replay.addr = ctx->report.old_addr;
      replay.moved = ctx->moved;
      client_.Issue(ctx->source, replay, nullptr);
      AbortMigration(ctx, fail_reason);
    } else {
      // The guest state is unrecoverable: the tenant is gone.
      engine_.ReleasePlacement(ctx->request.client_id, ModuleMemoryBytes());
      placements_.erase(ctx->module_id);
      requests_.erase(ctx->module_id);
      ClearModuleDigest(ctx->module_id);
      controller_.Kill(ctx->module_id);
      journal_->MarkModuleTerminal(ctx->module_id, JournalState::kKilled, clock_->now(),
                                   "guest lost in failed migration");
      AbortMigration(ctx, fail_reason + "; source re-adopt failed: " + resp.error);
    }
  });
}

void Orchestrator::MigrationCutoverDone(const std::shared_ptr<MigrationCtx>& ctx,
                                        ControlResponse response) {
  obs::ScopedParent in_migration(obs::Tracer(), ctx->migrate_span);
  // Roll forward even on a give-up: the guest is imported and resuming on
  // the target; only the parked blackout traffic is lost with the message.
  std::string note;
  if (response.gave_up) {
    RecordGiveUp(fleet_, clock_, ctx->target, "cutover:" + ctx->redo.module_id);
    note = "cutover unacked; parked traffic dropped";
    ctx->report.parked_packets = 0;
  }
  uint64_t now = clock_->now();
  journal_->MarkModuleTerminal(ctx->module_id, JournalState::kSuperseded, now,
                               "migrated to " + ctx->target);
  placements_.erase(ctx->module_id);
  requests_.erase(ctx->module_id);
  // Clear the old placement's address key first; CommitPlacement below
  // re-registers the tenant under the new module's digest and address.
  ClearModuleDigest(ctx->module_id);
  controller_.Kill(ctx->module_id);
  CommitPlacement(ctx->request, ctx->redo.module_id, ctx->target, ctx->new_vm_id);
  engine_.ReleasePlacement(ctx->request.client_id, ModuleMemoryBytes());  // the old share
  if (ctx->guard != nullptr) {
    ctx->guard->Confirm();
  }
  journal_->Advance(ctx->journal_id, JournalState::kCutover, now, note);
  ctx->report.ok = true;
  ctx->report.new_module_id = ctx->redo.module_id;
  ctx->report.new_addr = ctx->redo.module_addr;
  ctr_migrations_completed_->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(now, obs::EventKind::kMigrateCutover, "module:" + ctx->module_id,
                         ctx->source + "->" + ctx->target,
                         static_cast<int64_t>(ctx->report.parked_packets));
  }
  if (ctx->on_done) {
    ctx->on_done(ctx->report);
  }
}

RebalanceReport Orchestrator::Rebalance(double drain_above_utilization) {
  RebalanceReport report;
  // Refresh every tenant's health state first: the drain order below moves
  // the least-healthy tenants off hot platforms before the merely-loaded.
  obs::Health().EvaluateAll();
  std::vector<scheduler::PlatformResources> snapshot = engine_.ledger().Snapshot();
  // Moves started here have not landed yet (the suspend takes simulated
  // time), so project their memory effect onto every later ranking.
  std::unordered_map<std::string, int64_t> planned_delta;
  auto projected_used = [&](const scheduler::PlatformResources& res) {
    auto it = planned_delta.find(res.name);
    int64_t delta = it == planned_delta.end() ? 0 : it->second;
    return static_cast<double>(static_cast<int64_t>(res.memory_used) + delta);
  };

  const uint64_t per_module = ModuleMemoryBytes();
  for (const scheduler::PlatformResources& hot : snapshot) {
    if (!hot.available || hot.memory_total == 0 ||
        hot.utilization() <= drain_above_utilization) {
      continue;
    }
    ++report.hot_platforms;
    // Only dedicated-VM (stateful) tenants are drained: consolidated ones
    // are stateless and cheap to re-place individually on demand.
    std::vector<std::string> movable;
    for (const auto& [module_id, placement] : placements_) {
      if (placement.first == hot.name && placement.second != 0) {
        movable.push_back(module_id);
      }
    }
    std::sort(movable.begin(), movable.end());
    if (obs::Health().enabled()) {
      // Drain the least-healthy tenants first (violated > degraded > ok);
      // the stable sort keeps module-id order within a severity class.
      std::stable_sort(movable.begin(), movable.end(),
                       [this](const std::string& a, const std::string& b) {
                         auto severity = [this](const std::string& module_id) {
                           auto it = requests_.find(module_id);
                           return it == requests_.end()
                                      ? 0
                                      : obs::Health().Severity(it->second.client_id);
                         };
                         return severity(a) > severity(b);
                       });
    }

    for (const std::string& module_id : movable) {
      if (projected_used(hot) / static_cast<double>(hot.memory_total) <=
          drain_above_utilization) {
        break;  // drained enough
      }
      // Rank the non-hot survivors by the active policy, with planned moves
      // projected in so one rebalance pass cannot overfill a target.
      std::vector<scheduler::PlatformResources> candidates;
      for (scheduler::PlatformResources res : snapshot) {
        if (res.name == hot.name || !res.available || res.memory_total == 0) {
          continue;
        }
        auto delta = planned_delta.find(res.name);
        if (delta != planned_delta.end()) {
          res.memory_used = static_cast<uint64_t>(
              std::max<int64_t>(0, static_cast<int64_t>(res.memory_used) + delta->second));
        }
        if (res.utilization() > drain_above_utilization) {
          continue;  // don't drain one hot platform into another
        }
        candidates.push_back(std::move(res));
      }
      scheduler::PlacementRequest needs;
      needs.memory_bytes = per_module;
      std::vector<std::string> ranked =
          scheduler::RankPlatforms(engine_.policy(), candidates, needs);
      if (ranked.empty()) {
        break;  // nowhere left to drain to
      }
      MigrationStart started = MigrateTenant(module_id, ranked.front());
      if (started.started) {
        ++report.migrations_started;
        report.moves.emplace_back(module_id, ranked.front());
        planned_delta[hot.name] -= static_cast<int64_t>(per_module);
        planned_delta[ranked.front()] += static_cast<int64_t>(per_module);
      }
    }
  }
  return report;
}

FailoverReport Orchestrator::MarkPlatformFailed(const std::string& platform_name) {
  FailoverReport report;
  report.failed_platform = platform_name;
  auto it = platforms_.find(platform_name);
  if (it == platforms_.end()) {
    report.unknown_platform = true;  // safe no-op: nothing to fail over
    return report;
  }
  if (controller_.IsPlatformFailed(platform_name)) {
    report.already_failed = true;  // idempotent: the first report did the work
    return report;
  }
  controller_.MarkPlatformFailed(platform_name);

  // Collect the stranded tenants with their original requests, in module-id
  // order so the failover sequence is deterministic.
  std::vector<std::pair<std::string, ClientRequest>> stranded;
  for (const auto& [module_id, placement] : placements_) {
    if (placement.first != platform_name) {
      continue;
    }
    auto request = requests_.find(module_id);
    if (request != requests_.end()) {
      stranded.emplace_back(module_id, request->second);
    }
  }
  std::sort(stranded.begin(), stranded.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  report.tenants_affected = stranded.size();

  // The node died: its guests, switch state, and control-endpoint dedup
  // memory are gone. Replace the data-plane instance wholesale rather than
  // tearing guests down one by one (which would schedule suspend/boot
  // events on a dead box).
  PlatformState& state = it->second;
  fleet_->Replace(platform_name);
  state.consolidated.clear();
  state.consolidated_module_ids.clear();
  state.shared_vm = 0;

  for (const auto& [module_id, request] : stranded) {
    journal_->MarkModuleTerminal(module_id, JournalState::kKilled, clock_->now(),
                                 "platform failed");
    ClearModuleDigest(module_id);
    controller_.Kill(module_id);
    engine_.ReleasePlacement(request.client_id, ModuleMemoryBytes());
    placements_.erase(module_id);
    requests_.erase(module_id);
  }

  // Re-verify and re-place every stranded tenant on the survivors — a
  // degenerate migration with no state to carry (the node crash destroyed
  // it). Deploy runs the full pipeline again, so a tenant whose
  // requirements only the dead platform satisfied is reported lost rather
  // than silently misplaced.
  auto t_start = std::chrono::steady_clock::now();
  for (const auto& [old_module_id, request] : stranded) {
    ClientRequest retry = request;
    retry.pinned_platform.clear();  // the pin died with the node
    OrchestratedDeploy redo = Deploy(retry);
    if (redo.outcome.accepted) {
      ++report.recovered;
      report.remapped.emplace_back(old_module_id, redo.outcome.module_id);
    } else {
      ++report.lost;
      report.lost_module_ids.push_back(old_module_id);
    }
  }
  report.reverify_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t_start)
          .count();
  return report;
}

void Orchestrator::RestorePlatform(const std::string& platform_name) {
  auto it = platforms_.find(platform_name);
  if (it == platforms_.end()) {
    return;
  }
  controller_.RestorePlatform(platform_name);
}

RecoveryReport Orchestrator::RecoverFromJournal() {
  RecoveryReport report;
  uint64_t now = clock_->now();

  // Migrations that crashed after the target adopted the guest roll forward;
  // their superseded originals must not be adopted as live copies.
  std::set<uint64_t> superseded_in_progress;
  for (const JournalEntry& e : journal_->entries()) {
    if (e.kind == JournalEntryKind::kMigration && e.supersedes != 0 &&
        (e.state == JournalState::kPlaced || e.state == JournalState::kBooted)) {
      superseded_in_progress.insert(e.supersedes);
    }
  }

  // Does the entry's guest actually exist on its platform right now?
  auto guest_alive = [this](const JournalEntry* e) -> bool {
    InNetPlatform* box = fleet_->Get(e->platform);
    if (box == nullptr) {
      return false;
    }
    auto addr = Ipv4Address::Parse(e->addr);
    if (e->consolidated) {
      return addr.has_value() && box->InstalledVmFor(*addr) != 0;
    }
    if (e->vm_id != 0 && box->vms().Find(e->vm_id) != nullptr) {
      return true;
    }
    return addr.has_value() && box->InstalledVmFor(*addr) != 0;
  };

  // Rebuild controller/scheduler/orchestrator belief for a placement that is
  // present on its platform. Re-verification is reserved for ambiguity.
  auto adopt = [this, now](JournalEntry* e, bool reverify) -> bool {
    auto addr = Ipv4Address::Parse(e->addr);
    InNetPlatform* box = fleet_->Get(e->platform);
    if (!addr.has_value() || box == nullptr) {
      return false;
    }
    std::string err;
    if (!controller_.RestoreDeployment(e->request, e->module_id, e->platform, *addr, reverify,
                                       &err)) {
      journal_->Advance(e->id, JournalState::kRolledBack, now,
                        "re-verification failed after crash: " + err);
      return false;
    }
    PlatformState& state = platforms_[e->platform];
    Vm::VmId dedicated = 0;
    if (e->consolidated) {
      const Deployment* dep = nullptr;
      for (const Deployment& d : controller_.deployments()) {
        if (d.module_id == e->module_id) {
          dep = &d;
        }
      }
      state.consolidated.push_back(TenantConfig{*addr, dep != nullptr ? dep->config_text : ""});
      state.consolidated_module_ids.push_back(e->module_id);
      state.shared_vm = box->InstalledVmFor(*addr);
    } else {
      dedicated = e->vm_id;
    }
    CommitPlacement(e->request, e->module_id, e->platform, dedicated);
    engine_.CommitPlacement(e->request.client_id, ModuleMemoryBytes());
    return true;
  };

  // Snapshot the id list: converging an entry can append fresh entries
  // (re-placements), which must not themselves be scanned.
  std::vector<uint64_t> ids;
  for (const JournalEntry& e : journal_->entries()) {
    ids.push_back(e.id);
  }

  for (uint64_t id : ids) {
    JournalEntry* e = journal_->Find(id);
    if (e == nullptr) {
      continue;
    }
    ++report.scanned;
    if (DeployJournal::IsTerminal(e->state)) {
      continue;
    }
    ctr_replays_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(now, obs::EventKind::kRecoveryReplay, "journal:" + std::to_string(id),
                           std::string(JournalEntryKindName(e->kind)) + ":" +
                               JournalStateName(e->state));
    }

    // Live entries (deploys and completed migrations alike): adopt.
    if (e->state == JournalState::kCutover) {
      if (superseded_in_progress.count(id) != 0) {
        continue;  // its in-flight migration below decides its fate
      }
      if (guest_alive(e) && adopt(e, /*reverify=*/false)) {
        ++report.adopted;
      } else {
        journal_->Advance(id, JournalState::kKilled, now, "guest did not survive the crash");
        ++report.killed;
      }
      continue;
    }

    if (e->kind == JournalEntryKind::kDeploy) {
      switch (e->state) {
        case JournalState::kIntent: {
          // Nothing was minted yet: retire the entry and place afresh.
          journal_->Advance(id, JournalState::kRolledBack, now,
                            "crashed before verify; re-placed");
          ++report.rolled_back;
          DeployViaChannel(e->request, nullptr);
          ++report.resumed;
          break;
        }
        case JournalState::kVerified: {
          if (guest_alive(e)) {
            // The install executed but its ack died with the controller:
            // ambiguous enough to warrant full re-verification.
            if (adopt(e, /*reverify=*/true)) {
              journal_->Advance(id, JournalState::kPlaced, now, "found applied after crash");
              ScheduleConfirm(id, options_.confirm_rounds);
              ++report.completed;
            } else {
              if (auto addr = Ipv4Address::Parse(e->addr)) {
                ControlRequest undo;
                undo.op = ControlOp::kUninstallAddr;
                undo.tenant = e->module_id;
                undo.attempt_epoch = journal_->MintEpoch();
                undo.addr = *addr;
                fleet_->channel().DeliverDirect(e->platform, undo);
              }
              ++report.rolled_back;  // adopt() already advanced the entry
            }
            break;
          }
          // Not applied: restore belief and re-send the install under its
          // original token — if the platform did execute it and only the
          // ack was lost, the endpoint dedups and answers from cache.
          auto addr = Ipv4Address::Parse(e->addr);
          std::string err;
          if (!addr.has_value() ||
              !controller_.RestoreDeployment(e->request, e->module_id, e->platform, *addr,
                                             /*reverify=*/false, &err)) {
            journal_->Advance(id, JournalState::kRolledBack, now, "restore failed: " + err);
            ++report.rolled_back;
            break;
          }
          const Deployment* dep = nullptr;
          for (const Deployment& d : controller_.deployments()) {
            if (d.module_id == e->module_id) {
              dep = &d;
            }
          }
          auto guard = MakeChannelGuard(e->request.client_id);
          std::weak_ptr<char> watch = alive_;
          ControlRequest req;
          req.tenant = e->module_id;
          req.attempt_epoch = e->op_epoch;
          const std::string platform_name = e->platform;
          const std::string module_id = e->module_id;
          const ClientRequest request = e->request;
          const bool consolidated = e->consolidated;
          const Ipv4Address module_addr = *addr;
          const std::string config_text = dep != nullptr ? dep->config_text : "";
          if (consolidated) {
            PlatformState& state = platforms_[platform_name];
            req.op = ControlOp::kRebuildShared;
            req.tenants = state.consolidated;
            req.tenants.push_back(TenantConfig{module_addr, config_text});
            req.vm_id = state.shared_vm;
          } else {
            req.op = ControlOp::kInstall;
            req.addr = module_addr;
            req.config_text = config_text;
            req.sandbox = e->sandboxed;
            req.whitelist = request.whitelist;
          }
          client_.Issue(
              platform_name, req,
              [this, watch, id, guard, request, platform_name, module_id, consolidated,
               module_addr, config_text](ControlResponse resp) {
                if (watch.expired()) {
                  return;
                }
                uint64_t ack_now = clock_->now();
                if (!resp.ok) {
                  controller_.Kill(module_id);
                  journal_->Advance(id, JournalState::kRolledBack, ack_now,
                                    "re-sent install failed: " + resp.error);
                  return;
                }
                PlatformState& state = platforms_[platform_name];
                if (consolidated) {
                  state.consolidated.push_back(TenantConfig{module_addr, config_text});
                  state.consolidated_module_ids.push_back(module_id);
                  state.shared_vm = resp.vm_id;
                } else if (InNetPlatform* box = fleet_->Get(platform_name)) {
                  box->SetVmOwner(resp.vm_id, request.client_id);
                }
                if (JournalEntry* acked = journal_->Find(id)) {
                  acked->vm_id = resp.vm_id;
                }
                CommitPlacement(request, module_id, platform_name,
                                consolidated ? 0 : resp.vm_id);
                guard->Confirm();
                journal_->Advance(id, JournalState::kPlaced, ack_now, "re-sent install acked");
                ScheduleConfirm(id, options_.confirm_rounds);
              });
          ++report.resumed;
          break;
        }
        case JournalState::kPlaced:
        case JournalState::kBooted: {
          if (guest_alive(e) && adopt(e, /*reverify=*/false)) {
            ScheduleConfirm(id, options_.confirm_rounds);
            ++report.completed;
          } else {
            journal_->Advance(id, JournalState::kRolledBack, now, "guest lost; re-placed");
            ++report.rolled_back;
            DeployViaChannel(e->request, nullptr);
            ++report.resumed;
          }
          break;
        }
        default:
          break;
      }
      continue;
    }

    // In-flight migrations.
    switch (e->state) {
      case JournalState::kIntent:
      case JournalState::kVerified: {
        if (!e->exported) {
          // Crashed before the snapshot left the source: cancel the mark;
          // the (possibly suspended) guest resumes on traffic as usual. The
          // original deploy entry was adopted above, so the tenant is whole.
          InNetPlatform* src = fleet_->Get(e->source_platform);
          if (src != nullptr && e->vm_id != 0) {
            src->CancelMigrationOut(e->vm_id);
          }
          journal_->Advance(id, JournalState::kRolledBack, now,
                            "crashed mid-migration; cancelled");
          ++report.rolled_back;
          break;
        }
        // The snapshot lived only in controller memory: the guest state died
        // with the crash (the adoption pass already recorded the original as
        // killed). Re-place a fresh instance.
        journal_->Advance(id, JournalState::kRolledBack, now,
                          "snapshot lost in crash; tenant re-placed fresh");
        ++report.rolled_back;
        DeployViaChannel(e->request, nullptr);
        ++report.resumed;
        break;
      }
      case JournalState::kPlaced:
      case JournalState::kBooted: {
        // Post-import: the target holds the guest — roll the migration
        // forward (the parked blackout traffic died with the controller).
        if (guest_alive(e) && adopt(e, /*reverify=*/false)) {
          if (e->supersedes != 0) {
            journal_->Advance(e->supersedes, JournalState::kSuperseded, now,
                              "migration rolled forward after crash");
          }
          journal_->Advance(id, JournalState::kCutover, now,
                            "rolled forward after crash; parked traffic lost");
          ++report.completed;
        } else {
          if (e->supersedes != 0) {
            journal_->Advance(e->supersedes, JournalState::kKilled, now,
                              "guest lost in crashed migration");
          }
          journal_->Advance(id, JournalState::kRolledBack, now,
                            "target guest lost; tenant re-placed fresh");
          ++report.rolled_back;
          DeployViaChannel(e->request, nullptr);
          ++report.resumed;
        }
        break;
      }
      default:
        break;
    }
  }
  return report;
}

void Orchestrator::SetPartitioned(const std::string& platform_name, bool partitioned) {
  bool was = fleet_->channel().IsPartitioned(platform_name);
  fleet_->channel().SetPartitioned(platform_name, partitioned);
  if (partitioned && !was) {
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kControlPartition,
                           "platform:" + platform_name, "partitioned");
    }
  } else if (!partitioned && was) {
    ReconcilePlatform(platform_name);
  }
}

ReconcileReport Orchestrator::ReconcilePlatform(const std::string& platform_name) {
  ReconcileReport report;
  report.platform = platform_name;
  InNetPlatform* box = fleet_->Get(platform_name);
  if (box == nullptr) {
    return report;
  }
  uint64_t now = clock_->now();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(now, obs::EventKind::kControlHeal, "platform:" + platform_name,
                         "reconcile");
  }
  // Compare belief against actual guest state, in module-id order for
  // determinism.
  std::vector<std::string> on_platform;
  for (const auto& [module_id, placement] : placements_) {
    if (placement.first == platform_name) {
      on_platform.push_back(module_id);
    }
  }
  std::sort(on_platform.begin(), on_platform.end());
  for (const std::string& module_id : on_platform) {
    ++report.checked;
    auto placement = placements_.find(module_id);
    if (placement == placements_.end()) {
      continue;  // a previous Kill in this loop rebuilt the shared VM set
    }
    bool alive;
    if (placement->second.second != 0) {
      alive = box->vms().Find(placement->second.second) != nullptr;
    } else {
      alive = box->InstalledVmFor(ModuleAddr(module_id)) != 0;
    }
    if (alive) {
      ++report.healthy;
      continue;
    }
    ++report.lost;
    journal_->MarkModuleTerminal(module_id, JournalState::kKilled, now,
                                 "guest lost during partition");
    Kill(module_id);
  }
  // Re-arm confirmation chains that gave up while the platform was
  // unreachable.
  for (const JournalEntry& e : journal_->entries()) {
    if (e.platform == platform_name &&
        (e.state == JournalState::kPlaced || e.state == JournalState::kBooted) &&
        placements_.count(e.module_id) != 0) {
      ScheduleConfirm(e.id, options_.confirm_rounds);
      ++report.rearmed;
    }
  }
  // Flush deferred cleanups: installs that gave up unacked while the
  // platform was cut off may have executed — uninstall them by address.
  for (auto it = pending_cleanups_.begin(); it != pending_cleanups_.end();) {
    if (it->first == platform_name) {
      ControlRequest undo;
      undo.op = ControlOp::kUninstallAddr;
      undo.tenant = "cleanup:" + it->second.ToString();
      undo.attempt_epoch = journal_->MintEpoch();
      undo.addr = it->second;
      client_.Issue(platform_name, undo, nullptr);
      ++report.cleanups;
      it = pending_cleanups_.erase(it);
    } else {
      ++it;
    }
  }
  const char* reconcile_outcome = report.lost == 0 ? "clean" : "divergent";
  obs::Registry()
      .GetCounter("innet_reconcile_total", {{"outcome", reconcile_outcome}})
      ->Increment();
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(now, obs::EventKind::kReconcile, "platform:" + platform_name,
                         std::string(reconcile_outcome) + " checked=" +
                             std::to_string(report.checked) +
                             " healthy=" + std::to_string(report.healthy) +
                             " lost=" + std::to_string(report.lost) +
                             " rearmed=" + std::to_string(report.rearmed) +
                             " cleanups=" + std::to_string(report.cleanups),
                         static_cast<int64_t>(report.lost));
  }
  return report;
}

void Orchestrator::ExportTenant(const std::string& module_id, ExportCallback on_done) {
  TenantExport out;
  auto placement = placements_.find(module_id);
  auto request_it = requests_.find(module_id);
  if (placement == placements_.end() || request_it == requests_.end()) {
    out.error = "unknown module id";
    if (on_done) {
      on_done(out);
    }
    return;
  }
  out.request = request_it->second;
  out.request.pinned_platform.clear();
  const std::string source = placement->second.first;
  const Vm::VmId vm_id = placement->second.second;

  if (vm_id == 0) {
    // Consolidated (stateless): no guest state to carry — the adopting
    // region redeploys from the request. Mark the journal entry superseded
    // before Kill so the record reads "exported", not "killed".
    journal_->MarkModuleTerminal(module_id, JournalState::kSuperseded, clock_->now(),
                                 "exported to region coordinator");
    Kill(module_id);
    out.ok = true;
    if (on_done) {
      on_done(out);
    }
    return;
  }

  // Stateful: suspend over the channel (parks blackout traffic, acks when
  // frozen), then detach the guest on the direct path.
  ControlRequest req;
  req.op = ControlOp::kSuspend;
  req.tenant = module_id;
  req.attempt_epoch = journal_->MintEpoch();
  req.vm_id = vm_id;
  std::weak_ptr<char> watch = alive_;
  client_.Issue(
      source, req,
      [this, watch, module_id, source, vm_id, out, on_done](ControlResponse response) mutable {
        if (watch.expired()) {
          return;
        }
        auto cancel_source = [this, &module_id, &source, vm_id] {
          ControlRequest cancel;
          cancel.op = ControlOp::kCancelMigration;
          cancel.tenant = module_id;
          cancel.attempt_epoch = journal_->MintEpoch();
          cancel.vm_id = vm_id;
          client_.Issue(source, cancel, nullptr);
        };
        if (!response.ok) {
          if (response.gave_up) {
            RecordGiveUp(fleet_, clock_, source, "region_export:" + module_id);
          }
          cancel_source();
          out.error = "suspend failed: " + response.error;
          if (on_done) {
            on_done(out);
          }
          return;
        }
        ControlRequest exp;
        exp.op = ControlOp::kSnapshotExport;
        exp.tenant = module_id;
        exp.attempt_epoch = journal_->MintEpoch();
        exp.vm_id = vm_id;
        ControlResponse resp = fleet_->channel().DeliverDirect(source, exp);
        if (!resp.ok || !resp.moved) {
          cancel_source();
          out.error = "detach failed: " + resp.error;
          if (on_done) {
            on_done(out);
          }
          return;
        }
        // The guest left this region: release belief and quota, retire the
        // controller's deployment record, and journal the hand-off.
        journal_->MarkModuleTerminal(module_id, JournalState::kSuperseded, clock_->now(),
                                     "exported to region coordinator");
        engine_.ReleasePlacement(out.request.client_id, ModuleMemoryBytes());
        placements_.erase(module_id);
        requests_.erase(module_id);
        ClearModuleDigest(module_id);
        controller_.Kill(module_id);
        out.ok = true;
        out.moved = resp.moved;
        if (on_done) {
          on_done(out);
        }
      });
}

TenantAdopt Orchestrator::AdoptMigrated(
    const ClientRequest& request, std::shared_ptr<platform::InNetPlatform::MigratedVm> moved) {
  TenantAdopt out;
  if (moved == nullptr) {
    // Stateless hand-over: a plain redeploy through the full pipeline.
    OrchestratedDeploy deploy = Deploy(request);
    out.ok = deploy.outcome.accepted;
    out.error = deploy.outcome.reason;
    out.module_id = deploy.outcome.module_id;
    out.platform = deploy.outcome.platform;
    out.addr = deploy.outcome.module_addr;
    return out;
  }

  // Stateful adopt: admission → verification → import the frozen guest →
  // replay parked traffic. The target half of MigrationImportDone, with the
  // snapshot arriving from the coordinator instead of a sibling platform.
  uint64_t jid = journal_->Begin(JournalEntryKind::kMigration, request, clock_->now());
  scheduler::PlacementRequest needs;
  needs.memory_bytes = ModuleMemoryBytes();
  needs.pinned_platform = request.pinned_platform;
  scheduler::PlacementDecision decision = engine_.Decide(request.client_id, needs);
  if (!decision.admitted) {
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "admission rejected: " + decision.reject_reason);
    out.error = decision.reject_reason;
    return out;
  }
  scheduler::ReservationGuard guard(&engine_, request.client_id, ModuleMemoryBytes());
  DeployOutcome redo = controller_.Deploy(request, decision.candidates);
  if (!redo.accepted) {
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "verification failed: " + redo.reason);
    out.error = redo.reason;
    return out;
  }
  if (platforms_.count(redo.platform) == 0) {
    controller_.Kill(redo.module_id);
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "platform has no data-plane instance");
    out.error = "platform has no data-plane instance";
    return out;
  }
  JournalEntry* entry = journal_->Find(jid);
  entry->module_id = redo.module_id;
  entry->platform = redo.platform;
  entry->addr = redo.module_addr.ToString();
  entry->sandboxed = redo.sandboxed;
  journal_->Advance(jid, JournalState::kVerified, clock_->now(), "adopting imported guest");

  ControlRequest imp;
  imp.op = ControlOp::kSnapshotImport;
  imp.tenant = redo.module_id;
  imp.attempt_epoch = journal_->MintEpoch();
  imp.addr = redo.module_addr;
  imp.moved = moved;
  entry->op_epoch = imp.attempt_epoch;
  ControlResponse resp = fleet_->channel().DeliverDirect(redo.platform, imp);
  if (!resp.ok) {
    controller_.Kill(redo.module_id);
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(),
                      "import failed: " + resp.error);
    out.error = "import failed: " + resp.error;
    return out;
  }
  ControlRequest cut;
  cut.op = ControlOp::kCutover;
  cut.tenant = redo.module_id;
  cut.attempt_epoch = journal_->MintEpoch();
  cut.addr = redo.module_addr;
  cut.moved = moved;
  fleet_->channel().DeliverDirect(redo.platform, cut);

  InNetPlatform* box = fleet_->Get(redo.platform);
  if (box != nullptr) {
    box->SetVmOwner(resp.vm_id, request.client_id);
  }
  CommitPlacement(request, redo.module_id, redo.platform, resp.vm_id);
  guard.Confirm();
  if (JournalEntry* e = journal_->Find(jid)) {
    e->vm_id = resp.vm_id;
  }
  journal_->Advance(jid, JournalState::kPlaced, clock_->now(), "synchronous ack");
  journal_->Advance(jid, JournalState::kCutover, clock_->now());
  out.ok = true;
  out.module_id = redo.module_id;
  out.platform = redo.platform;
  out.addr = redo.module_addr;
  return out;
}

}  // namespace innet::controller
