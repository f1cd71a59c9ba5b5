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

// Post-placement confirmation probing: placed -> booted -> cut-over as
// health probes observe the guest, re-probing up to kConfirmRounds times.
constexpr sim::TimeNs kConfirmInterval = 50 * sim::kMillisecond;
constexpr int kConfirmRounds = 10;

// Every orchestrated module costs one ClickOS guest (consolidation makes the
// marginal cost lower, but admission charges the worst case: the shared-VM
// rebuild transiently needs a full extra guest).
constexpr uint64_t kModuleMemoryBytes = platform::MemoryBytes(platform::VmKind::kClickOs);

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

// A fresh mutating control op for `tenant` (new idempotency epoch).
ControlRequest NewOp(DeployJournal* journal, ControlOp op, const std::string& tenant) {
  ControlRequest req;
  req.op = op;
  req.tenant = tenant;
  req.attempt_epoch = journal->MintEpoch();
  return req;
}

// Placed or booted: the confirm chain still owns the entry.
bool Confirming(const JournalEntry* e) {
  return e != nullptr && (e->state == JournalState::kPlaced || e->state == JournalState::kBooted);
}

}  // namespace

// One run of the deploy pipeline: first the entry path's input (what to
// deploy, how it is journaled and traced), then state the steps fill in.
struct Orchestrator::DeployTask {
  ClientRequest request;
  uint64_t journal_id = 0;
  // Verification order: the admission ranking, or preset by the caller.
  std::vector<std::string> candidates;
  // Direct: DeliverDirect and a synchronous cut-over. Otherwise the op rides
  // the lossy channel with retries and the confirm chain walks it to cut-over.
  bool direct = true;
  // A client's own request: trace the admission verdict and feed the
  // tenant's verify-latency SLO.
  bool client_facing = false;
  bool trace_ranking = false;  // placement ranking record
  bool trace_cutover = true;   // deploy_cutover record at the ack
  std::string verified_note;
  std::string rejected_note = "verification failed: ";  // journal note prefix
  std::string placed_note;  // "" = the transport's own note
  std::string failed_note;  // journal note prefix on a failed op; "" = the outcome reason
  // Import this frozen guest instead of installing: preset by a cross-region
  // adopt, filled by a live migration's export.
  std::shared_ptr<InNetPlatform::MigratedVm> moved;
  DeployCallback on_done;
  // Live migration (stateful MigrateTenant) only: the source guest, frozen
  // before Verify and exported before Place; the cut-over ack commits. The
  // migrate-start record parents every step's records.
  Vm::VmId source_vm = 0;
  uint64_t span = 0;
  MigrationReport report;
  MigrationCallback on_migrated;
  bool starting = false;  // a suspend failing now fails MigrateTenant's start

  OrchestratedDeploy result;
  TenantRecord record;
  bool consolidated = false;
  uint64_t epoch = 0;  // the platform op's idempotency epoch
  std::shared_ptr<scheduler::ReservationGuard> guard;
};

Orchestrator::Orchestrator(topology::Network network, sim::EventQueue* clock,
                           OrchestratorOptions options)
    : Orchestrator(std::move(network), clock, options, nullptr, nullptr) {}

Orchestrator::Orchestrator(topology::Network network, sim::EventQueue* clock,
                           OrchestratorOptions options, PlatformFleet* fleet,
                           DeployJournal* journal)
    : controller_(std::move(network)),
      clock_(clock),
      engine_(
          [this](const std::string& name, scheduler::PlatformResources* out) {
            return ProbePlatform(name, out);
          },
          options.policy),
      owned_fleet_(fleet == nullptr
                       ? std::make_unique<PlatformFleet>(clock, options.platform_memory_bytes)
                       : nullptr),
      owned_journal_(journal == nullptr ? std::make_unique<DeployJournal>() : nullptr),
      fleet_(fleet != nullptr ? fleet : owned_fleet_.get()),
      journal_(journal != nullptr ? journal : owned_journal_.get()),
      client_(clock, &fleet_->channel(), ControlRetryPolicy{}),
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
      std::make_shared<scheduler::ReservationGuard>(&engine_, client_id, kModuleMemoryBytes);
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
  auto it = tenants_.find(module_id);
  return it == tenants_.end() ? nullptr : &it->second.placement;
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

std::vector<TenantConfig> Orchestrator::SharedTenants(const PlatformState& state) const {
  std::vector<TenantConfig> tenants;
  for (const std::string& module_id : state.consolidated) {
    const TenantRecord& record = tenants_.at(module_id);
    tenants.push_back(TenantConfig{record.addr, record.config_text});
  }
  return tenants;
}

void Orchestrator::ClearModuleDigest(const std::string& module_id) {
  const Deployment* dead = controller_.FindDeployment(module_id);
  if (dead == nullptr) {
    return;
  }
  obs::Int().ClearTenantDigest(dead->addr.ToString());
  if (std::ranges::none_of(controller_.deployments(), [&](const Deployment& dep) {
        return dep.module_id != module_id && dep.client_id == dead->client_id;
      })) {
    obs::Int().ClearTenantDigest(dead->client_id);
  }
}

void Orchestrator::Issue(const std::string& platform_name, const ControlRequest& req,
                         std::function<void(ControlResponse)> then) {
  std::weak_ptr<char> watch = alive_;
  client_.Issue(platform_name, req, [watch, then = std::move(then)](ControlResponse resp) {
    if (!watch.expired()) {
      then(std::move(resp));
    }
  });
}

void Orchestrator::AbandonInstall(const std::string& platform_name, const std::string& what,
                                  const std::string& module_id, Ipv4Address addr,
                                  bool uninstall_now) {
  RecordGiveUp(fleet_, clock_, platform_name, what + module_id);
  // The platform may have executed the unacked install: queue an idempotent
  // uninstall for the heal-time reconcile, and fire a best-effort one now in
  // case only the ack leg was lossy.
  ControlRequest cleanup;
  cleanup.op = ControlOp::kUninstallAddr;
  cleanup.tenant = "cleanup:" + addr.ToString();
  cleanup.addr = addr;
  pending_cleanups_.emplace_back(platform_name, std::move(cleanup));
  if (uninstall_now) {
    ControlRequest undo = NewOp(journal_, ControlOp::kUninstallAddr, module_id);
    undo.addr = addr;
    client_.Issue(platform_name, undo, nullptr);
  }
}

void Orchestrator::SendCancelMigration(const std::string& platform_name,
                                       const std::string& module_id, Vm::VmId vm_id,
                                       bool defer) {
  ControlRequest cancel = NewOp(journal_, ControlOp::kCancelMigration, module_id);
  cancel.vm_id = vm_id;
  if (defer) {
    pending_cleanups_.emplace_back(platform_name, cancel);  // re-minted at the flush
  }
  client_.Issue(platform_name, cancel, nullptr);
}

bool Orchestrator::Admit(DeployTask& task) {
  const std::string& client_id = task.request.client_id;
  scheduler::PlacementRequest needs;
  needs.memory_bytes = kModuleMemoryBytes;
  needs.pinned_platform = task.request.pinned_platform;
  scheduler::PlacementDecision decision = engine_.Decide(client_id, needs);
  if (task.client_facing && obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kAdmission, "client:" + client_id,
                         decision.admitted ? "admitted" : "rejected: " + decision.reject_reason);
  }
  if (!decision.admitted) {
    Rollback(task, "admission rejected: " + decision.reject_reason);
    task.result.outcome.reason = decision.reject_reason;
    return false;
  }
  if (task.trace_ranking && obs::Tracer().enabled()) {
    std::string ranked;
    for (const std::string& candidate : decision.candidates) {
      ranked += (ranked.empty() ? "" : ",") + candidate;
    }
    obs::Tracer().Record(clock_->now(), obs::EventKind::kPlacementRanked, "client:" + client_id,
                         ranked, static_cast<int64_t>(decision.candidates.size()));
  }
  task.candidates = std::move(decision.candidates);
  // The guard releases the quota share on every early-exit path; only a
  // fully-acked placement confirms it.
  task.guard = MakeChannelGuard(client_id);
  return true;
}

bool Orchestrator::Verify(DeployTask& task) {
  DeployOutcome& outcome = task.result.outcome;
  outcome = controller_.Deploy(task.request, task.candidates);
  if (task.client_facing) {
    obs::Health().ObserveVerifyLatency(task.request.client_id,
                                       static_cast<double>(outcome.sim_verify_ns) / 1e6);
  }
  if (!outcome.accepted) {
    Rollback(task, task.rejected_note + outcome.reason);
    return false;
  }
  if (platforms_.count(outcome.platform) == 0) {
    controller_.Kill(outcome.module_id);
    outcome.accepted = false;
    outcome.reason = "platform has no data-plane instance";
    Rollback(task, outcome.reason);
    return false;
  }
  // Statically-safe stateless modules consolidate: static checking already
  // proved each safe in isolation; merging adds only the explicit-addressing
  // demux. Everything else gets a dedicated (possibly sandboxed) guest.
  const Deployment& deployment = controller_.deployments().back();
  task.consolidated = task.moved == nullptr && task.source_vm == 0 &&
                      platform::IsStatelessConfig(deployment.config) && !outcome.sandboxed;
  task.record = {task.request, {outcome.platform, 0}, deployment.addr, deployment.config_text};
  JournalEntry* entry = journal_->Find(task.journal_id);
  entry->module_id = outcome.module_id;
  entry->platform = outcome.platform;
  entry->addr = outcome.module_addr.ToString();
  entry->sandboxed = outcome.sandboxed;
  entry->consolidated = task.consolidated;
  entry->path_digest = deployment.path_digest;
  journal_->Advance(task.journal_id, JournalState::kVerified, clock_->now(), task.verified_note);
  return true;
}

ControlRequest Orchestrator::PlacementOp(const DeployTask& task) {
  const TenantRecord& record = task.record;
  ControlRequest req;
  req.tenant = task.result.outcome.module_id;
  req.attempt_epoch = task.epoch;
  req.addr = record.addr;
  if (task.moved != nullptr) {
    req.op = ControlOp::kSnapshotImport;
    req.moved = task.moved;
  } else if (task.consolidated) {
    // The merge set is read now: on the channel this runs from the rebuild
    // queue, after every earlier rebuild landed.
    const PlatformState& state = platforms_.at(record.placement.first);
    req.op = ControlOp::kRebuildShared;
    if (task.direct) {
      req.tenant = "shared:" + record.placement.first;
    }
    req.tenants = SharedTenants(state);
    req.tenants.push_back(TenantConfig{record.addr, record.config_text});
    req.vm_id = state.shared_vm;
  } else {
    req.op = ControlOp::kInstall;
    req.config_text = record.config_text;
    req.sandbox = task.result.outcome.sandboxed;
    req.whitelist = task.request.whitelist;
  }
  return req;
}

void Orchestrator::Run(const std::shared_ptr<DeployTask>& task, bool admit) {
  if ((admit && !Admit(*task)) || !Verify(*task)) {
    if (task->on_done) {
      task->on_done(task->result);
    }
  } else if (task->source_vm != 0) {
    Export(task);  // Place runs once the snapshot left the source
  } else {
    Place(task);  // a channel placement calls on_done from its ack
  }
}

void Orchestrator::Place(const std::shared_ptr<DeployTask>& task) {
  if (task->guard == nullptr) {
    task->guard = MakeChannelGuard(task->request.client_id);
  }
  if (task->epoch == 0) {  // a recovery re-send keeps its original epoch
    task->epoch = journal_->MintEpoch();
    journal_->Find(task->journal_id)->op_epoch = task->epoch;
  }
  const std::string platform_name = task->record.placement.first;
  if (task->direct) {
    PlaceDone(task, fleet_->channel().DeliverDirect(platform_name, PlacementOp(*task)));
    return;
  }
  // Runs now or, for a rebuild, from the queue (which stops with us).
  auto send = [this, task, platform_name](std::function<void()> next) {
    Issue(platform_name, PlacementOp(*task), [this, task, next](ControlResponse resp) {
      obs::ScopedParent in_task(obs::Tracer(), task->span);
      PlaceDone(task, resp);
      if (task->on_done) {
        task->on_done(task->result);
      }
      next();
    });
  };
  if (task->consolidated) {
    EnqueueRebuild(platform_name, std::move(send));
  } else {
    send([] {});
  }
}

void Orchestrator::PlaceDone(const std::shared_ptr<DeployTask>& ptr,
                             const ControlResponse& response) {
  DeployTask& task = *ptr;
  const std::string module_id = task.result.outcome.module_id;
  const std::string platform_name = task.record.placement.first;
  uint64_t now = clock_->now();
  if (!response.ok) {
    controller_.Kill(module_id);
    if (response.gave_up) {
      AbandonInstall(platform_name, task.moved != nullptr ? "import:" : "install:", module_id,
                     task.record.addr, /*uninstall_now=*/!task.consolidated);
    }
    if (task.source_vm != 0) {
      Readopt(ptr, response.gave_up ? response.error : "target install failed: " + response.error);
      return;
    }
    const char* what = task.moved != nullptr               ? "import failed: "
                       : task.consolidated && task.direct ? "consolidation failed: "
                                                          : "platform install failed: ";
    task.result.outcome.accepted = false;
    task.result.outcome.reason = what + response.error;
    Rollback(task, task.failed_note.empty() ? task.result.outcome.reason
                                            : task.failed_note + response.error);
    return;
  }
  task.result.vm_id = response.vm_id;
  journal_->Find(task.journal_id)->vm_id = response.vm_id;
  if (task.source_vm != 0) {
    journal_->Advance(task.journal_id, JournalState::kPlaced, now, task.placed_note);
    Cutover(ptr);  // its ack commits
    return;
  }
  if (task.moved != nullptr) {
    // Replay the blackout traffic parked with the frozen guest.
    ControlRequest cut = NewOp(journal_, ControlOp::kCutover, module_id);
    cut.addr = task.record.addr;
    cut.moved = task.moved;
    fleet_->channel().DeliverDirect(platform_name, cut);
  }
  CommitPlacement(task, response.vm_id);
  task.result.consolidated = task.consolidated;
  const std::string note = !task.placed_note.empty() ? task.placed_note
                           : task.direct                ? "synchronous ack"
                           : task.consolidated          ? "platform acked rebuild"
                                                        : "platform acked install";
  // The direct path completed synchronously: the platform's ack walks the
  // entry straight through placed to steady state. On the channel the
  // confirm chain probes the guest up to cut-over.
  if (!task.direct) {
    journal_->Advance(task.journal_id, JournalState::kPlaced, now, note);
  }
  if (task.trace_cutover && obs::Tracer().enabled()) {
    obs::Tracer().Record(now, obs::EventKind::kDeployCutover, "module:" + module_id,
                         task.consolidated ? platform_name + " consolidated" : platform_name,
                         static_cast<int64_t>(response.vm_id));
  }
  if (task.direct) {
    journal_->Advance(task.journal_id, JournalState::kPlaced, now, note);
    journal_->Advance(task.journal_id, JournalState::kCutover, now);
  } else {
    ScheduleConfirm(task.journal_id, kConfirmRounds);
  }
}

void Orchestrator::CommitPlacement(DeployTask& task, Vm::VmId vm_id) {
  const std::string& module_id = task.result.outcome.module_id;
  const std::string& platform_name = task.record.placement.first;
  if (task.consolidated) {
    PlatformState& state = platforms_.at(platform_name);
    state.consolidated.push_back(module_id);
    state.shared_vm = vm_id;
  } else {
    // Dedicated guests are attributable: tag the owner before the boot
    // completion fires so lifecycle events feed the tenant's health record.
    fleet_->Get(platform_name)->SetVmOwner(vm_id, task.request.client_id);
    task.record.placement.second = vm_id;
  }
  // Every placement path (deploy, migration cut-over, recovery) funnels
  // through here, so registering the digest here is what "carried through
  // migration" means: the new placement re-attests under the same keys.
  // Both keys matter: the control plane reports per client id, while
  // consolidated data planes attribute sampled packets by module address.
  obs::IntPathDigest digest;
  // An empty digest (config with no symbolic model) attests nothing: leave
  // the tenant unattested rather than flag every walk.
  const Deployment* dep = controller_.FindDeployment(module_id);
  if (dep != nullptr && obs::IntPathDigest::Decode(dep->path_digest, &digest) &&
      !digest.empty()) {
    obs::Int().SetTenantDigest(task.request.client_id, digest);
    obs::Int().SetTenantDigest(dep->addr.ToString(), digest);
  }
  tenants_[module_id] = std::move(task.record);
  task.guard->Confirm();
}

void Orchestrator::Rollback(DeployTask& task, const std::string& note, bool defer_cancel) {
  if (task.source_vm == 0) {
    journal_->Advance(task.journal_id, JournalState::kRolledBack, clock_->now(), note);
    return;
  }
  SendCancelMigration(task.report.source, task.report.module_id, task.source_vm, defer_cancel);
  AbortMigration(task, note);
}

OrchestratedDeploy Orchestrator::Deploy(const ClientRequest& request) {
  return StartDeploy(request, /*direct=*/true, nullptr);
}

void Orchestrator::DeployViaChannel(const ClientRequest& request, DeployCallback on_done) {
  StartDeploy(request, /*direct=*/false, std::move(on_done));
}

OrchestratedDeploy Orchestrator::StartDeploy(const ClientRequest& request, bool direct,
                                             DeployCallback on_done) {
  // The request span roots the whole deploy tree: admission, placement
  // ranking, verification, and the on-platform boot all auto-parent to it.
  std::optional<obs::SpanScope> deploy_span;
  if (obs::Tracer().enabled()) {
    deploy_span.emplace(obs::Tracer(), clock_->now(), obs::EventKind::kDeployRequest,
                        "client:" + request.client_id, direct ? "" : "channel");
  }
  auto task = std::make_shared<DeployTask>();
  task->request = request;
  // Write the intent ahead of everything else: a crash from here on leaves a
  // journal entry to converge from.
  task->journal_id = journal_->Begin(JournalEntryKind::kDeploy, request, clock_->now());
  task->result.journal_id = task->journal_id;
  task->direct = direct;
  task->client_facing = true;
  task->trace_ranking = direct;
  task->failed_note = direct ? "" : "install failed: ";
  task->on_done = std::move(on_done);
  // Admission + placement ranking first: quota and headroom rejections must
  // not burn verification time.
  Run(task, /*admit=*/true);
  return task->result;
}

void Orchestrator::EnqueueRebuild(const std::string& platform_name,
                                  std::function<void(std::function<void()>)> task) {
  auto& queue = platforms_.at(platform_name).rebuild_queue;
  queue.push_back(std::move(task));
  if (queue.size() == 1) {
    RunNextRebuild(platform_name);
  }
}

void Orchestrator::RunNextRebuild(const std::string& platform_name) {
  // The running task keeps its (moved-from) front slot until it calls back.
  auto task = std::move(platforms_.at(platform_name).rebuild_queue.front());
  std::weak_ptr<char> watch = alive_;
  task([this, watch, platform_name] {
    if (watch.expired()) {
      return;
    }
    auto& queue = platforms_.at(platform_name).rebuild_queue;
    queue.pop_front();
    if (!queue.empty()) {
      RunNextRebuild(platform_name);
    }
  });
}

void Orchestrator::ScheduleConfirm(uint64_t journal_id, int rounds_left) {
  if (rounds_left <= 0) {
    return;
  }
  std::weak_ptr<char> watch = alive_;
  clock_->ScheduleAfter(kConfirmInterval, [this, watch, journal_id, rounds_left] {
    if (watch.expired()) {
      return;
    }
    ConfirmProbe(journal_id, rounds_left);
  });
}

void Orchestrator::ConfirmProbe(uint64_t journal_id, int rounds_left) {
  JournalEntry* entry = journal_->Find(journal_id);
  if (!Confirming(entry)) {
    return;  // completed, rolled back, or killed since the probe was armed
  }
  auto tenant = tenants_.find(entry->module_id);
  if (tenant == tenants_.end() || tenant->second.placement.first != entry->platform) {
    return;  // killed or migrated away meanwhile
  }
  ControlRequest probe;
  probe.op = ControlOp::kHealthProbe;  // epoch 0: read-only, no dedup
  probe.tenant = entry->module_id;
  if (entry->consolidated) {
    probe.vm_id = platforms_[entry->platform].shared_vm;
    probe.addr = tenant->second.addr;
  } else {
    probe.vm_id = tenant->second.placement.second;
  }
  bool consolidated = entry->consolidated;
  std::string platform_name = entry->platform;
  Issue(platform_name, probe,
      [this, journal_id, rounds_left, consolidated, platform_name](ControlResponse r) {
        JournalEntry* live = journal_->Find(journal_id);
        if (!Confirming(live)) {
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


bool Orchestrator::Retire(const std::string& module_id, JournalState terminal,
                          const std::string& note, bool uninstall) {
  auto it = tenants_.find(module_id);
  if (it == tenants_.end()) {
    return false;  // never placed (or already retired): clean no-op
  }
  const auto [platform_name, vm_id] = it->second.placement;
  PlatformState& state = platforms_.at(platform_name);
  std::erase(state.consolidated, module_id);
  if (uninstall) {
    ControlRequest req =
        vm_id != 0 ? NewOp(journal_, ControlOp::kUninstallVm, module_id)
                   : NewOp(journal_, ControlOp::kRebuildShared, "shared:" + platform_name);
    req.vm_id = vm_id != 0 ? vm_id : state.shared_vm;
    if (vm_id == 0) {
      req.tenants = SharedTenants(state);
    }
    ControlResponse resp = fleet_->channel().DeliverDirect(platform_name, req);
    if (vm_id == 0 && resp.ok) {
      state.shared_vm = resp.vm_id;  // 0 once the last tenant left
    }
  }
  engine_.ReleasePlacement(it->second.request.client_id, kModuleMemoryBytes);
  tenants_.erase(it);
  journal_->MarkModuleTerminal(module_id, terminal, clock_->now(), note);
  ClearModuleDigest(module_id);
  return controller_.Kill(module_id);
}

bool Orchestrator::Kill(const std::string& module_id) {
  return Retire(module_id, JournalState::kKilled, "killed", /*uninstall=*/true);
}

MigrationStart Orchestrator::MigrateTenant(const std::string& module_id,
                                           const std::string& target_platform,
                                           MigrationCallback on_done) {
  MigrationStart start;
  auto tenant = tenants_.find(module_id);
  if (tenant == tenants_.end()) {
    start.reason = "unknown module id";
    return start;
  }
  const auto [source, vm_id] = tenant->second.placement;
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

  // Journal the intent before any message leaves the controller, linked to
  // the deploy entry this migration supersedes on success.
  const JournalEntry* live = journal_->FindLiveByModule(module_id);
  const uint64_t supersedes = live != nullptr ? live->id : 0;
  auto task = std::make_shared<DeployTask>();
  task->request = tenant->second.request;
  task->request.pinned_platform.clear();
  task->journal_id = journal_->Begin(JournalEntryKind::kMigration, tenant->second.request,
                                     clock_->now());
  task->candidates = {target_platform};
  const uint64_t jid = task->journal_id;
  JournalEntry* entry = journal_->Find(jid);
  entry->module_id = module_id;
  entry->platform = target_platform;
  entry->source_platform = source;
  entry->vm_id = vm_id;
  entry->supersedes = supersedes;
  MigrationReport& report = task->report;
  report.module_id = module_id;
  report.source = source;
  report.target = target_platform;
  report.old_addr = tenant->second.addr;

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
    Run(task, /*admit=*/false);
    const OrchestratedDeploy& redo = task->result;
    if (!redo.outcome.accepted) {
      ctr_migrations_aborted_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort, "module:" + module_id,
                             redo.outcome.reason);
      }
      report.reason = "target verification failed: " + redo.outcome.reason;
    } else {
      if (supersedes != 0) {
        journal_->Advance(supersedes, JournalState::kSuperseded, clock_->now(),
                          "migrated to " + target_platform);
      }
      Kill(module_id);  // releases the old placement's quota share
      report.ok = true;
      report.new_module_id = redo.outcome.module_id;
      report.new_addr = redo.outcome.module_addr;
      ctr_migrations_completed_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateCutover,
                             "module:" + module_id, source + "->" + target_platform);
      }
    }
    if (on_done) {
      on_done(report);
    }
    start.started = true;
    return start;
  }

  // Stateful guest: the task freezes it on the source, then runs the
  // pipeline against the target with the snapshot import as its platform op
  // (Suspend → Verify → Export → Place → Cutover). The migrate-start record
  // is written before the suspend so every step hangs off one migration tree.
  task->direct = false;
  task->verified_note = "target verified";
  task->rejected_note = "target verification failed: ";
  task->placed_note = "target adopted guest";
  task->source_vm = vm_id;
  task->on_migrated = std::move(on_done);
  report.live = true;
  if (obs::Tracer().enabled()) {
    task->span = obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateStart,
                                      "module:" + module_id, source + "->" + target_platform);
  }
  task->starting = true;
  Suspend(task);
  task->starting = false;
  if (!report.reason.empty()) {
    // A guest that is not running fails the start synchronously, with no
    // started/aborted counting.
    journal_->Advance(jid, JournalState::kRolledBack, clock_->now(), report.reason);
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort, "module:" + module_id,
                           report.reason, 0, task->span);
    }
    if (InNetPlatform* box = fleet_->Get(source)) {
      box->TakePostmortem(obs::EventKind::kMigrateAbort, vm_id, report.reason);
    }
    start.reason = report.reason;
    return start;
  }
  ctr_migrations_started_->Increment();
  start.started = true;
  return start;
}

void Orchestrator::Suspend(const std::shared_ptr<DeployTask>& task) {
  ControlRequest req = NewOp(journal_, ControlOp::kSuspend, task->report.module_id);
  req.vm_id = task->source_vm;
  journal_->Find(task->journal_id)->op_epoch = req.attempt_epoch;
  obs::ScopedParent sending(obs::Tracer(), task->span);
  Issue(task->report.source, req, [this, task](ControlResponse response) {
    if (!response.ok) {
      if (task->starting) {
        task->report.reason = response.error;  // MigrateTenant answers started=false
      } else if (response.gave_up) {
        // The suspend may or may not have landed; best-effort cancel now, and
        // again from the heal-time reconcile.
        RecordGiveUp(fleet_, clock_, task->report.source, "suspend:" + task->report.module_id);
        Rollback(*task, response.error, /*defer_cancel=*/true);
      } else {
        AbortMigration(*task, response.error);  // the platform already cleared the mark
      }
      return;
    }
    obs::ScopedParent in_migration(obs::Tracer(), task->span);
    if (tenants_.count(task->report.module_id) == 0) {
      Rollback(*task, "module disappeared during suspend");
      return;
    }
    // Re-verify on the target while the guest is frozen. The old deployment
    // stays committed during the check, so the verifier sees the worst-case
    // network with both copies present; only after the target passes does
    // the old one disappear.
    Run(task, /*admit=*/false);
  });
}

void Orchestrator::Export(const std::shared_ptr<DeployTask>& task) {
  // Reserve the target's quota share for the duration of the transfer.
  task->guard = MakeChannelGuard(task->request.client_id);
  ControlRequest exp = NewOp(journal_, ControlOp::kSnapshotExport, task->report.module_id);
  exp.vm_id = task->source_vm;
  journal_->Find(task->journal_id)->op_epoch = exp.attempt_epoch;
  Issue(task->report.source, exp, [this, task](ControlResponse response) {
    obs::ScopedParent in_migration(obs::Tracer(), task->span);
    if (!response.ok || !response.moved) {
      controller_.Kill(task->result.outcome.module_id);
      if (response.gave_up) {
        // The source may still hold the frozen, marked guest.
        RecordGiveUp(fleet_, clock_, task->report.source, "export:" + task->report.module_id);
        Rollback(*task, response.error, /*defer_cancel=*/true);
      } else {
        // The guest was lost while suspended; clear the migration mark so
        // the watchdog path owns whatever is left of it.
        Rollback(*task, "detach failed: " + response.error);
      }
      return;
    }
    task->moved = response.moved;
    task->report.parked_packets = task->moved->parked.size();
    journal_->MarkExported(task->journal_id, clock_->now());
    Place(task);
  });
}

void Orchestrator::Cutover(const std::shared_ptr<DeployTask>& task) {
  const std::string& module_id = task->result.outcome.module_id;
  ControlRequest cut = NewOp(journal_, ControlOp::kCutover, module_id);
  cut.addr = task->record.addr;
  cut.moved = task->moved;
  journal_->Find(task->journal_id)->op_epoch = cut.attempt_epoch;
  Issue(task->report.target, cut, [this, task](ControlResponse response) {
    obs::ScopedParent in_migration(obs::Tracer(), task->span);
    MigrationReport& report = task->report;
    // Roll forward even on a give-up: the guest is imported and resuming on
    // the target; only the parked blackout traffic is lost with the message.
    std::string note;
    if (response.gave_up) {
      RecordGiveUp(fleet_, clock_, report.target, "cutover:" + task->result.outcome.module_id);
      note = "cutover unacked; parked traffic dropped";
      report.parked_packets = 0;
    }
    uint64_t now = clock_->now();
    // Retire the old placement (its quota share and address key) first; the
    // commit re-registers the tenant under the new module's digest and
    // address.
    Retire(report.module_id, JournalState::kSuperseded, "migrated to " + report.target,
           /*uninstall=*/false);
    CommitPlacement(*task, task->result.vm_id);
    journal_->Advance(task->journal_id, JournalState::kCutover, now, note);
    report.ok = true;
    report.new_module_id = task->result.outcome.module_id;
    report.new_addr = task->result.outcome.module_addr;
    ctr_migrations_completed_->Increment();
    if (obs::Tracer().enabled()) {
      obs::Tracer().Record(now, obs::EventKind::kMigrateCutover, "module:" + report.module_id,
                           report.source + "->" + report.target,
                           static_cast<int64_t>(report.parked_packets));
    }
    if (task->on_migrated) {
      task->on_migrated(report);
    }
  });
}

void Orchestrator::Readopt(const std::shared_ptr<DeployTask>& task, const std::string& reason) {
  // Its RAM was freed by the suspend, so the import fits. The re-import
  // carries a single idempotency token, so duplicated or retried messages
  // resume the source exactly once.
  ControlRequest back = NewOp(journal_, ControlOp::kSnapshotImport, task->report.module_id);
  back.addr = task->report.old_addr;
  back.moved = task->moved;
  Issue(task->report.source, back, [this, task, reason](ControlResponse response) {
    obs::ScopedParent in_rollback(obs::Tracer(), task->span);
    const MigrationReport& report = task->report;
    if (!response.ok) {
      // The guest state is unrecoverable: the tenant is gone.
      Retire(report.module_id, JournalState::kKilled, "guest lost in failed migration",
             /*uninstall=*/false);
      AbortMigration(*task, reason + "; source re-adopt failed: " + response.error);
      return;
    }
    auto tenant = tenants_.find(report.module_id);
    if (tenant != tenants_.end()) {
      tenant->second.placement.second = response.vm_id;
    }
    // Replay the blackout traffic on the source; the resume-on-traffic path
    // drains it once the guest is back up.
    ControlRequest replay = NewOp(journal_, ControlOp::kCutover, report.module_id);
    replay.addr = report.old_addr;
    replay.moved = task->moved;
    client_.Issue(report.source, replay, nullptr);
    AbortMigration(*task, reason);
  });
}

void Orchestrator::AbortMigration(DeployTask& task, const std::string& reason) {
  obs::ScopedParent in_migration(obs::Tracer(), task.span);
  MigrationReport& report = task.report;
  ctr_migrations_aborted_->Increment();
  journal_->Advance(task.journal_id, JournalState::kRolledBack, clock_->now(), reason);
  if (obs::Tracer().enabled()) {
    obs::Tracer().Record(clock_->now(), obs::EventKind::kMigrateAbort,
                         "module:" + report.module_id, reason);
  }
  // Post-mortem on the source platform (when it still exists): the guest's
  // last element counters and the events leading up to the abort.
  if (InNetPlatform* box = fleet_->Get(report.source)) {
    box->TakePostmortem(obs::EventKind::kMigrateAbort, task.source_vm, reason);
  }
  if (task.guard != nullptr) {
    task.guard->Release();
  }
  report.reason = reason;
  if (task.on_migrated) {
    task.on_migrated(report);
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
  auto projected = [&planned_delta](scheduler::PlatformResources res) {
    auto delta = planned_delta.find(res.name);
    if (delta != planned_delta.end()) {
      res.memory_used = static_cast<uint64_t>(
          std::max<int64_t>(0, static_cast<int64_t>(res.memory_used) + delta->second));
    }
    return res;
  };

  for (const scheduler::PlatformResources& hot : snapshot) {
    if (!hot.available || hot.memory_total == 0 ||
        hot.utilization() <= drain_above_utilization) {
      continue;
    }
    ++report.hot_platforms;
    // Only dedicated-VM (stateful) tenants are drained: consolidated ones
    // are stateless and cheap to re-place individually on demand.
    std::vector<std::string> movable;  // in module-id order
    for (const auto& [module_id, tenant] : tenants_) {
      if (tenant.placement.first == hot.name && tenant.placement.second != 0) {
        movable.push_back(module_id);
      }
    }
    if (obs::Health().enabled()) {
      // Drain the least-healthy tenants first (violated > degraded > ok);
      // the stable sort keeps module-id order within a severity class.
      auto severity = [this](const std::string& module_id) {
        return obs::Health().Severity(tenants_.at(module_id).request.client_id);
      };
      std::ranges::stable_sort(movable, std::greater<>(), severity);
    }

    for (const std::string& module_id : movable) {
      if (projected(hot).utilization() <= drain_above_utilization) {
        break;  // drained enough
      }
      // Rank the non-hot survivors by the active policy, with planned moves
      // projected in so one rebalance pass cannot overfill a target.
      std::vector<scheduler::PlatformResources> candidates;
      for (const scheduler::PlatformResources& current : snapshot) {
        scheduler::PlatformResources res = projected(current);
        // Never drain one hot platform into another.
        if (res.name == hot.name || !res.available || res.memory_total == 0 ||
            res.utilization() > drain_above_utilization) {
          continue;
        }
        candidates.push_back(std::move(res));
      }
      scheduler::PlacementRequest needs;
      needs.memory_bytes = kModuleMemoryBytes;
      std::vector<std::string> ranked =
          scheduler::RankPlatforms(engine_.policy(), candidates, needs);
      if (ranked.empty()) {
        break;  // nowhere left to drain to
      }
      MigrationStart started = MigrateTenant(module_id, ranked.front());
      if (started.started) {
        ++report.migrations_started;
        report.moves.emplace_back(module_id, ranked.front());
        planned_delta[hot.name] -= static_cast<int64_t>(kModuleMemoryBytes);
        planned_delta[ranked.front()] += static_cast<int64_t>(kModuleMemoryBytes);
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
  for (const auto& [module_id, tenant] : tenants_) {
    if (tenant.placement.first == platform_name) {
      stranded.emplace_back(module_id, tenant.request);
    }
  }
  report.tenants_affected = stranded.size();

  // The node died: its guests, switch state, and control-endpoint dedup
  // memory are gone. Replace the data-plane instance wholesale rather than
  // tearing guests down one by one (which would schedule suspend/boot
  // events on a dead box).
  fleet_->Replace(platform_name);
  it->second.shared_vm = 0;
  for (const auto& [module_id, request] : stranded) {
    Retire(module_id, JournalState::kKilled, "platform failed", /*uninstall=*/false);
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
  if (platforms_.count(platform_name) != 0) {
    controller_.RestorePlatform(platform_name);
  }
}

Vm::VmId Orchestrator::LiveGuest(const std::string& platform_name, Vm::VmId vm_id,
                                 Ipv4Address addr) {
  InNetPlatform* box = fleet_->Get(platform_name);
  if (box == nullptr) {
    return 0;
  }
  return vm_id != 0 && box->vms().Find(vm_id) != nullptr ? vm_id : box->InstalledVmFor(addr);
}

auto Orchestrator::RestoreTask(JournalEntry& e, Ipv4Address addr, Vm::VmId vm, bool reverify)
    -> std::shared_ptr<DeployTask> {
  std::string err;
  if (!controller_.RestoreDeployment(e.request, e.module_id, e.platform, addr, reverify, &err)) {
    journal_->Advance(e.id, JournalState::kRolledBack, clock_->now(),
                      (vm != 0 ? "re-verification failed after crash: " : "restore failed: ") + err);
    if (vm != 0) {  // remove the guest that could not be vouched for
      ControlRequest undo = NewOp(journal_, ControlOp::kUninstallAddr, e.module_id);
      undo.addr = addr;
      fleet_->channel().DeliverDirect(e.platform, undo);
    }
    return nullptr;
  }
  auto task = std::make_shared<DeployTask>();
  task->request = e.request;
  task->journal_id = e.id;
  task->record = {e.request, {e.platform, 0}, addr,
                  controller_.FindDeployment(e.module_id)->config_text};
  task->result.outcome.module_id = e.module_id;
  task->result.outcome.sandboxed = e.sandboxed;
  task->consolidated = e.consolidated;
  if (vm != 0) {
    task->guard = MakeChannelGuard(e.request.client_id);
    CommitPlacement(*task, vm);
    e.vm_id = vm;  // the guest found, as PlaceDone records the acked one
  }
  return task;
}

RecoveryReport Orchestrator::RecoverFromJournal() {
  RecoveryReport report;
  const uint64_t now = clock_->now();
  // A migration whose snapshot left the source decides the fate of the entry
  // it supersedes, which must not be adopted as a second live copy.
  std::set<uint64_t> superseded_in_progress;
  for (const JournalEntry& e : journal_->entries()) {
    if (e.exported && DeployJournal::IsInFlight(e.state)) {
      superseded_in_progress.insert(e.supersedes);
    }
  }
  // Retires the entry and places its request afresh.
  auto replace = [this, now, &report](uint64_t id, const std::string& note) {
    journal_->Advance(id, JournalState::kRolledBack, now, note);
    ++report.rolled_back;
    DeployViaChannel(journal_->Find(id)->request, nullptr);
    ++report.resumed;
  };
  // Fix the scan range first: re-placements append entries that must not
  // themselves be scanned.
  const size_t scan = journal_->entries().size();
  for (size_t i = 0; i < scan; ++i) {
    const uint64_t id = journal_->entries()[i].id;
    JournalEntry* e = journal_->Find(id);
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
    const bool migration = e->kind == JournalEntryKind::kMigration;
    const bool live = e->state == JournalState::kCutover;
    const bool placed = live || Confirming(e);
    // 1. The snapshot never left the source and nothing was placed without
    // one (stateless, adopted): cancel the mark. The (possibly suspended) guest
    // resumes on traffic; its deploy entry stays live.
    if (migration && !e->exported && !placed) {
      if (InNetPlatform* src = fleet_->Get(e->source_platform); src != nullptr && e->vm_id != 0) {
        src->CancelMigrationOut(e->vm_id);
      }
      journal_->Advance(id, JournalState::kRolledBack, now, "crashed mid-migration; cancelled");
      ++report.rolled_back;
      continue;
    }
    // 2. Nothing was minted yet.
    if (e->state == JournalState::kIntent) {
      replace(id, "crashed before verify; re-placed");
      continue;
    }
    if (live && superseded_in_progress.count(id) != 0) {
      continue;  // its in-flight migration decides its fate
    }
    // 3. The guest is up: restore belief around it. Before kPlaced, vm_id is
    // not the entry's guest (a migration's names the source), so look it up by
    // address. Re-verify only an install whose ack died with the controller.
    const Ipv4Address addr = Ipv4Address::Parse(e->addr).value_or(Ipv4Address());
    const Vm::VmId vm = LiveGuest(e->platform, placed && !e->consolidated ? e->vm_id : 0, addr);
    const bool unacked_install = !migration && !placed;
    if (vm != 0 && RestoreTask(*e, addr, vm, unacked_install)) {
      ++(live ? report.adopted : report.completed);
      if (migration && !live) {  // roll forward; the parked traffic died with the controller
        journal_->Advance(e->supersedes, JournalState::kSuperseded, now,
                          "migration rolled forward after crash");
        journal_->Advance(id, JournalState::kCutover, now,
                          "rolled forward after crash; parked traffic lost");
      } else if (!live) {
        if (unacked_install) {
          journal_->Advance(id, JournalState::kPlaced, now, "found applied after crash");
        }
        ScheduleConfirm(id, kConfirmRounds);
      }
      continue;
    }
    // 4. The guest is gone (or was refused and removed).
    if (unacked_install) {
      // Re-send the install under its original token (if only the ack was
      // lost, the endpoint dedups), unless re-verification just refused it.
      auto task = vm != 0 ? nullptr : RestoreTask(*e, addr, 0, /*reverify=*/false);
      if (task == nullptr) {
        ++report.rolled_back;
        continue;
      }
      task->direct = false;
      task->trace_cutover = false;
      task->placed_note = "re-sent install acked";
      task->failed_note = "re-sent install failed: ";
      task->epoch = e->op_epoch;
      Place(task);
      ++report.resumed;
    } else if (live) {
      journal_->Advance(id, JournalState::kKilled, now, "guest did not survive the crash");
      ++report.killed;
    } else if (migration) {
      // A failed import the source re-adopted before the crash left the
      // original whole there: adopt it and cancel the migration.
      JournalEntry* orig = journal_->Find(e->supersedes);
      const Ipv4Address from = Ipv4Address::Parse(orig ? orig->addr : "").value_or(Ipv4Address());
      const Vm::VmId back = orig != nullptr ? LiveGuest(orig->platform, 0, from) : 0;
      if (back != 0 && RestoreTask(*orig, from, back, /*reverify=*/false)) {
        journal_->Advance(id, JournalState::kRolledBack, now, "source re-adopted guest; cancelled");
        ++report.adopted;
        ++report.rolled_back;
        continue;
      }
      journal_->Advance(e->supersedes, JournalState::kKilled, now,
                        "guest lost in crashed migration");
      replace(id, placed ? "target guest lost; tenant re-placed fresh"
                         : "snapshot lost in crash; tenant re-placed fresh");
    } else {
      replace(id, "guest lost; re-placed");
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
  ReconcileReport report{.platform = platform_name};
  if (fleet_->Get(platform_name) == nullptr) {
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
  for (const auto& [module_id, tenant] : tenants_) {
    if (tenant.placement.first == platform_name) {
      on_platform.push_back(module_id);
    }
  }
  for (const std::string& module_id : on_platform) {
    ++report.checked;
    auto tenant = tenants_.find(module_id);
    if (tenant == tenants_.end()) {
      continue;  // a previous Kill in this loop rebuilt the shared VM set
    }
    if (LiveGuest(platform_name, tenant->second.placement.second, tenant->second.addr) != 0) {
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
    if (e.platform == platform_name && Confirming(&e) && tenants_.count(e.module_id) != 0) {
      ScheduleConfirm(e.id, kConfirmRounds);
      ++report.rearmed;
    }
  }
  // Flush deferred ops: installs that gave up unacked while the platform was
  // cut off may have executed (uninstall them by address), and suspends that
  // gave up may have left a guest marked migrating-out (cancel the mark).
  for (auto it = pending_cleanups_.begin(); it != pending_cleanups_.end();) {
    if (it->first == platform_name) {
      it->second.attempt_epoch = journal_->MintEpoch();
      client_.Issue(platform_name, it->second, nullptr);
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
  if (!on_done) {
    on_done = [](const TenantExport&) {};
  }
  TenantExport out;
  auto tenant = tenants_.find(module_id);
  if (tenant == tenants_.end()) {
    out.error = "unknown module id";
    on_done(out);
    return;
  }
  out.request = tenant->second.request;
  out.request.pinned_platform.clear();
  const auto [source, vm_id] = tenant->second.placement;

  if (vm_id == 0) {
    // Consolidated (stateless): no guest state to carry — the adopting
    // region redeploys from the request. Mark the journal entry superseded
    // before Kill so the record reads "exported", not "killed".
    journal_->MarkModuleTerminal(module_id, JournalState::kSuperseded, clock_->now(),
                                 "exported to region coordinator");
    Kill(module_id);
    out.ok = true;
    on_done(out);
    return;
  }

  // Stateful: suspend over the channel (parks blackout traffic, acks when
  // frozen), then detach the guest on the direct path.
  ControlRequest req = NewOp(journal_, ControlOp::kSuspend, module_id);
  req.vm_id = vm_id;
  Issue(source, req,
        [this, module_id, source, vm_id, out, on_done](ControlResponse response) mutable {
          ControlResponse detached;
          if (response.ok) {
            ControlRequest exp = NewOp(journal_, ControlOp::kSnapshotExport, module_id);
            exp.vm_id = vm_id;
            detached = fleet_->channel().DeliverDirect(source, exp);
          } else if (response.gave_up) {
            RecordGiveUp(fleet_, clock_, source, "region_export:" + module_id);
          }
          if (!detached.ok || !detached.moved) {
            SendCancelMigration(source, module_id, vm_id, /*defer=*/response.gave_up);
            out.error = response.ok ? "detach failed: " + detached.error
                                    : "suspend failed: " + response.error;
            on_done(out);
            return;
          }
          // The guest left this region: release belief and quota, retire the
          // controller's deployment record, and journal the hand-off.
          Retire(module_id, JournalState::kSuperseded, "exported to region coordinator",
                 /*uninstall=*/false);
          out.ok = true;
          out.moved = detached.moved;
          on_done(out);
        });
}

TenantAdopt Orchestrator::AdoptMigrated(
    const ClientRequest& request, std::shared_ptr<platform::InNetPlatform::MigratedVm> moved) {
  // Null `moved` is a stateless hand-over: a plain redeploy through the full
  // pipeline. Otherwise admission → verification → import the frozen guest →
  // replay parked traffic: the target half of MigrationImportDone, with the
  // snapshot arriving from the coordinator instead of a sibling platform.
  OrchestratedDeploy done;
  if (moved == nullptr) {
    done = Deploy(request);
  } else {
    auto task = std::make_shared<DeployTask>();
    task->request = request;
    task->journal_id = journal_->Begin(JournalEntryKind::kMigration, request, clock_->now());
    task->trace_cutover = false;
    task->verified_note = "adopting imported guest";
    task->moved = std::move(moved);
    Run(task, /*admit=*/true);
    done = task->result;
  }
  TenantAdopt out;
  out.ok = done.outcome.accepted;
  out.error = done.outcome.reason;
  out.module_id = done.outcome.module_id;
  out.platform = done.outcome.platform;
  out.addr = done.outcome.module_addr;
  return out;
}

}  // namespace innet::controller
