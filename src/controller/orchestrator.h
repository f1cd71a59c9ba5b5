// Orchestrator: the full In-Net deployment flow, control plane to data
// plane. The controller verifies a request (security + policy + client
// requirements, §4); the orchestrator then realizes it on the chosen
// platform, applying §5's scalability tactics:
//
//   - statically-safe, stateless modules are *consolidated* into one shared
//     ClickOS VM per platform (the merge is provably isolation-preserving:
//     the checker verified each config alone, configs share no elements, and
//     the demux enforces explicit addressing);
//   - stateful or sandbox-verdict modules get their own VM, wrapped with a
//     ChangeEnforcer when required.
//
// Placement is resource-aware: every request passes the scheduler's
// admission control (per-tenant quotas), then its placement engine ranks the
// platforms with headroom by the active policy; the controller verifies the
// candidates in that order, so the engine proposes but never bypasses
// verification. Stateful tenants can be live-migrated between platforms
// (suspend → re-verify on target → transfer → resume → cutover), and
// Rebalance() drains hot platforms through the same path.
//
// Fault tolerance: every platform mutation travels as a ControlRequest over
// the fleet's ControlChannel (lossy and partitionable under a fault plan),
// each deploy/migration is journaled write-ahead in a DeployJournal, and a
// controller crash is modeled by destroying the Orchestrator and building a
// new one over the surviving PlatformFleet + journal; RecoverFromJournal()
// then converges every entry by probing actual guest state, one rule per
// (entry kind, state) — see journal.h.
// Quota reservations are held by RAII ReservationGuards, so no error path
// can strand a reservation: within one controller lifetime the guard's
// destructor releases it, and across a crash the engine's usage is rebuilt
// from adopted journal entries only.
#ifndef SRC_CONTROLLER_ORCHESTRATOR_H_
#define SRC_CONTROLLER_ORCHESTRATOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/controller/control_channel.h"
#include "src/controller/controller.h"
#include "src/controller/fleet.h"
#include "src/controller/journal.h"
#include "src/platform/platform.h"
#include "src/scheduler/engine.h"

namespace innet::controller {

struct OrchestratedDeploy {
  DeployOutcome outcome;      // the controller's verification result
  bool consolidated = false;  // true when placed into the shared VM
  platform::Vm::VmId vm_id = 0;
  uint64_t journal_id = 0;    // the deploy's WAL entry
};

// Result of failing a platform over: which tenants were stranded, which
// could be re-verified and re-placed on survivors, and what the control
// plane paid for it.
struct FailoverReport {
  std::string failed_platform;
  bool unknown_platform = false;  // name matched no platform: clean no-op
  bool already_failed = false;    // repeated failure report: idempotent no-op
  size_t tenants_affected = 0;
  size_t recovered = 0;   // re-verified + re-placed on a surviving platform
  size_t lost = 0;        // no surviving placement satisfied verification
  // old module id -> new module id for every recovered tenant.
  std::vector<std::pair<std::string, std::string>> remapped;
  std::vector<std::string> lost_module_ids;
  // Wall-clock spent re-verifying and re-placing (the control-plane share of
  // recovery time; data-plane boot time accrues on the simulated clock).
  double reverify_ms = 0;
};

// Synchronous answer to MigrateTenant: whether the migration mechanism was
// engaged. The outcome arrives later through the MigrationCallback (the
// suspend takes simulated time).
struct MigrationStart {
  bool started = false;
  std::string reason;  // why it could not start
};

// Outcome of one migration, delivered when the cutover (or abort) happened.
struct MigrationReport {
  bool ok = false;
  bool live = false;  // suspend/resume state transfer (vs. stateless redeploy)
  std::string reason;
  std::string module_id;      // the pre-migration id
  std::string new_module_id;  // the post-migration id (re-verified deployment)
  std::string source;
  std::string target;
  Ipv4Address old_addr;
  Ipv4Address new_addr;
  // Packets that arrived during the blackout and were carried to the target.
  size_t parked_packets = 0;
};

struct RebalanceReport {
  size_t hot_platforms = 0;
  size_t migrations_started = 0;
  // module id -> chosen target, in start order.
  std::vector<std::pair<std::string, std::string>> moves;
};

// What RecoverFromJournal did with the surviving WAL after a controller
// crash: every non-terminal entry is scanned and converged exactly once.
struct RecoveryReport {
  size_t scanned = 0;      // journal entries examined
  size_t adopted = 0;      // live (cut-over) tenants whose belief was rebuilt
  size_t completed = 0;    // in-flight entries found applied and completed
  size_t resumed = 0;      // in-flight entries re-sent or re-placed afresh
  size_t rolled_back = 0;  // in-flight entries undone
  size_t killed = 0;       // tenants whose guests did not survive the crash
};

// Outcome of reconciling one platform's actual guest state against
// controller belief after a partition heals.
struct ReconcileReport {
  std::string platform;
  size_t checked = 0;   // placements believed to live on the platform
  size_t healthy = 0;   // guest present (running, booting, or suspended)
  size_t lost = 0;      // guest gone: tenant killed + journaled
  size_t rearmed = 0;   // in-flight confirm chains restarted
  size_t cleanups = 0;  // deferred ops flushed (uninstalls, migration cancels)
};

// Result of evicting a tenant for cross-region migration: the original
// request always travels (the adopting region re-verifies from first
// principles); stateful tenants additionally carry their frozen guest state.
// Consolidated tenants have nothing to carry (`moved` stays null).
struct TenantExport {
  bool ok = false;
  std::string error;
  ClientRequest request;
  std::shared_ptr<platform::InNetPlatform::MigratedVm> moved;
};

// Result of adopting a tenant exported by another region.
struct TenantAdopt {
  bool ok = false;
  std::string error;
  std::string module_id;
  std::string platform;
  Ipv4Address addr;
};

struct OrchestratorOptions {
  uint64_t platform_memory_bytes = 16ull << 30;
  scheduler::PlacementPolicyKind policy = scheduler::PlacementPolicyKind::kFirstFit;
};

class Orchestrator {
 public:
  using MigrationCallback = std::function<void(const MigrationReport&)>;
  using DeployCallback = std::function<void(const OrchestratedDeploy&)>;

  // Creates one InNetPlatform per platform node in the network (the
  // orchestrator owns its fleet and journal: the common, crash-free setup).
  Orchestrator(topology::Network network, sim::EventQueue* clock,
               OrchestratorOptions options = {});
  // Crash-recovery form: attaches to a fleet and journal that outlive the
  // orchestrator. Destroying an orchestrator and constructing a new one over
  // the same (fleet, journal) simulates a controller crash + restart; call
  // RecoverFromJournal() on the successor to converge.
  Orchestrator(topology::Network network, sim::EventQueue* clock, OrchestratorOptions options,
               PlatformFleet* fleet, DeployJournal* journal);
  // Defuses every quota guard still captured in a not-yet-fired continuation:
  // the guard's raw engine pointer dies with this orchestrator, and a stale
  // clock event destroying it later must not release into freed memory. The
  // successor's RecoverFromJournal rebuilds the ledger from scratch anyway.
  ~Orchestrator();

  bool AddOperatorPolicy(const std::string& reach_statement, std::string* error = nullptr) {
    return controller_.AddOperatorPolicy(reach_statement, error);
  }

  // Verify + realize: admission (quotas) → placement engine (headroom +
  // policy ranking, skipped for pinned requests) → controller verification
  // over the candidates in order → instantiation. On rejection,
  // `outcome.accepted` is false and nothing is instantiated or accounted.
  // Control messages use the channel's fault-exempt direct path, so the call
  // stays synchronous; use DeployViaChannel to exercise the lossy channel.
  OrchestratedDeploy Deploy(const ClientRequest& request);

  // As Deploy, but the install travels over the (possibly lossy) control
  // channel with idempotent retries; `on_done` fires exactly once when the
  // placement is acked or abandoned. Under an ideal channel the whole flow
  // completes before this returns. Mixing channel deploys with synchronous
  // Deploy calls for the *same* platform's shared VM while one is still in
  // flight is unsupported (the shared-VM rebuild queue serializes channel
  // deploys only).
  void DeployViaChannel(const ClientRequest& request, DeployCallback on_done = nullptr);

  // Stops a module: removes its VM or rebuilds the shared VM without it.
  // A never-placed module id is a clean no-op returning false.
  bool Kill(const std::string& module_id);

  // Live-migrates a module to `target_platform`. Stateful tenants move via
  // suspend → re-verify on target → state transfer → resume → switch-rule
  // cutover; traffic arriving during the blackout parks in the source's
  // bounded stall buffer and is re-addressed + replayed on the target.
  // Consolidated (stateless) tenants degenerate to make-before-break
  // redeployment — nothing to carry. `on_done` fires exactly once when the
  // migration completes or aborts (never when started=false). Every step is
  // a journaled control-channel operation: under loss the client retries
  // with the same idempotency token, and an import that fails on the target
  // re-adopts the guest on the source exactly once.
  MigrationStart MigrateTenant(const std::string& module_id, const std::string& target_platform,
                               MigrationCallback on_done = nullptr);

  // Background drain: migrates dedicated-VM tenants off every platform whose
  // memory utilization exceeds `drain_above_utilization`, choosing targets
  // with the active placement policy among the non-hot platforms.
  RebalanceReport Rebalance(double drain_above_utilization = 0.7);

  // Declares a platform node dead and fails its tenants over: every module
  // placed there is killed, then re-deployed through the full verification
  // pipeline (security + operator policy + client requirements) against the
  // surviving platforms — stateless tenants re-merge into the target's
  // shared VM. The failed platform is skipped by future deployments until
  // RestorePlatform. Idempotent: repeating the report (already_failed) or
  // naming an unknown platform (unknown_platform) is a clean no-op.
  FailoverReport MarkPlatformFailed(const std::string& platform_name);

  // Brings a failed platform back into the placement pool with a fresh
  // data-plane instance (its previous guests died with the node).
  void RestorePlatform(const std::string& platform_name);

  // --- Fault-tolerant control plane -----------------------------------------

  // Replays the write-ahead journal after a simulated controller crash:
  // rebuilds controller/scheduler/orchestrator belief for completed entries
  // and converges every in-flight one against actual platform state.
  // Recovery probes the platforms directly (the operator restoring a
  // controller is assumed to have a working path for reads); re-sent
  // mutations go through the channel under their original tokens.
  RecoveryReport RecoverFromJournal();

  // Partitions (or heals) the control link to a platform. While partitioned
  // the platform keeps serving installed tenants — watchdog and buffers are
  // local — but no control message crosses in either direction. Healing
  // automatically reconciles controller belief against the platform's
  // actual guest state (see ReconcilePlatform).
  void SetPartitioned(const std::string& platform_name, bool partitioned);

  // Compares belief with actuality for one platform: placements whose guests
  // vanished are killed + journaled, in-flight confirm chains are re-armed,
  // and deferred cleanups (uninstalls for unacked installs, cancels for
  // migrations that gave up mid-partition) are flushed. Safe to call at any
  // time; SetPartitioned(name, false) calls it.
  ReconcileReport ReconcilePlatform(const std::string& platform_name);

  // --- Federation hooks ------------------------------------------------------

  // Evicts a module for cross-region migration. Stateful tenants suspend and
  // detach over the intra-region channel (loss applies), then leave with
  // their frozen guest; consolidated tenants are simply retired (the
  // adopting region redeploys from the request). `on_done` fires exactly
  // once; on failure the guest resumes here and nothing is released.
  using ExportCallback = std::function<void(const TenantExport&)>;
  void ExportTenant(const std::string& module_id, ExportCallback on_done);

  // Adopts a tenant handed over by the federation coordinator: admission →
  // verification → snapshot import → parked-traffic replay, on the channel's
  // direct path (the WAN hop's faults were already paid on the coordinator's
  // kRegionImport leg). Null `moved` degenerates to a plain Deploy.
  TenantAdopt AdoptMigrated(const ClientRequest& request,
                            std::shared_ptr<platform::InNetPlatform::MigratedVm> moved);

  Controller& controller() { return controller_; }
  scheduler::PlacementEngine& engine() { return engine_; }
  platform::InNetPlatform* platform(const std::string& name) { return fleet_->Get(name); }
  DeployJournal& journal() { return *journal_; }
  const DeployJournal& journal() const { return *journal_; }
  PlatformFleet& fleet() { return *fleet_; }
  ControlChannel& channel() { return fleet_->channel(); }
  ControlClient& control_client() { return client_; }
  // Attaches the control-plane fault oracle (nullptr = ideal channel).
  void SetControlFaults(sim::FaultInjector* injector) { fleet_->SetControlFaults(injector); }

  // Tenants currently sharing the consolidated VM on `platform`.
  size_t ConsolidatedTenantCount(const std::string& platform_name) const;

  size_t placement_count() const { return tenants_.size(); }
  bool HasPlacement(const std::string& module_id) const {
    return tenants_.count(module_id) != 0;
  }
  // (platform name, dedicated VM id or 0 when consolidated), or nullptr.
  const std::pair<std::string, platform::Vm::VmId>* FindPlacement(
      const std::string& module_id) const;

 private:
  // One live module: its request (failover and migration re-verify from it),
  // where it runs, and the address + config a shared-VM rebuild needs.
  struct TenantRecord {
    ClientRequest request;
    // (platform name, dedicated VM id or 0 when consolidated).
    std::pair<std::string, platform::Vm::VmId> placement;
    Ipv4Address addr;
    std::string config_text;
  };
  struct PlatformState {
    // Shared-VM tenants by module id. The order names the guest's t<i>_
    // element prefixes, so a rebuild keeps it.
    std::vector<std::string> consolidated;
    platform::Vm::VmId shared_vm = 0;
    // Channel placements rebuild the shared VM one at a time: each queued
    // task computes its merge set only when it runs, so in-flight rebuilds
    // never clobber each other.
    std::deque<std::function<void(std::function<void()>)>> rebuild_queue;
  };
  struct DeployTask;

  // The deploy pipeline. Every entry path (Deploy, DeployViaChannel,
  // AdoptMigrated, MigrateTenant, the recovery re-send) runs a DeployTask
  // through Admit (admission, ranking, quota reservation) → Verify
  // (controller check, journal kVerified) → Place (the platform op, direct
  // or over the channel) → PlaceDone (ack or failure) → CommitPlacement.
  // Each step rolls the journal entry back when it fails. A live migration
  // adds Suspend before Verify, Export before Place, and Cutover between
  // PlaceDone and the commit; a failed import re-adopts on the source.
  OrchestratedDeploy StartDeploy(const ClientRequest& request, bool direct,
                                 DeployCallback on_done);
  void Run(const std::shared_ptr<DeployTask>& task, bool admit);
  bool Admit(DeployTask& task);
  bool Verify(DeployTask& task);
  void Place(const std::shared_ptr<DeployTask>& task);
  void PlaceDone(const std::shared_ptr<DeployTask>& task, const ControlResponse& response);
  // The placement's control message: shared-VM rebuild, install, or import.
  ControlRequest PlacementOp(const DeployTask& task);
  // The one commit step (placement acked, cut over, or adopted by recovery):
  // joins the shared VM or tags the dedicated guest's owner, records the
  // tenant, hands its verify-time path digest to the INT collector so the
  // data plane attests sampled packets against it, and keeps the quota share.
  void CommitPlacement(DeployTask& task, platform::Vm::VmId vm_id);
  // A step failed: roll the entry back. A live migration also cancels the
  // source guest's migration mark (`defer_cancel` queues the cancel for the
  // heal too) and reports the abort.
  void Rollback(DeployTask& task, const std::string& note, bool defer_cancel = false);

  // Live-migration steps, each continuing from the previous op's ack.
  void Suspend(const std::shared_ptr<DeployTask>& task);  // freeze the source guest
  void Export(const std::shared_ptr<DeployTask>& task);   // detach its snapshot
  // Replay the parked traffic on the target; the ack (or give-up) retires
  // the source as superseded and commits.
  void Cutover(const std::shared_ptr<DeployTask>& task);
  // The import failed: re-adopt the guest on the source and replay there.
  void Readopt(const std::shared_ptr<DeployTask>& task, const std::string& reason);
  void AbortMigration(DeployTask& task, const std::string& reason);

  // The shared VM's tenant list, in slot order.
  std::vector<platform::TenantConfig> SharedTenants(const PlatformState& state) const;

  // Tears a live module down: journal entry marked `terminal` (unless the
  // caller already did), quota, INT keys and controller record released;
  // `uninstall` also removes its guest or rebuilds the shared VM without it.
  bool Retire(const std::string& module_id, JournalState terminal, const std::string& note,
              bool uninstall);

  // Drops the module's INT attestation keys before its deployment record is
  // erased. The client-id key survives while the client still has another
  // live module (migration re-registers via CommitPlacement anyway).
  void ClearModuleDigest(const std::string& module_id);

  // client_.Issue, dropping the continuation if this orchestrator died first.
  void Issue(const std::string& platform_name, const ControlRequest& req,
             std::function<void(ControlResponse)> then);
  // An install or import gave up unacked: record the lost contact and queue
  // an idempotent uninstall by address for the heal-time reconcile.
  void AbandonInstall(const std::string& platform_name, const std::string& what,
                      const std::string& module_id, Ipv4Address addr, bool uninstall_now);
  // Best-effort: clears a source guest's migration mark. `defer` also queues
  // the cancel for the heal-time reconcile (the source may be unreachable).
  void SendCancelMigration(const std::string& platform_name, const std::string& module_id,
                           platform::Vm::VmId vm_id, bool defer = false);

  // The guest serving a placement on `platform_name`: `vm_id` when that
  // guest exists there, else the guest the switch routes `addr` to, else 0.
  // Recovery and the heal-time reconcile both decide liveness with it.
  platform::Vm::VmId LiveGuest(const std::string& platform_name, platform::Vm::VmId vm_id,
                               Ipv4Address addr);

  // Recovery: restores the controller's record of the entry's module and
  // returns a task holding its placement, past Verify. With `vm`, a guest
  // found up at `addr`, it also commits the placement around that guest and
  // records it as the entry's. On failure the entry is rolled back, `vm` (if
  // any) is uninstalled, and the task is null.
  std::shared_ptr<DeployTask> RestoreTask(JournalEntry& e, Ipv4Address addr,
                                          platform::Vm::VmId vm, bool reverify);

  // Ledger prober: fills *out from the named platform's live state.
  bool ProbePlatform(const std::string& name, scheduler::PlatformResources* out);

  // Creates a quota guard destined to ride an async continuation, registering
  // it so ~Orchestrator can defuse it if the continuation outlives us.
  std::shared_ptr<scheduler::ReservationGuard> MakeChannelGuard(const std::string& client_id);

  // Serialized shared-VM rebuild queue for channel placements.
  void EnqueueRebuild(const std::string& platform_name,
                      std::function<void(std::function<void()>)> task);
  void RunNextRebuild(const std::string& platform_name);

  // Confirmation chain: probe the placed guest until it is seen up, then
  // advance the journal placed -> booted -> cut-over. Bounded rounds; a
  // give-up (partitioned platform) stops the chain until a heal re-arms it.
  void ScheduleConfirm(uint64_t journal_id, int rounds_left);
  void ConfirmProbe(uint64_t journal_id, int rounds_left);

  Controller controller_;
  sim::EventQueue* clock_;
  scheduler::PlacementEngine engine_;
  // Owned in the common setup; null when attached to an external fleet /
  // journal (the crash-recovery form).
  std::unique_ptr<PlatformFleet> owned_fleet_;
  std::unique_ptr<DeployJournal> owned_journal_;
  PlatformFleet* fleet_;
  DeployJournal* journal_;
  ControlClient client_;
  // Liveness token for every continuation this orchestrator schedules: a
  // probe or retry that fires after the controller "crashed" must be a
  // silent no-op, never a use-after-free.
  std::shared_ptr<char> alive_;
  std::unordered_map<std::string, PlatformState> platforms_;
  // module id -> record, ordered so failover, drain and reconcile walk
  // tenants deterministically.
  std::map<std::string, TenantRecord> tenants_;
  // Deferred ops by platform: an uninstall for each install that gave up
  // unacked (the target may have executed it) and a migration cancel for
  // each suspend or export that gave up. ReconcilePlatform sends them, each
  // under an epoch minted then.
  std::vector<std::pair<std::string, ControlRequest>> pending_cleanups_;
  // Every guard handed to an async continuation, so the destructor can defuse
  // the ones still alive (their engine pointer dies with us).
  std::vector<std::weak_ptr<scheduler::ReservationGuard>> channel_guards_;
  obs::Counter* ctr_migrations_started_ = nullptr;
  obs::Counter* ctr_migrations_completed_ = nullptr;
  obs::Counter* ctr_migrations_aborted_ = nullptr;
  obs::Counter* ctr_replays_ = nullptr;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_ORCHESTRATOR_H_
