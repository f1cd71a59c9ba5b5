// Vm + VmManager: the ClickOS guest lifecycle simulator. A Vm hosts a live
// Click graph (real packet processing); its lifecycle transitions (boot,
// suspend, resume) take simulated time from the cost model, scheduled on the
// event queue.
//
// Failure model: a guest in any RAM-holding state can crash (injected by a
// sim::FaultInjector or forced by tests/benches through CrashVm). A crashed
// guest releases its memory but stays registered under its id so the
// platform watchdog can Restart it in place — the switch rules and stalled
// buffers keyed by the id stay valid across the restart.
#ifndef SRC_PLATFORM_VM_H_
#define SRC_PLATFORM_VM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/obs/trace.h"
#include "src/platform/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"

namespace innet::platform {

enum class VmState {
  kBooting,
  kRunning,
  kSuspending,
  kSuspended,
  kResuming,
  kCrashed,
  kDestroyed
};

class Vm {
 public:
  using VmId = uint64_t;
  using EgressHandler = std::function<void(Packet&)>;

  VmId id() const { return id_; }
  // "vm:<id>", built once when the guest gets its id: the per-packet flight
  // records at ingress and egress share it instead of formatting their own.
  const obs::EventText& target() const { return target_; }
  VmKind kind() const { return kind_; }
  VmState state() const { return state_; }
  click::Graph* graph() const { return graph_.get(); }
  // How many times this guest was restarted after a crash.
  uint64_t restart_count() const { return restart_count_; }

  // Feeds a packet to the guest's first FromNetfront. Silently drops when
  // the VM is not running (as a real guest with a detached netfront would).
  void Inject(Packet& packet);
  // Called for every packet the guest emits on any ToNetfront.
  void SetEgressHandler(EgressHandler handler);

  uint64_t injected_count() const { return injected_count_; }

  // Simulated time of the last packet handled (or of becoming ready); drives
  // the platform's idle-suspend policy.
  sim::TimeNs last_activity_ns() const { return last_activity_ns_; }

  // The tenant (client id) this guest serves; "" for shared/unattributed
  // guests. Set by the orchestrator at deploy time so lifecycle events can
  // feed the per-tenant health monitor, and carried across restart and
  // migration.
  const std::string& owner() const { return owner_; }
  void set_owner(std::string owner) { owner_ = std::move(owner); }

  // Span id of this guest's most recent boot/restart trace event (0 when the
  // tracer was off). Boot completions, crashes, and watchdog restarts parent
  // to it so a guest's lifecycle forms one trace tree.
  uint64_t trace_span() const { return trace_span_; }

 private:
  friend class VmManager;
  friend class InNetPlatform;
  Vm() = default;

  VmId id_ = 0;
  obs::EventText target_;
  VmKind kind_ = VmKind::kClickOs;
  VmState state_ = VmState::kBooting;
  std::unique_ptr<click::Graph> graph_;
  EgressHandler egress_;
  // The configuration the guest was booted from: a crash loses all element
  // state, and Restart builds a fresh graph from it.
  std::shared_ptr<const click::ConfigGraph> config_;
  std::string owner_;
  uint64_t injected_count_ = 0;
  uint64_t restart_count_ = 0;
  uint64_t trace_span_ = 0;
  // Bumped on every lifecycle transition a scheduled callback could race
  // with (boot, suspend, resume, restart, crash, destroy). Callbacks capture
  // the epoch they were scheduled under and become no-ops when it moved —
  // this is what makes Destroy-during-boot cancel the pending on_ready
  // instead of letting a later same-state guest absorb it.
  uint64_t epoch_ = 0;
  sim::TimeNs last_activity_ns_ = 0;
  sim::EventQueue* clock_ = nullptr;
};

// A suspended guest's frozen state, detached from its manager for live
// migration. The Click graph object moves as-is, so element state (counters,
// flow tables, queued packets) survives the transfer byte-for-byte. Both
// managers must share the same event queue — the graph's timed elements keep
// their clock binding across the move.
struct VmSnapshot {
  VmKind kind = VmKind::kClickOs;
  std::shared_ptr<const click::ConfigGraph> config;
  std::string owner;
  std::unique_ptr<click::Graph> graph;
  uint64_t injected_count = 0;
  uint64_t restart_count = 0;
};

// Parses `text` into the shared, immutable configuration VmManager::Create
// takes; nullptr + *error on a syntax error.
std::shared_ptr<const click::ConfigGraph> ParseGuestConfig(const std::string& text,
                                                           std::string* error);

class VmManager {
 public:
  using ReadyCallback = std::function<void(Vm*)>;
  // Observers fire whenever a guest transitions to kCrashed (boot failure or
  // runtime crash), before any restart is attempted.
  using CrashObserver = std::function<void(Vm*)>;

  VmManager(sim::EventQueue* clock, uint64_t total_memory_bytes)
      : clock_(clock), memory_total_(total_memory_bytes) {}

  // Starts booting a VM running `config`; `on_ready` fires when the guest is
  // up (after BootTime). The guest keeps `config` for restarts. Returns
  // nullptr + *error when memory is exhausted, `config` is null, or its
  // graph does not build (unknown class, bad arguments, bad port).
  Vm* Create(VmKind kind, std::shared_ptr<const click::ConfigGraph> config,
             ReadyCallback on_ready, std::string* error);

  // Suspends a running VM; `done` fires after SuspendTime.
  bool Suspend(Vm::VmId id, std::function<void()> done = nullptr);
  // Resumes a suspended VM; `done` fires after ResumeTime.
  bool Resume(Vm::VmId id, std::function<void()> done = nullptr);
  // Destroys a VM immediately, releasing its memory. Any in-flight
  // boot/suspend/resume completion for it is cancelled (its `done` callback
  // still runs, but finds no guest to act on).
  bool Destroy(Vm::VmId id);

  // Crashes a guest: releases its memory, drops its graph state, notifies
  // crash observers. Valid from any RAM-holding state (booting, running,
  // suspending, resuming); a suspended-to-disk guest cannot crash. The guest
  // stays registered under its id in state kCrashed until Restart or
  // Destroy.
  bool Crash(Vm::VmId id);

  // Reboots a crashed guest in place: builds a new Click graph from the
  // configuration it was created with, re-acquires memory, and schedules
  // the boot.
  // `on_ready` fires when the guest is running again (egress handlers must
  // be re-attached by the caller — the graph is new). Returns false when the
  // guest is not crashed or memory is exhausted.
  bool Restart(Vm::VmId id, ReadyCallback on_ready, std::string* error);

  // --- Live migration -------------------------------------------------------
  // Detaches a suspended guest's frozen state for transfer to another
  // manager. Only legal from kSuspended: the suspend already quiesced the
  // graph and released the guest's RAM, so there is nothing left to race
  // with. The id is retired; any still-pending callback for it is a no-op.
  std::optional<VmSnapshot> ExportSuspended(Vm::VmId id);
  // Adopts a snapshot under a fresh id: the guest appears in kResuming
  // (RAM re-acquired up front) and reaches kRunning after ResumeTime,
  // exactly like a local resume. On failure returns nullptr + *error and
  // leaves *snapshot intact so the caller can re-import it elsewhere.
  // Egress handlers must be re-attached by the caller — the sink closures
  // in the graph still point into the source platform.
  Vm* ImportSnapshot(VmSnapshot* snapshot, ReadyCallback on_ready, std::string* error);

  void AddCrashObserver(CrashObserver observer) {
    crash_observers_.push_back(std::move(observer));
  }

  // Attach a fault injector: boot failures and scheduled crashes are drawn
  // from it. Pass nullptr to detach. The injector must outlive the manager.
  void SetFaultInjector(sim::FaultInjector* injector) { fault_ = injector; }
  sim::FaultInjector* fault_injector() const { return fault_; }

  // Enables data-plane profiling for every guest graph this manager owns —
  // current and future (Create, Restart, ImportSnapshot re-attach it, since
  // each of those hands the guest a new or transplanted graph). Each graph
  // gets its own GraphProfiler with walk prefix "vm:<id>", so folded chains
  // and sampled walks stay attributable per guest. `int_sample_n` != 0
  // additionally activates in-band telemetry on a deterministic 1-in-N of
  // walks (same seeded contract as trace sampling, independent stream).
  void EnableProfiling(uint32_t sample_n, uint64_t seed, uint32_t int_sample_n = 0);

  // Maps (guest, tenant slot) to the tenant key INT postcards are attributed
  // under. Slot >= 0 is a consolidated guest's "t<i>_" element prefix; -1
  // means the whole graph belongs to one tenant (dedicated guests). The
  // platform installs this so the resolver can consult VM ownership and the
  // consolidation merge order. Applies to future profiler attachments and
  // re-binds live ones. Consulted when a profiler is attached or refreshed,
  // never per packet.
  using IntTenantResolver = std::function<std::string(Vm::VmId, int)>;
  void SetIntTenantResolver(IntTenantResolver resolver);
  // Re-resolves the guest's INT tenant attribution (GraphProfiler::
  // RefreshIntTenants); the platform calls it whenever an input of the
  // resolver changes for `id`. No-op without a profiled graph.
  void RefreshIntTenants(Vm::VmId id);

  Vm* Find(Vm::VmId id);
  size_t vm_count() const { return vms_.size(); }
  size_t running_count() const;
  size_t crashed_count() const;
  // Ids of all guests currently in kCrashed, in ascending id order (so the
  // watchdog's sweep is deterministic regardless of hash-map iteration).
  std::vector<Vm::VmId> CrashedIds() const;
  // Ids of every registered guest, ascending — the deterministic iteration
  // order for per-guest metric export.
  std::vector<Vm::VmId> AllIds() const;
  // Guests holding RAM and toolstack attention (everything but suspended
  // and crashed).
  size_t non_suspended_count() const;
  uint64_t memory_used() const { return memory_used_; }
  uint64_t memory_total() const { return memory_total_; }
  uint64_t crash_count() const { return crash_count_; }
  // How many more VMs of `kind` fit in memory.
  uint64_t RemainingCapacity(VmKind kind) const {
    return (memory_total_ - memory_used_) / MemoryBytes(kind);
  }

 private:
  // Schedules the boot-completion event for a guest entering kBooting:
  // either the promotion to kRunning (+ crash timer arming + on_ready), or —
  // when the fault injector decides the boot fails — the transition to
  // kCrashed.
  void ScheduleBootCompletion(Vm* vm, ReadyCallback on_ready);
  // Arms the injector-driven crash timer for a guest that just became
  // running (no-op without an injector or with crashes disabled).
  void ArmCrashTimer(Vm* vm);
  void NotifyCrash(Vm* vm);
  // Attaches a profiler to the guest's (fresh) graph when profiling is on.
  void MaybeAttachProfiler(Vm* vm);

  sim::EventQueue* clock_;
  uint64_t memory_total_;
  uint64_t memory_used_ = 0;
  uint64_t crash_count_ = 0;
  Vm::VmId next_id_ = 1;
  std::unordered_map<Vm::VmId, std::unique_ptr<Vm>> vms_;
  std::vector<CrashObserver> crash_observers_;
  sim::FaultInjector* fault_ = nullptr;
  bool profile_enabled_ = false;
  uint32_t profile_sample_n_ = 0;
  uint32_t profile_int_sample_n_ = 0;
  uint64_t profile_seed_ = 0;
  IntTenantResolver int_tenant_resolver_;
};

}  // namespace innet::platform

#endif  // SRC_PLATFORM_VM_H_
