// InNetPlatform: the full processing platform (§5) — VM manager + software
// switch + switch controller. Supports static module installation and
// on-the-fly instantiation: when the first packet of a new flow arrives for
// an on-demand tenant, the controller boots a ClickOS VM, buffers the flow's
// packets, and reroutes once the guest is up (Figure 5's mechanism).
//
// Availability: every packet buffer (boot-pending flows, boot-pending
// addresses, stalled traffic for suspended/crashed guests) is bounded by
// `buffer_cap()` packets; overflow is dropped and counted. A watchdog
// (EnableWatchdog) restarts crashed guests with exponential backoff and
// re-installs their switch rules; a sim::FaultInjector (SetFaultInjector)
// supplies deterministic boot failures, crashes, and switch faults.
#ifndef SRC_PLATFORM_PLATFORM_H_
#define SRC_PLATFORM_PLATFORM_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/platform/consolidation.h"
#include "src/platform/sandbox.h"
#include "src/platform/software_switch.h"
#include "src/platform/vm.h"
#include "src/platform/watchdog.h"
#include "src/sim/fault_injector.h"

namespace innet::platform {

class InNetPlatform {
 public:
  using EgressHandler = std::function<void(Packet&)>;

  InNetPlatform(sim::EventQueue* clock, VmCostModel cost_model = {},
                uint64_t total_memory_bytes = 16ull << 30)
      : clock_(clock), vms_(clock, cost_model, total_memory_bytes), switch_(&vms_) {
    switch_.SetMissHandler([this](Packet& packet) { OnMiss(packet); });
    switch_.SetStalledHandler(
        [this](Packet& packet, Vm::VmId vm_id) { OnStalled(packet, vm_id); });
    // Hot-path counters resolved once; the registry guarantees the pointers
    // stay valid (ResetValues never destroys instruments).
    ctr_buffered_ = obs::Registry().GetCounter("innet_platform_buffered_packets_total");
    ctr_buffer_drops_ = obs::Registry().GetCounter("innet_platform_buffer_drops_total");
    ctr_abandoned_ = obs::Registry().GetCounter("innet_platform_abandoned_packets_total");
    ctr_flow_misses_ = obs::Registry().GetCounter("innet_platform_flow_misses_total");
    ctr_ondemand_boots_ = obs::Registry().GetCounter("innet_platform_ondemand_boots_total");
    ctr_idle_suspends_ = obs::Registry().GetCounter("innet_platform_idle_suspends_total");
    ctr_traffic_resumes_ = obs::Registry().GetCounter("innet_platform_resumes_on_traffic_total");
    // The flight recorder is always on: the switch leaves per-packet
    // breadcrumbs in it, and every guest crash snapshots a post-mortem
    // bundle while the dying graph's counters are still readable (the VM
    // manager notifies observers before it drops the graph).
    switch_.SetFlightRecorder(&flight_);
    vms_.AddCrashObserver(
        [this](Vm* vm) { TakePostmortem(obs::EventKind::kVmCrash, vm->id(), ""); });
  }

  // --- Static installation ------------------------------------------------------
  // Boots a VM for `config_text` and routes dst==addr traffic to it once up.
  // With `sandbox` set, the configuration is wrapped with a ChangeEnforcer
  // first (in-config sandboxing; the tenant pays for it).
  // Returns the VM id, or 0 + *error.
  Vm::VmId Install(Ipv4Address addr, const std::string& config_text, std::string* error,
                   VmKind kind = VmKind::kClickOs, bool sandbox = false,
                   const std::vector<Ipv4Address>& sandbox_whitelist = {});

  // Removes a module and its switch rules, plus any buffered traffic and
  // on-demand bookkeeping for the address — a later reinstall at the same
  // address starts clean (no stale-packet replay).
  bool Uninstall(Ipv4Address addr);

  // Consolidation (§5): boots one ClickOS VM running the merged
  // configuration of all `tenants` and routes each tenant address to it.
  // Returns the VM id, or 0 + *error.
  Vm::VmId InstallConsolidated(const std::vector<TenantConfig>& tenants, std::string* error);

  // Tears down a VM, every switch rule pointing at it, its stalled buffers,
  // and any on-demand bookkeeping referencing it (used to replace a
  // consolidated VM when its tenant set changes).
  bool UninstallVm(Vm::VmId vm_id);

  // --- On-the-fly instantiation ----------------------------------------------------
  // Registers a tenant whose processing boots when traffic first arrives.
  // With per_flow set, every new 5-tuple gets its own VM (the Figure 5/6
  // experiment); otherwise one VM serves the address once booted.
  void RegisterOnDemand(Ipv4Address addr, const std::string& config_text,
                        VmKind kind = VmKind::kClickOs, bool per_flow = true);

  // --- Idle management (§5 suspend/resume) ---------------------------------------
  // Periodically suspends running guests that saw no traffic for
  // `idle_timeout`; arriving traffic resumes them transparently, with
  // packets buffered across the ~100 ms resume. This is what lets stateful
  // per-client processing scale past the concurrent-VM limit without
  // breaking flows.
  void EnableIdleSuspend(sim::TimeNs idle_timeout);

  size_t suspended_count() const;
  uint64_t idle_suspends() const { return idle_suspends_; }
  uint64_t resumes_on_traffic() const { return resumes_on_traffic_; }

  // --- Live migration (scheduler-driven) -----------------------------------------
  // Marks a guest as migrating out: traffic arriving while it is suspended
  // parks in its bounded stalled buffer instead of resuming it, and the idle
  // sweeper leaves it alone. Call before suspending the guest.
  void PrepareMigrationOut(Vm::VmId vm_id) { migrating_out_.insert(vm_id); }
  // Aborts an announced migration: clears the mark and, if parked traffic
  // accumulated against a suspended guest meanwhile, resumes it to drain
  // the buffer (the normal resume-on-traffic path).
  void CancelMigrationOut(Vm::VmId vm_id);
  struct MigratedVm {
    VmSnapshot snapshot;
    std::deque<Packet> parked;  // traffic that arrived during the blackout
  };
  // Removes a suspended guest from this platform and returns its frozen
  // state plus the parked traffic — which is NOT counted abandoned: the
  // caller re-addresses and replays it on the target after cutover. Switch
  // rules and all bookkeeping for the guest are torn down.
  std::optional<MigratedVm> DetachForMigration(Vm::VmId vm_id);
  // Adopts a migrated guest at `addr`: the switch rule lands immediately
  // (new traffic parks in the stalled buffer across the resume), egress is
  // re-bound to this platform, and the buffer flushes once the guest is up.
  // Returns the new VM id, or 0 + *error with *snapshot left intact so the
  // caller can re-import it on the source.
  Vm::VmId InstallMigrated(Ipv4Address addr, VmSnapshot* snapshot, std::string* error);

  // --- Failure handling ----------------------------------------------------------
  // Attaches the deterministic fault injector to the VM manager (boot
  // failures, crash timers, suspend/resume stretch) and the switch (packet
  // drop/corruption). The injector must outlive the platform.
  void SetFaultInjector(sim::FaultInjector* injector) {
    vms_.SetFaultInjector(injector);
    switch_.SetFaultInjector(injector);
  }

  // Arms the crash watchdog (periodic health sweep + backoff restart).
  Watchdog* EnableWatchdog(WatchdogConfig config = {}) {
    if (watchdog_ == nullptr) {
      watchdog_ = std::make_unique<Watchdog>(clock_, this, config);
    }
    watchdog_->Start();
    return watchdog_.get();
  }
  Watchdog* watchdog() { return watchdog_.get(); }

  // Restarts a crashed guest in place: same id, rules re-installed, stalled
  // traffic flushed once it is running again. Used by the watchdog; exposed
  // for tests and manual recovery.
  bool RestartCrashedVm(Vm::VmId vm_id, std::string* error);

  // Gives up on a crashed guest: removes its rules and bookkeeping and drops
  // (counting) whatever traffic was waiting for it.
  void RetireCrashedVm(Vm::VmId vm_id) { UninstallVm(vm_id); }

  // Every platform packet buffer holds at most this many packets; overflow
  // is dropped and counted in buffer_drops(). Default 256 packets/flow.
  void set_buffer_cap(size_t cap) { buffer_cap_ = cap; }
  size_t buffer_cap() const { return buffer_cap_; }
  // Packets dropped because a bounded buffer was full.
  uint64_t buffer_drops() const { return buffer_drops_; }
  // Packets dropped because their guest was retired/uninstalled while they
  // waited in a buffer.
  uint64_t abandoned_packets() const { return abandoned_packets_; }

  // --- Data path ---------------------------------------------------------------------
  // Entry point: a packet arriving at the platform NIC.
  void HandlePacket(Packet& packet);
  // All packets leaving tenant modules end up here.
  void SetEgressHandler(EgressHandler handler) { egress_ = std::move(handler); }

  VmManager& vms() { return vms_; }
  SoftwareSwitch& software_switch() { return switch_; }

  // Tags a guest with the tenant it serves (see Vm::owner()); lifecycle
  // events and buffer accounting for it then feed the per-tenant health
  // monitor. No-op for unknown ids.
  void SetVmOwner(Vm::VmId vm_id, std::string owner) {
    Vm* vm = vms_.Find(vm_id);
    if (vm != nullptr) {
      vm->set_owner(std::move(owner));
      vms_.RefreshIntTenants(vm_id);
    }
  }
  // The dedicated or shared guest currently routed for `addr` (0 when none).
  // This is what control-plane health probes and post-crash reconciliation
  // compare the controller's belief against.
  Vm::VmId InstalledVmFor(Ipv4Address addr) const {
    auto it = installed_.find(addr.value());
    return it == installed_.end() ? 0 : it->second;
  }

  // The owning tenant of a guest ("" when unknown or unattributed).
  const std::string& OwnerOf(Vm::VmId vm_id) {
    static const std::string kNone;
    Vm* vm = vms_.Find(vm_id);
    return vm != nullptr ? vm->owner() : kNone;
  }

  uint64_t buffered_count() const { return buffered_; }
  uint64_t ondemand_boots() const { return ondemand_boots_; }

  // Packets currently parked in boot-pending and stalled buffers.
  size_t buffer_occupancy() const;

  // Snapshots the platform's state gauges (buffer occupancy, guest counts,
  // memory, switch counters) into `registry`, plus every live guest graph's
  // per-element counters labeled {vm, tenant, element, class} — consolidated
  // guests attribute each t<i>_-prefixed element back to its own tenant.
  // Called by dump paths (tools/innet_run) right before writing the registry
  // out; the counters above are live and need no snapshot.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  // --- Data-plane telemetry ------------------------------------------------------
  // Turns on per-graph profiling for every guest (see VmManager::
  // EnableProfiling): folded-stack attribution always, 1-in-`sample_n`
  // deterministic packet-walk traces when the tracer is enabled. A non-zero
  // `int_sample_n` additionally tags 1-in-N walks with in-band telemetry;
  // their postcards are attributed to tenants through this platform's
  // ownership and consolidation maps (dedicated guests by VM owner,
  // consolidated guests by the t<i>_ prefix's merge-order address).
  void EnableDataplaneProfiling(uint32_t sample_n, uint64_t seed, uint32_t int_sample_n = 0) {
    if (int_sample_n != 0) {
      vms_.SetIntTenantResolver([this](Vm::VmId vm_id, int slot) -> std::string {
        auto consolidated = consolidated_tenants_.find(vm_id);
        if (slot >= 0) {
          if (consolidated != consolidated_tenants_.end() &&
              static_cast<size_t>(slot) < consolidated->second.size()) {
            return consolidated->second[static_cast<size_t>(slot)];
          }
          return "";
        }
        // Shared guest but no tenant-prefixed element on the walk: leave the
        // postcard unattributed rather than guessing a tenant.
        if (consolidated != consolidated_tenants_.end()) {
          return "";
        }
        return OwnerOf(vm_id);
      });
    }
    vms_.EnableProfiling(sample_n, seed, int_sample_n);
  }
  // Appends every profiled guest graph's folded chains ("vm:<id>;a;b;c ns")
  // to `out`, in ascending vm-id order.
  void WriteFoldedStacks(std::ostream& out) const;

  // The always-on ring of recent dataplane/lifecycle events and the
  // post-mortem bundles captured from it.
  obs::FlightRecorder& flight_recorder() { return flight_; }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }

  // Snapshots a post-mortem bundle for `vm_id` into the flight recorder:
  // ring contents, per-element counter deltas (from the live graph, or the
  // guest's previous snapshot when the graph is already gone), owning span,
  // and the tenant's health state. Called automatically on every crash;
  // watchdog give-up and migration aborts call it explicitly.
  void TakePostmortem(obs::EventKind trigger, Vm::VmId vm_id, const std::string& detail);

  // Captures every live graph's per-element counters into the flight
  // recorder's periodic store (FlightRecorder::NotePeriodicElements). The
  // watchdog calls this each sweep, so a postmortem taken after a guest's
  // graph is destroyed — even one that never snapshotted a bundle before —
  // can still report counters from the last sweep instead of nothing.
  void SnapshotElementCounters();

 private:
  struct OnDemandEntry {
    std::string config_text;
    VmKind kind = VmKind::kClickOs;
    bool per_flow = true;
    Vm::VmId shared_vm = 0;  // per_flow == false: the single VM once booted
  };
  struct PendingFlow {
    uint32_t addr = 0;  // tenant address the flow targets (for teardown)
    std::deque<Packet> buffer;
  };
  // Switch rules a guest owns, so the watchdog can re-install them after a
  // restart (idempotent re-adds; the id is stable across restarts).
  struct VmRules {
    std::vector<uint32_t> addrs;
    std::vector<uint64_t> flow_keys;
  };

  // Appends to a bounded buffer; drops + counts when the cap is reached.
  // `owner` (the tenant the buffer serves, when known) attributes the
  // enqueue/drop to the health monitor.
  bool BufferWithCap(std::deque<Packet>* buffer, Packet& packet, const std::string& owner = "");
  void ReinstallRules(Vm::VmId vm_id);
  void FlushPendingFor(Vm::VmId vm_id, Vm* vm);
  void OnMiss(Packet& packet);
  void OnStalled(Packet& packet, Vm::VmId vm_id);
  void FlushStalled(Vm::VmId vm_id);
  void IdleSweep();
  void AttachEgress(Vm* vm);

  sim::EventQueue* clock_;
  VmManager vms_;
  SoftwareSwitch switch_;
  obs::FlightRecorder flight_;
  EgressHandler egress_;
  std::unique_ptr<Watchdog> watchdog_;
  // Consolidated guests: tenant labels (addresses) in merge order, so the
  // t<i>_ element-name prefix maps element -> tenant at export time.
  std::unordered_map<Vm::VmId, std::vector<std::string>> consolidated_tenants_;
  std::unordered_map<uint32_t, OnDemandEntry> ondemand_;
  std::unordered_map<uint64_t, PendingFlow> pending_flows_;   // per-flow boots
  std::unordered_map<uint32_t, PendingFlow> pending_addrs_;   // shared-VM boots
  std::unordered_map<uint32_t, Vm::VmId> installed_;
  std::unordered_map<Vm::VmId, std::deque<Packet>> stalled_buffers_;
  std::unordered_map<Vm::VmId, VmRules> vm_rules_;
  // Guests announced for migration: stalled traffic parks instead of
  // resuming them, and the idle sweeper skips them.
  std::unordered_set<Vm::VmId> migrating_out_;
  sim::TimeNs idle_timeout_ = 0;  // 0 = idle suspend disabled
  bool idle_sweeper_armed_ = false;
  size_t buffer_cap_ = 256;
  uint64_t buffered_ = 0;
  uint64_t buffer_drops_ = 0;
  uint64_t abandoned_packets_ = 0;
  uint64_t ondemand_boots_ = 0;
  uint64_t idle_suspends_ = 0;
  uint64_t resumes_on_traffic_ = 0;
  // Registry mirrors of the accessor counters above (process-wide
  // aggregates across platform instances).
  obs::Counter* ctr_buffered_ = nullptr;
  obs::Counter* ctr_buffer_drops_ = nullptr;
  obs::Counter* ctr_abandoned_ = nullptr;
  obs::Counter* ctr_flow_misses_ = nullptr;
  obs::Counter* ctr_ondemand_boots_ = nullptr;
  obs::Counter* ctr_idle_suspends_ = nullptr;
  obs::Counter* ctr_traffic_resumes_ = nullptr;
};

}  // namespace innet::platform

#endif  // SRC_PLATFORM_PLATFORM_H_
