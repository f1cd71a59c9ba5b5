// Resource ledger: the scheduler's per-platform view of data-plane headroom
// (guest memory, VM counts, consolidated-tenant count, buffered-packet
// pressure). The ledger does not cache usage: it names the platforms the
// scheduler may place on and snapshots their live state through a prober
// callback at decision time. That keeps the one invariant that matters
// trivially true — a snapshot reflects every install/uninstall/suspend that
// completed before the probe — with no write-back bookkeeping to drift from
// the data plane.
#ifndef SRC_SCHEDULER_LEDGER_H_
#define SRC_SCHEDULER_LEDGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace innet::scheduler {

// One platform's resources as seen by the scheduler. `available` is false
// while the node is failed over; such platforms never receive placements but
// keep their ledger entry so restoring the node is O(1).
struct PlatformResources {
  std::string name;
  uint64_t memory_total = 0;
  uint64_t memory_used = 0;
  size_t vm_count = 0;              // guests registered, any state
  size_t running_vms = 0;
  size_t consolidated_tenants = 0;  // configs merged into the shared VM
  size_t buffer_occupancy = 0;      // packets parked in platform buffers
  bool available = true;

  uint64_t memory_free() const {
    return memory_used >= memory_total ? 0 : memory_total - memory_used;
  }
  double utilization() const {
    return memory_total == 0 ? 1.0
                             : static_cast<double>(memory_used) / static_cast<double>(memory_total);
  }
};

class ResourceLedger {
 public:
  // Fills *out with `name`'s current usage; returns false when the platform
  // is unknown to the data plane.
  using Prober = std::function<bool(const std::string& name, PlatformResources* out)>;

  explicit ResourceLedger(Prober prober) : prober_(std::move(prober)) {}

  void AddPlatform(const std::string& name);
  // Administrative override on top of the probe's own `available` bit (used
  // by tests and manual drains; failover flows through the probe).
  void SetAvailable(const std::string& name, bool available);

  // Live usage of every registered platform, sorted by name so every
  // consumer (policies, benches, metric dumps) iterates deterministically.
  std::vector<PlatformResources> Snapshot() const;

  // Refreshes the innet_scheduler_platform_headroom_bytes{platform=...} and
  // innet_scheduler_platform_utilization{platform=...} gauges from a fresh
  // snapshot (headroom 0 / utilization 1 for unavailable platforms).
  void ExportHeadroomGauges() const;

 private:
  struct Entry {
    std::string name;
    bool enabled = true;
  };
  Prober prober_;
  std::vector<Entry> entries_;  // kept sorted by name
};

}  // namespace innet::scheduler

#endif  // SRC_SCHEDULER_LEDGER_H_
