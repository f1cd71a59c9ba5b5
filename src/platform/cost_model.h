// VM lifecycle cost model, calibrated to the paper's Xen/ClickOS
// measurements (§5, §6):
//   - ClickOS VMs boot in ~30 ms, degrading as more VMs run (Figure 5:
//     first-packet RTT ~50 ms at low counts, ~100 ms near 100 VMs);
//   - stripped-down Linux VMs take ~700 ms;
//   - suspend costs 30->90 ms and resume 40->100 ms as the number of
//     existing VMs goes 0->200 (Figure 7);
//   - memory footprints: ~8 MB per ClickOS VM vs ~512 MB per Linux VM
//     (10,000 vs 200 guests on the 128 GB test box, §6).
#ifndef SRC_PLATFORM_COST_MODEL_H_
#define SRC_PLATFORM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "src/sim/event_queue.h"

namespace innet::platform {

enum class VmKind { kClickOs, kLinux };

inline constexpr double kClickOsBootBaseMs = 28.0;
inline constexpr double kClickOsBootSlopeMs = 0.6;  // per already-running VM
inline constexpr double kLinuxBootBaseMs = 700.0;
inline constexpr double kLinuxBootSlopeMs = 2.0;
inline constexpr double kSuspendBaseMs = 30.0;
inline constexpr double kSuspendSlopeMs = 0.3;  // per existing VM
inline constexpr double kResumeBaseMs = 40.0;
inline constexpr double kResumeSlopeMs = 0.3;
inline constexpr uint64_t kClickOsMemoryBytes = 8ull << 20;
inline constexpr uint64_t kLinuxMemoryBytes = 512ull << 20;
// VmManager::RemainingCapacity divides by a guest's footprint.
static_assert(kClickOsMemoryBytes != 0 && kLinuxMemoryBytes != 0,
              "every guest kind must occupy memory");

// Time for a `kind` guest to boot while `running_vms` others run.
inline sim::TimeNs BootTime(VmKind kind, size_t running_vms) {
  double ms = kind == VmKind::kClickOs
                  ? kClickOsBootBaseMs + kClickOsBootSlopeMs * static_cast<double>(running_vms)
                  : kLinuxBootBaseMs + kLinuxBootSlopeMs * static_cast<double>(running_vms);
  return sim::FromMillis(ms);
}
inline sim::TimeNs SuspendTime(size_t existing_vms) {
  return sim::FromMillis(kSuspendBaseMs + kSuspendSlopeMs * static_cast<double>(existing_vms));
}
inline sim::TimeNs ResumeTime(size_t existing_vms) {
  return sim::FromMillis(kResumeBaseMs + kResumeSlopeMs * static_cast<double>(existing_vms));
}
inline constexpr uint64_t MemoryBytes(VmKind kind) {
  return kind == VmKind::kClickOs ? kClickOsMemoryBytes : kLinuxMemoryBytes;
}

}  // namespace innet::platform

#endif  // SRC_PLATFORM_COST_MODEL_H_
