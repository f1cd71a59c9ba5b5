// Deterministic fault injection for availability experiments. A FaultPlan
// describes *what* can go wrong (boot failures, VM crashes, switch-level
// packet drops, control and region channel faults); the FaultInjector
// turns the plan into a reproducible decision stream: every query draws from
// one seeded RNG, and because the event queue is deterministic, the same
// seed always yields the same fault timeline.
//
// The injector is a pure decision oracle — it never touches platform state
// itself. The VM manager and software switch consult it at the points where
// the corresponding real-world fault would strike.
#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"

namespace innet::sim {

struct FaultPlan {
  uint64_t seed = 1;
  // Probability that a VM boot (or restart) never comes up: the guest ends
  // in the crashed state instead of running.
  double boot_failure_p = 0.0;
  // Mean uptime (seconds) between crashes of a running VM, exponentially
  // distributed. 0 disables crash scheduling. A value of 1.0 models the
  // "crash rate 1/s" regime.
  double crash_mean_uptime_s = 0.0;
  // Per-packet switch fault: the switch drops the packet.
  double packet_drop_p = 0.0;
  // Control-plane channel faults (orchestrator <-> platform messages). Each
  // message leg (request or response) draws independently: it may be lost,
  // duplicated, held back past later sends (reordering), and is delayed by
  // an exponential propagation time. All zero = ideal channel (synchronous
  // in-process delivery, the pre-fault behavior).
  double control_loss_p = 0.0;
  double control_dup_p = 0.0;
  double control_reorder_p = 0.0;
  double control_delay_mean_ms = 0.0;
  // Region-scoped channel faults (federation coordinator <-> region
  // controller links). A separate fault class from the intra-region control
  // plane: WAN links between PoPs are lossier and slower than the
  // orchestrator's link to its own racks, and experiments tune them
  // independently.
  double region_loss_p = 0.0;
  double region_dup_p = 0.0;
  double region_reorder_p = 0.0;
  double region_delay_mean_ms = 0.0;

  bool HasControlFaults() const {
    return control_loss_p > 0.0 || control_dup_p > 0.0 || control_reorder_p > 0.0 ||
           control_delay_mean_ms > 0.0;
  }
  bool HasRegionFaults() const {
    return region_loss_p > 0.0 || region_dup_p > 0.0 || region_reorder_p > 0.0 ||
           region_delay_mean_ms > 0.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan), rng_(plan.seed) {}

  const FaultPlan& plan() const { return plan_; }

  // Decides whether the boot now being scheduled will fail.
  bool ShouldFailBoot();

  // Delay until the next crash of a VM that just became running, or 0 when
  // crash injection is disabled.
  TimeNs NextCrashDelay();

  bool ShouldDropPacket();

  // --- Control-plane channel faults -----------------------------------------
  bool HasControlFaults() const { return plan_.HasControlFaults(); }
  // Whether the control message (or response) leg now in flight vanishes.
  bool ShouldDropControl();
  // Whether the message is delivered twice.
  bool ShouldDuplicateControl();
  // Whether the message is held back past later sends.
  bool ShouldReorderControl();
  // Exponential propagation delay for one message leg (0 when the plan has
  // no mean delay; the channel rounds up so delivery is a distinct event).
  TimeNs ControlDelay();
  // Extra hold-back applied to a reordered message: several delay draws plus
  // a fixed floor, so it demonstrably lands after messages sent later.
  TimeNs ControlReorderPenalty();

  // --- Region (inter-PoP) channel faults ------------------------------------
  // Same contract as the control-plane methods, driven by the region_* plan
  // fields.
  bool HasRegionFaults() const { return plan_.HasRegionFaults(); }
  bool ShouldDropRegion();
  bool ShouldDuplicateRegion();
  bool ShouldReorderRegion();
  TimeNs RegionDelay();
  TimeNs RegionReorderPenalty();

  uint64_t boot_failures_injected() const { return boot_failures_injected_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t region_duplicated() const { return region_duplicated_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  uint64_t boot_failures_injected_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t region_duplicated_ = 0;
};

}  // namespace innet::sim

#endif  // SRC_SIM_FAULT_INJECTOR_H_
