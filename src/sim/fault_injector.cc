#include "src/sim/fault_injector.h"

namespace innet::sim {

bool FaultInjector::ShouldFailBoot() {
  if (plan_.boot_failure_p <= 0.0) {
    return false;
  }
  bool fail = rng_.Bernoulli(plan_.boot_failure_p);
  if (fail) {
    ++boot_failures_injected_;
  }
  return fail;
}

TimeNs FaultInjector::NextCrashDelay() {
  if (plan_.crash_mean_uptime_s <= 0.0) {
    return 0;
  }
  TimeNs delay = FromSeconds(rng_.Exponential(plan_.crash_mean_uptime_s));
  // A zero delay would crash the VM in the same event that made it running;
  // round up so the crash is always a distinct, later event.
  return delay == 0 ? 1 : delay;
}

bool FaultInjector::ShouldDropPacket() {
  if (plan_.packet_drop_p <= 0.0 || !rng_.Bernoulli(plan_.packet_drop_p)) {
    return false;
  }
  ++packets_dropped_;
  return true;
}

bool FaultInjector::ShouldDropControl() {
  return plan_.control_loss_p > 0.0 && rng_.Bernoulli(plan_.control_loss_p);
}

bool FaultInjector::ShouldDuplicateControl() {
  return plan_.control_dup_p > 0.0 && rng_.Bernoulli(plan_.control_dup_p);
}

bool FaultInjector::ShouldReorderControl() {
  return plan_.control_reorder_p > 0.0 && rng_.Bernoulli(plan_.control_reorder_p);
}

TimeNs FaultInjector::ControlDelay() {
  if (plan_.control_delay_mean_ms <= 0.0) {
    return 0;
  }
  return FromSeconds(rng_.Exponential(plan_.control_delay_mean_ms / 1e3));
}

TimeNs FaultInjector::ControlReorderPenalty() {
  // A full millisecond plus three extra delay draws: enough to land after
  // any message sent within the mean-delay window that follows.
  TimeNs penalty = kMillisecond;
  for (int i = 0; i < 3; ++i) {
    penalty += ControlDelay();
  }
  return penalty;
}

bool FaultInjector::ShouldDropRegion() {
  return plan_.region_loss_p > 0.0 && rng_.Bernoulli(plan_.region_loss_p);
}

bool FaultInjector::ShouldDuplicateRegion() {
  if (plan_.region_dup_p <= 0.0 || !rng_.Bernoulli(plan_.region_dup_p)) {
    return false;
  }
  ++region_duplicated_;
  return true;
}

bool FaultInjector::ShouldReorderRegion() {
  return plan_.region_reorder_p > 0.0 && rng_.Bernoulli(plan_.region_reorder_p);
}

TimeNs FaultInjector::RegionDelay() {
  if (plan_.region_delay_mean_ms <= 0.0) {
    return 0;
  }
  return FromSeconds(rng_.Exponential(plan_.region_delay_mean_ms / 1e3));
}

TimeNs FaultInjector::RegionReorderPenalty() {
  TimeNs penalty = kMillisecond;
  for (int i = 0; i < 3; ++i) {
    penalty += RegionDelay();
  }
  return penalty;
}

}  // namespace innet::sim
