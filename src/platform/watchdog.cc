#include "src/platform/watchdog.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"

namespace innet::platform {
namespace {

// How often the sweep inspects guest health.
constexpr sim::TimeNs kSweepInterval = 25 * sim::kMillisecond;
// Restart backoff: the delay before attempt n is
//   min(kBackoffCap, kBackoffBase * kBackoffFactor^n),  n = 0, 1, ...
constexpr sim::TimeNs kBackoffBase = 10 * sim::kMillisecond;
constexpr double kBackoffFactor = 2.0;
constexpr sim::TimeNs kBackoffCap = 2 * sim::kSecond;
// Failed restart attempts tolerated before the guest is retired (rules
// removed, buffered packets dropped).
constexpr int kMaxRetries = 6;

}  // namespace

Watchdog::Watchdog(sim::EventQueue* clock, InNetPlatform* platform)
    : clock_(clock), platform_(platform) {
  // Per-instance labels keep stats() per-watchdog even though the registry is
  // process-wide (tests build many platforms in one process).
  static uint64_t next_instance = 0;
  instance_ = std::to_string(next_instance++);
  obs::Labels labels = {{"instance", instance_}};
  auto& registry = obs::Registry();
  ctr_crashes_observed_ = registry.GetCounter("innet_watchdog_crashes_observed_total", labels);
  ctr_restarts_ = registry.GetCounter("innet_watchdog_restarts_total", labels);
  ctr_restart_failures_ = registry.GetCounter("innet_watchdog_restart_failures_total", labels);
  ctr_gave_up_ = registry.GetCounter("innet_watchdog_gave_up_total", labels);
}

void Watchdog::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  clock_->ScheduleAfter(kSweepInterval, [this] { Sweep(); });
}

sim::TimeNs Watchdog::BackoffDelay(int attempt) {
  double delay = static_cast<double>(kBackoffBase) * std::pow(kBackoffFactor, attempt);
  double cap = static_cast<double>(kBackoffCap);
  return static_cast<sim::TimeNs>(delay < cap ? delay : cap);
}

WatchdogStats Watchdog::stats() const {
  WatchdogStats out;
  out.crashes_observed = ctr_crashes_observed_->value();
  out.restarts = ctr_restarts_->value();
  out.restart_failures = ctr_restart_failures_->value();
  out.gave_up = ctr_gave_up_->value();
  out.packets_dropped_bounded = platform_->buffer_drops();
  return out;
}

void Watchdog::OnRestartComplete(Vm::VmId id) {
  ctr_restarts_->Increment();
  if (obs::Tracer().enabled()) {
    // Parent to the guest's restart span so the recovery reads as one tree.
    Vm* vm = platform_->vms().Find(id);
    obs::Tracer().Record(clock_->now(), obs::EventKind::kWatchdogRestart,
                         "vm:" + std::to_string(id), "", 0,
                         vm != nullptr ? vm->trace_span() : 0);
  }
  pending_.erase(id);
}

void Watchdog::Sweep() {
  // Capture every live graph's element counters first, so a postmortem taken
  // later this sweep (or any time after a graph is torn down) can fall back
  // to counters at most one sweep interval stale.
  platform_->SnapshotElementCounters();
  // Recover the least-healthy tenants' guests first: crashed ids come back
  // ascending, then a stable sort moves higher health severity (violated >
  // degraded > ok/unattributed) to the front — deterministic either way.
  std::vector<Vm::VmId> crashed = platform_->vms().CrashedIds();
  if (obs::Health().enabled()) {
    std::stable_sort(crashed.begin(), crashed.end(), [this](Vm::VmId a, Vm::VmId b) {
      return obs::Health().Severity(platform_->OwnerOf(a)) >
             obs::Health().Severity(platform_->OwnerOf(b));
    });
  }
  for (Vm::VmId id : crashed) {
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      // Fresh crash episode: schedule the first restart one backoff away.
      ctr_crashes_observed_->Increment();
      Pending entry;
      entry.next_try = clock_->now() + BackoffDelay(0);
      pending_.emplace(id, entry);
      continue;
    }
    Pending& pending = it->second;
    if (pending.in_flight) {
      // The restart we launched ended crashed again (boot failure).
      pending.in_flight = false;
      ++pending.attempt;
      ctr_restart_failures_->Increment();
      pending.next_try = clock_->now() + BackoffDelay(pending.attempt);
    }
    if (pending.attempt > kMaxRetries) {
      ctr_gave_up_->Increment();
      if (obs::Tracer().enabled()) {
        obs::Tracer().Record(clock_->now(), obs::EventKind::kWatchdogGiveUp, "vm:" + std::to_string(id));
      }
      platform_->TakePostmortem(obs::EventKind::kWatchdogGiveUp, id,
                                "retries exhausted after " + std::to_string(pending.attempt - 1) +
                                    " restarts");
      platform_->RetireCrashedVm(id);
      pending_.erase(it);
      continue;
    }
    if (clock_->now() < pending.next_try) {
      continue;
    }
    std::string error;
    if (platform_->RestartCrashedVm(id, &error)) {
      pending.in_flight = true;
    } else {
      // Immediate failure (memory exhausted): count it and back off.
      ++pending.attempt;
      ctr_restart_failures_->Increment();
      if (pending.attempt > kMaxRetries) {
        ctr_gave_up_->Increment();
        if (obs::Tracer().enabled()) {
          obs::Tracer().Record(clock_->now(), obs::EventKind::kWatchdogGiveUp, "vm:" + std::to_string(id));
        }
        platform_->TakePostmortem(obs::EventKind::kWatchdogGiveUp, id, error);
        platform_->RetireCrashedVm(id);
        pending_.erase(it);
        continue;
      }
      pending.next_try = clock_->now() + BackoffDelay(pending.attempt);
    }
  }
  clock_->ScheduleAfter(kSweepInterval, [this] { Sweep(); });
}

}  // namespace innet::platform
