// Watchdog: the platform's periodic health sweep. It notices guests that
// crashed (boot failure or runtime fault), restarts them in place with
// exponential backoff, and retires guests that keep failing past the retry
// budget. While a guest is down, arriving traffic is held in the platform's
// bounded stalled buffers; the restart-complete path re-installs the guest's
// switch rules and flushes the buffer, so surviving flows continue with
// packet loss bounded by the buffer cap.
//
// The sweep runs every 25 ms; restart attempt n waits
// min(2 s, 10 ms * 2^n); a guest whose restart fails a seventh time is
// retired (rules removed, buffered packets dropped). All timing comes from
// the event queue and the fault stream from the platform's seeded injector —
// one seed reproduces the exact recovery timeline.
#ifndef SRC_PLATFORM_WATCHDOG_H_
#define SRC_PLATFORM_WATCHDOG_H_

#include <string>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/platform/vm.h"
#include "src/sim/event_queue.h"

namespace innet::platform {

class InNetPlatform;

struct WatchdogStats {
  uint64_t crashes_observed = 0;   // distinct crash episodes seen by the sweep
  uint64_t restarts = 0;           // restarts that reached running again
  uint64_t restart_failures = 0;   // attempts that failed (no memory / boot crashed)
  uint64_t gave_up = 0;            // guests retired after exhausting retries
  uint64_t packets_dropped_bounded = 0;  // bounded-buffer drops (platform-wide)
};

class Watchdog {
 public:
  Watchdog(sim::EventQueue* clock, InNetPlatform* platform);

  // Arms the periodic sweep. Idempotent.
  void Start();

  // Delay before restart attempt `attempt` (0-based). Exposed so tests can
  // assert the schedule directly.
  static sim::TimeNs BackoffDelay(int attempt);

  // Snapshot of the counters. The authoritative values live in the metrics
  // registry as innet_watchdog_*_total{instance="N"}; this is a thin wrapper
  // reading them back (packets_dropped_bounded comes from the platform's
  // bounded-buffer accounting).
  WatchdogStats stats() const;

  // The instance label value this watchdog's registry counters carry.
  const std::string& instance_label() const { return instance_; }

  // Called by the platform when a restart it launched reached running.
  void OnRestartComplete(Vm::VmId id);

 private:
  struct Pending {
    int attempt = 0;        // failed attempts so far
    bool in_flight = false; // a restart was launched and has not completed
    sim::TimeNs next_try = 0;
  };

  void Sweep();

  sim::EventQueue* clock_;
  InNetPlatform* platform_;
  bool running_ = false;
  std::unordered_map<Vm::VmId, Pending> pending_;
  std::string instance_;
  obs::Counter* ctr_crashes_observed_;
  obs::Counter* ctr_restarts_;
  obs::Counter* ctr_restart_failures_;
  obs::Counter* ctr_gave_up_;
};

}  // namespace innet::platform

#endif  // SRC_PLATFORM_WATCHDOG_H_
