// Watchdog + fault-injection coverage: crash detection, backoff-restart,
// bounded buffering across the outage, give-up/retire, and determinism of
// the whole recovery timeline from the injector seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/platform/watchdog.h"
#include "src/sim/fault_injector.h"

namespace innet {
namespace {

using platform::InNetPlatform;
using platform::Vm;
using platform::VmKind;
using platform::VmState;
using platform::Watchdog;

constexpr const char* kEchoConfig = "FromNetfront() -> ToNetfront();";

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         32);
}

TEST(Watchdog, RestartsCrashedVmAndFlushesBufferedTraffic) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  platform.EnableWatchdog();
  std::string error;
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  Vm::VmId id = platform.Install(addr, kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_EQ(platform.vms().Find(id)->state(), VmState::kRunning);

  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  ASSERT_TRUE(platform.vms().Crash(id));
  EXPECT_EQ(platform.vms().memory_used(), 0u);  // crash released the guest's RAM

  // Traffic during the outage is buffered, not lost.
  for (uint16_t i = 0; i < 3; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(7000 + i), 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(egressed, 0);

  clock.RunUntil(sim::FromSeconds(3));
  Vm* vm = platform.vms().Find(id);
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->state(), VmState::kRunning);  // same id, restarted in place
  EXPECT_EQ(vm->restart_count(), 1u);
  EXPECT_EQ(egressed, 3);  // buffered packets flushed through the new graph

  auto stats = platform.watchdog()->stats();
  EXPECT_EQ(stats.crashes_observed, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.restart_failures, 0u);
  EXPECT_EQ(stats.gave_up, 0u);

  // stats() is a thin wrapper over the registry: the per-instance counters
  // hold the authoritative values.
  obs::Labels instance = {{"instance", platform.watchdog()->instance_label()}};
  EXPECT_EQ(obs::Registry().GetCounter("innet_watchdog_restarts_total", instance)->value(), 1u);
  EXPECT_EQ(
      obs::Registry().GetCounter("innet_watchdog_crashes_observed_total", instance)->value(),
      1u);

  // The restarted guest keeps processing fresh traffic.
  Packet fresh = Udp("9.9.9.9", "172.16.3.10", 7100, 80);
  platform.HandlePacket(fresh);
  EXPECT_EQ(egressed, 4);
}

// Lifecycle edges the migration path leans on, pinned here so a change in
// their semantics shows up as an explicit test failure, not a scheduler bug.
TEST(Watchdog, ResumeOnCrashedVmIsRefused) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"), kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_TRUE(platform.vms().Crash(id));
  // A crashed guest lost its graph; only Restart (full reboot) revives it.
  EXPECT_FALSE(platform.vms().Resume(id));
  EXPECT_EQ(platform.vms().Find(id)->state(), VmState::kCrashed);
}

TEST(Watchdog, SuspendDuringBootIsRefused) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"), kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  // Still booting: there is no quiesced state to save yet.
  ASSERT_EQ(platform.vms().Find(id)->state(), VmState::kBooting);
  EXPECT_FALSE(platform.vms().Suspend(id));
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_EQ(platform.vms().Find(id)->state(), VmState::kRunning);
  EXPECT_TRUE(platform.vms().Suspend(id));
}

TEST(Watchdog, SuspendedGuestIsInvisibleToTheWatchdog) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  platform.EnableWatchdog();
  std::string error;
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  Vm::VmId id = platform.Install(addr, kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_TRUE(platform.vms().Suspend(id));
  clock.RunUntil(sim::FromSeconds(2));
  ASSERT_EQ(platform.vms().Find(id)->state(), VmState::kSuspended);

  // A suspended-to-disk guest holds no RAM: it cannot crash, and many sweep
  // periods later the watchdog has still not touched it.
  EXPECT_FALSE(platform.vms().Crash(id));
  clock.RunUntil(sim::FromSeconds(30));
  EXPECT_EQ(platform.vms().Find(id)->state(), VmState::kSuspended);
  EXPECT_EQ(platform.watchdog()->stats().crashes_observed, 0u);
  EXPECT_EQ(platform.watchdog()->stats().restarts, 0u);

  // Traffic still resumes it transparently (the §5 path, unaffected by the
  // watchdog running alongside).
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  Packet p = Udp("9.9.9.9", "172.16.3.10", 7000, 80);
  platform.HandlePacket(p);
  clock.RunUntil(sim::FromSeconds(31));
  EXPECT_EQ(platform.vms().Find(id)->state(), VmState::kRunning);
  EXPECT_EQ(egressed, 1);
  EXPECT_EQ(platform.resumes_on_traffic(), 1u);
}

TEST(Watchdog, BackoffScheduleIsExponentialAndCapped) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  Watchdog* watchdog = platform.EnableWatchdog();
  EXPECT_EQ(watchdog->BackoffDelay(0), sim::FromMillis(10));
  EXPECT_EQ(watchdog->BackoffDelay(1), sim::FromMillis(20));
  EXPECT_EQ(watchdog->BackoffDelay(2), sim::FromMillis(40));
  EXPECT_EQ(watchdog->BackoffDelay(7), sim::FromMillis(1280));
  EXPECT_EQ(watchdog->BackoffDelay(8), sim::FromSeconds(2));   // capped
  EXPECT_EQ(watchdog->BackoffDelay(30), sim::FromSeconds(2));  // stays capped
}

TEST(Watchdog, GivesUpAfterMaxRetriesAndRetiresGuest) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  platform.EnableWatchdog();
  std::string error;
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  Vm::VmId id = platform.Install(addr, kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));

  // From here on, every boot fails — the guest can never come back.
  sim::FaultPlan plan;
  plan.boot_failure_p = 1.0;
  sim::FaultInjector injector(plan);
  platform.SetFaultInjector(&injector);
  ASSERT_TRUE(platform.vms().Crash(id));

  clock.RunUntil(sim::FromSeconds(30));
  EXPECT_EQ(platform.vms().Find(id), nullptr);  // retired
  auto stats = platform.watchdog()->stats();
  EXPECT_EQ(stats.crashes_observed, 1u);
  EXPECT_EQ(stats.restarts, 0u);
  EXPECT_EQ(stats.restart_failures, 7u);  // 6 tolerated failures + the one that retires it
  EXPECT_EQ(stats.gave_up, 1u);

  // Rules are gone: traffic for the address no longer stalls, it misses.
  uint64_t missed_before = platform.software_switch().missed_count();
  Packet p = Udp("9.9.9.9", "172.16.3.10", 7000, 80);
  platform.HandlePacket(p);
  EXPECT_EQ(platform.software_switch().missed_count(), missed_before + 1);
}

TEST(Watchdog, BoundedBufferOverflowAccounting) {
  sim::EventQueue clock;
  // The registry aggregates across platform instances (tests share the
  // process), so assert on the delta.
  uint64_t drops_before =
      obs::Registry().GetCounter("innet_platform_buffer_drops_total")->value();
  InNetPlatform platform(&clock);
  platform.set_buffer_cap(4);
  platform.EnableWatchdog();
  std::string error;
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"), kEchoConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  ASSERT_TRUE(platform.vms().Crash(id));

  for (uint16_t i = 0; i < 10; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(7000 + i), 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(platform.buffer_drops(), 6u);  // cap 4, 10 arrivals
  EXPECT_EQ(platform.watchdog()->stats().packets_dropped_bounded, 6u);
  EXPECT_EQ(obs::Registry().GetCounter("innet_platform_buffer_drops_total")->value(),
            drops_before + 6u);

  clock.RunUntil(sim::FromSeconds(3));
  EXPECT_EQ(egressed, 4);  // exactly the buffered packets survive the outage
}

// One run of a faulty workload, summarized for comparison across runs.
struct RecoveryTrace {
  std::vector<std::pair<sim::TimeNs, Vm::VmId>> crash_events;
  uint64_t crashes_observed = 0;
  uint64_t restarts = 0;
  uint64_t restart_failures = 0;
  uint64_t gave_up = 0;
  uint64_t buffer_drops = 0;
  uint64_t egressed = 0;
  sim::TimeNs end_time = 0;

  bool operator==(const RecoveryTrace& other) const {
    return crash_events == other.crash_events && crashes_observed == other.crashes_observed &&
           restarts == other.restarts && restart_failures == other.restart_failures &&
           gave_up == other.gave_up && buffer_drops == other.buffer_drops &&
           egressed == other.egressed && end_time == other.end_time;
  }
};

RecoveryTrace RunFaultyWorkload(uint64_t seed) {
  RecoveryTrace trace;
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.boot_failure_p = 0.2;
  plan.crash_mean_uptime_s = 0.5;
  sim::FaultInjector injector(plan);
  InNetPlatform platform(&clock);
  platform.SetFaultInjector(&injector);
  platform.EnableWatchdog();
  platform.vms().AddCrashObserver(
      [&](Vm* vm) { trace.crash_events.emplace_back(clock.now(), vm->id()); });
  platform.SetEgressHandler([&](Packet&) { ++trace.egressed; });

  for (int tenant = 0; tenant < 5; ++tenant) {
    platform.RegisterOnDemand(Ipv4Address::MustParse("172.16.3." + std::to_string(10 + tenant)),
                              kEchoConfig, VmKind::kClickOs, /*per_flow=*/false);
  }
  // A steady packet drip to every tenant for 5 simulated seconds.
  for (int tick = 0; tick < 500; ++tick) {
    clock.ScheduleAt(sim::FromMillis(10.0 * tick), [&platform, tick] {
      std::string dst = "172.16.3." + std::to_string(10 + tick % 5);
      Packet p = Packet::MakeUdp(Ipv4Address::MustParse("9.9.9.9"),
                                 Ipv4Address::MustParse(dst), 7000, 80, 32);
      platform.HandlePacket(p);
    });
  }
  clock.RunUntil(sim::FromSeconds(8));

  auto stats = platform.watchdog()->stats();
  trace.crashes_observed = stats.crashes_observed;
  trace.restarts = stats.restarts;
  trace.restart_failures = stats.restart_failures;
  trace.gave_up = stats.gave_up;
  trace.buffer_drops = platform.buffer_drops();
  trace.end_time = clock.now();
  return trace;
}

TEST(Watchdog, RecoveryTimelineIsDeterministicFromSeed) {
  RecoveryTrace first = RunFaultyWorkload(42);
  RecoveryTrace second = RunFaultyWorkload(42);
  EXPECT_TRUE(first == second);
  // The workload really exercised the fault path.
  EXPECT_GT(first.crash_events.size(), 0u);
  EXPECT_GT(first.restarts, 0u);
  EXPECT_GT(first.egressed, 0u);
}

TEST(FaultInjector, SameSeedSameDecisionStream) {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.boot_failure_p = 0.3;
  plan.crash_mean_uptime_s = 1.0;
  plan.packet_drop_p = 0.1;
  sim::FaultInjector a(plan);
  sim::FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.ShouldFailBoot(), b.ShouldFailBoot());
    EXPECT_EQ(a.NextCrashDelay(), b.NextCrashDelay());
    EXPECT_EQ(a.ShouldDropPacket(), b.ShouldDropPacket());
  }
  EXPECT_EQ(a.boot_failures_injected(), b.boot_failures_injected());
}

TEST(FaultInjector, SwitchDropsAndCorruptsPackets) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.packet_drop_p = 0.5;
  sim::FaultInjector injector(plan);
  InNetPlatform platform(&clock);
  platform.SetFaultInjector(&injector);
  std::string error;
  ASSERT_NE(platform.Install(Ipv4Address::MustParse("172.16.3.10"), kEchoConfig, &error), 0u);
  clock.RunUntil(sim::FromSeconds(1));
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  for (uint16_t i = 0; i < 200; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(7000 + i), 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(platform.software_switch().fault_dropped_count(), injector.packets_dropped());
  EXPECT_GT(injector.packets_dropped(), 50u);
  EXPECT_LT(injector.packets_dropped(), 150u);
  EXPECT_EQ(static_cast<uint64_t>(egressed), 200 - injector.packets_dropped());
}

}  // namespace
}  // namespace innet
