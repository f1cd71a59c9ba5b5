// Idle suspend/resume management (§5): the platform parks stateful guests
// that see no traffic and resumes them transparently when packets arrive,
// preserving per-flow state across the cycle.
#include <gtest/gtest.h>

#include "src/click/elements.h"
#include "src/platform/platform.h"

namespace innet::platform {
namespace {

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         32);
}

class IdleSuspend : public ::testing::Test {
 protected:
  IdleSuspend() : platform_(&clock_) {
    std::string error;
    addr_ = Ipv4Address::MustParse("172.16.3.10");
    vm_id_ = platform_.Install(addr_, "FromNetfront() -> FlowMeter() -> ToNetfront();",
                               &error);
    EXPECT_NE(vm_id_, 0u) << error;
    platform_.SetEgressHandler([this](Packet&) { ++egressed_; });
    clock_.RunUntil(sim::FromMillis(100));  // boot
    platform_.EnableIdleSuspend(sim::FromSeconds(10));
  }

  void Send(uint16_t dport = 80) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", 5000, dport);
    platform_.HandlePacket(p);
  }

  sim::EventQueue clock_;
  InNetPlatform platform_;
  Ipv4Address addr_;
  Vm::VmId vm_id_ = 0;
  int egressed_ = 0;
};

TEST_F(IdleSuspend, SuspendsAfterIdleTimeout) {
  Send();
  EXPECT_EQ(egressed_, 1);
  clock_.RunUntil(sim::FromSeconds(30));  // idle >> timeout
  EXPECT_EQ(platform_.suspended_count(), 1u);
  EXPECT_GE(platform_.idle_suspends(), 1u);
}

TEST_F(IdleSuspend, ActiveVmStaysRunning) {
  // Traffic every 2 s keeps the guest under the 10 s idle threshold.
  for (int i = 0; i < 20; ++i) {
    clock_.RunUntil(sim::FromSeconds(2 * (i + 1)));
    Send();
  }
  EXPECT_EQ(platform_.suspended_count(), 0u);
  EXPECT_EQ(platform_.idle_suspends(), 0u);
  EXPECT_EQ(egressed_, 20);
}

TEST_F(IdleSuspend, TrafficResumesSuspendedVm) {
  clock_.RunUntil(sim::FromSeconds(30));
  ASSERT_EQ(platform_.suspended_count(), 1u);

  Send();  // arrives at a suspended guest
  EXPECT_EQ(egressed_, 0);  // buffered while resuming (~100 ms)
  clock_.RunUntil(sim::FromSeconds(31));
  EXPECT_EQ(egressed_, 1);
  EXPECT_EQ(platform_.resumes_on_traffic(), 1u);
  EXPECT_EQ(platform_.suspended_count(), 0u);
}

TEST_F(IdleSuspend, BurstDuringResumeAllDelivered) {
  clock_.RunUntil(sim::FromSeconds(30));
  ASSERT_EQ(platform_.suspended_count(), 1u);
  for (int i = 0; i < 5; ++i) {
    Send(static_cast<uint16_t>(80 + i));
  }
  clock_.RunUntil(sim::FromSeconds(31));
  EXPECT_EQ(egressed_, 5);
  EXPECT_EQ(platform_.resumes_on_traffic(), 1u);  // one resume serves the burst
}

TEST_F(IdleSuspend, FlowStateSurvivesSuspendResume) {
  // Per-flow state (the FlowMeter's table) must persist across the cycle —
  // the whole point of suspend/resume over destroy/boot (§5).
  Send(80);
  Send(81);
  Vm* vm = platform_.vms().Find(vm_id_);
  auto* meter = vm->graph()->FindByClass("FlowMeter");
  ASSERT_NE(meter, nullptr);
  EXPECT_EQ(dynamic_cast<click::FlowMeter*>(meter)->flow_count(), 2u);

  clock_.RunUntil(sim::FromSeconds(30));  // suspend
  ASSERT_EQ(platform_.suspended_count(), 1u);
  Send(82);                               // resume + new flow
  clock_.RunUntil(sim::FromSeconds(31));
  EXPECT_EQ(dynamic_cast<click::FlowMeter*>(meter)->flow_count(), 3u);
}

TEST_F(IdleSuspend, SuspendedVmCyclesRepeatedly) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    clock_.RunUntil(clock_.now() + sim::FromSeconds(30));
    ASSERT_EQ(platform_.suspended_count(), 1u) << "cycle " << cycle;
    Send();
    clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
    EXPECT_EQ(platform_.suspended_count(), 0u) << "cycle " << cycle;
  }
  EXPECT_EQ(egressed_, 3);
  EXPECT_GE(platform_.idle_suspends(), 3u);
}

TEST(IdleSuspendMany, ParksAFleetOfIdleTenants) {
  // 50 installed tenants, only 5 active: the other 45 end up suspended — the
  // §5 scaling story for stateful processing.
  sim::EventQueue clock;
  InNetPlatform platform(&clock, 8ull << 30);
  std::string error;
  for (int i = 0; i < 50; ++i) {
    Ipv4Address addr(Ipv4Address::MustParse("172.16.3.10").value() +
                     static_cast<uint32_t>(i));
    ASSERT_NE(platform.Install(addr, "FromNetfront() -> FlowMeter() -> ToNetfront();",
                               &error),
              0u)
        << error;
  }
  clock.RunUntil(sim::FromSeconds(2));  // boots
  platform.EnableIdleSuspend(sim::FromSeconds(10));

  // Keep tenants 0..4 active for a minute.
  for (int t = 0; t < 60; t += 2) {
    clock.ScheduleAt(sim::FromSeconds(2 + t), [&platform] {
      for (int i = 0; i < 5; ++i) {
        Packet p = Packet::MakeUdp(
            Ipv4Address::MustParse("9.9.9.9"),
            Ipv4Address(Ipv4Address::MustParse("172.16.3.10").value() +
                        static_cast<uint32_t>(i)),
            5000, 80, 32);
        platform.HandlePacket(p);
      }
    });
  }
  clock.RunUntil(sim::FromSeconds(60));
  EXPECT_EQ(platform.suspended_count(), 45u);
}

}  // namespace
}  // namespace innet::platform
