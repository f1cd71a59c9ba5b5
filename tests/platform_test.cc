#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/platform/consolidation.h"
#include "src/platform/platform.h"
#include "src/platform/sandbox.h"
#include "src/platform/vm.h"

namespace innet::platform {

// The parsed configuration consolidated guest `vm_id` runs for the tenant at
// `addr`, or nullptr. Every guest built from the same (address, text) shares
// one; it is released with the last such guest.
struct ConsolidatedGuestPeer {
  static std::shared_ptr<const click::ConfigGraph> Config(const InNetPlatform& platform,
                                                          Vm::VmId vm_id, Ipv4Address addr) {
    const InNetPlatform::ConsolidatedTenant* tenant =
        platform.FindConsolidatedTenant(vm_id, addr);
    if (tenant == nullptr) {
      return nullptr;
    }
    return {tenant->parsed, &tenant->parsed->config};
  }
};

namespace {

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         32);
}

const char* kForwarderConfig =
    "FromNetfront() -> IPFilter(allow all) -> ToNetfront();";

// `text` parsed for VmManager::Create.
std::shared_ptr<const click::ConfigGraph> Parsed(const char* text) {
  std::string error;
  auto config = ParseGuestConfig(text, &error);
  EXPECT_NE(config, nullptr) << error;
  return config;
}

// --- Cost model ------------------------------------------------------------------

TEST(VmCostModel, ClickOsBootsOrdersOfMagnitudeFasterThanLinux) {
  EXPECT_LT(BootTime(VmKind::kClickOs, 0), sim::FromMillis(50));
  EXPECT_GE(BootTime(VmKind::kLinux, 0), sim::FromMillis(500));
}

TEST(VmCostModel, BootDegradesWithRunningVms) {
  EXPECT_GT(BootTime(VmKind::kClickOs, 100), BootTime(VmKind::kClickOs, 0));
  // Roughly 100 ms around 100 running VMs (Figure 5's right edge).
  double ms_at_100 = sim::ToMillis(BootTime(VmKind::kClickOs, 100));
  EXPECT_GT(ms_at_100, 60);
  EXPECT_LT(ms_at_100, 140);
}

TEST(VmCostModel, MemoryCapacityMatchesPaper) {
  // §6: 128 GB box -> 10,000 ClickOS guests vs ~200 stripped-down Linux VMs.
  uint64_t box = 128ull << 30;
  EXPECT_GE(box / MemoryBytes(VmKind::kClickOs), 10000u);
  EXPECT_LE(box / MemoryBytes(VmKind::kLinux), 256u);
}

// --- VmManager --------------------------------------------------------------------

TEST(VmManager, BootCompletesAfterBootTime) {
  sim::EventQueue clock;
  VmManager vms(&clock, 1ull << 30);
  std::string error;
  bool ready = false;
  Vm* vm = vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), [&](Vm*) { ready = true; }, &error);
  ASSERT_NE(vm, nullptr) << error;
  EXPECT_EQ(vm->state(), VmState::kBooting);
  clock.RunUntil(sim::FromMillis(10));
  EXPECT_FALSE(ready);
  clock.RunUntil(sim::FromMillis(40));
  EXPECT_TRUE(ready);
  EXPECT_EQ(vm->state(), VmState::kRunning);
}

TEST(VmManager, RejectsInvalidConfig) {
  sim::EventQueue clock;
  VmManager vms(&clock, 1ull << 30);
  std::string error;
  EXPECT_EQ(vms.Create(VmKind::kClickOs, Parsed("Bogus();"), nullptr, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(VmManager, MemoryExhaustion) {
  sim::EventQueue clock;
  VmManager vms(&clock, 3 * MemoryBytes(VmKind::kClickOs));
  std::string error;
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error), nullptr);
  }
  EXPECT_EQ(vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error), nullptr);
  EXPECT_NE(error.find("memory"), std::string::npos);
  EXPECT_EQ(vms.RemainingCapacity(VmKind::kClickOs), 0u);
}

TEST(VmManager, DestroyReleasesMemory) {
  sim::EventQueue clock;
  VmManager vms(&clock, 1 * MemoryBytes(VmKind::kClickOs));
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  EXPECT_TRUE(vms.Destroy(vm->id()));
  EXPECT_EQ(vms.memory_used(), 0u);
  EXPECT_NE(vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error), nullptr);
}

TEST(VmManager, SuspendResumeCycle) {
  sim::EventQueue clock;
  VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  clock.RunUntil(sim::FromMillis(100));
  ASSERT_EQ(vm->state(), VmState::kRunning);

  bool suspended = false;
  EXPECT_TRUE(vms.Suspend(vm->id(), [&] { suspended = true; }));
  EXPECT_EQ(vm->state(), VmState::kSuspending);
  EXPECT_FALSE(vms.Suspend(vm->id()));  // already suspending
  clock.RunUntil(sim::FromMillis(200));
  EXPECT_TRUE(suspended);
  EXPECT_EQ(vm->state(), VmState::kSuspended);

  bool resumed = false;
  EXPECT_TRUE(vms.Resume(vm->id(), [&] { resumed = true; }));
  clock.RunUntil(sim::FromMillis(350));
  EXPECT_TRUE(resumed);
  EXPECT_EQ(vm->state(), VmState::kRunning);
}

TEST(VmManager, SuspendedVmDropsTraffic) {
  sim::EventQueue clock;
  VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  clock.RunUntil(sim::FromMillis(100));
  vms.Suspend(vm->id());
  clock.RunUntil(sim::FromMillis(200));
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  vm->Inject(p);
  EXPECT_EQ(vm->injected_count(), 0u);
}

// --- Platform: on-the-fly instantiation --------------------------------------------

TEST(Platform, StaticInstallRoutesTraffic) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"), kForwarderConfig,
                                 &error);
  ASSERT_NE(id, 0u) << error;
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  clock.RunUntil(sim::FromMillis(100));  // let the VM boot
  Packet p = Udp("9.9.9.9", "172.16.3.10", 1, 2);
  platform.HandlePacket(p);
  EXPECT_EQ(egressed, 1);
  EXPECT_EQ(platform.software_switch().delivered_count(), 1u);
}

TEST(Platform, OnDemandBootsPerFlowAndBuffers) {
  sim::EventQueue clock;
  // Registry counters are process-wide aggregates: assert on deltas.
  uint64_t boots_before =
      obs::Registry().GetCounter("innet_platform_ondemand_boots_total")->value();
  uint64_t misses_before =
      obs::Registry().GetCounter("innet_platform_flow_misses_total")->value();
  uint64_t buffered_before =
      obs::Registry().GetCounter("innet_platform_buffered_packets_total")->value();
  InNetPlatform platform(&clock);
  platform.RegisterOnDemand(Ipv4Address::MustParse("172.16.3.10"), kForwarderConfig,
                            VmKind::kClickOs, /*per_flow=*/true);
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });

  // Three packets of one flow arrive before the VM is up: all buffered.
  for (int i = 0; i < 3; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", 5000, 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(platform.ondemand_boots(), 1u);
  EXPECT_EQ(platform.buffered_count(), 3u);
  EXPECT_EQ(egressed, 0);
  EXPECT_EQ(obs::Registry().GetCounter("innet_platform_ondemand_boots_total")->value(),
            boots_before + 1u);
  EXPECT_EQ(obs::Registry().GetCounter("innet_platform_flow_misses_total")->value(),
            misses_before + 3u);  // all three pre-boot packets missed
  EXPECT_EQ(obs::Registry().GetCounter("innet_platform_buffered_packets_total")->value(),
            buffered_before + 3u);

  clock.RunUntil(sim::FromMillis(100));
  EXPECT_EQ(egressed, 3);  // flushed on boot

  // Subsequent packets of the same flow flow through directly.
  Packet p = Udp("9.9.9.9", "172.16.3.10", 5000, 80);
  platform.HandlePacket(p);
  EXPECT_EQ(egressed, 4);
  EXPECT_EQ(platform.ondemand_boots(), 1u);
}

TEST(Platform, OnDemandDistinctFlowsGetDistinctVms) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  platform.RegisterOnDemand(Ipv4Address::MustParse("172.16.3.10"), kForwarderConfig);
  for (uint16_t flow = 0; flow < 5; ++flow) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(6000 + flow), 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(platform.ondemand_boots(), 5u);
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_EQ(platform.vms().vm_count(), 5u);
  EXPECT_EQ(platform.software_switch().flow_rule_count(), 5u);
}

TEST(Platform, SharedOnDemandVm) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  platform.RegisterOnDemand(Ipv4Address::MustParse("172.16.3.10"), kForwarderConfig,
                            VmKind::kClickOs, /*per_flow=*/false);
  for (uint16_t flow = 0; flow < 5; ++flow) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(6000 + flow), 80);
    platform.HandlePacket(p);
  }
  EXPECT_EQ(platform.ondemand_boots(), 1u);
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_EQ(platform.vms().vm_count(), 1u);
}

TEST(Platform, UnknownTrafficDropped) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  Packet p = Udp("9.9.9.9", "172.16.3.99", 1, 2);
  platform.HandlePacket(p);
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_EQ(platform.vms().vm_count(), 0u);
}

TEST(Platform, UninstallStopsDelivery) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  ASSERT_NE(platform.Install(addr, kForwarderConfig, &error), 0u);
  clock.RunUntil(sim::FromMillis(100));
  ASSERT_TRUE(platform.Uninstall(addr));
  EXPECT_FALSE(platform.Uninstall(addr));
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  Packet p = Udp("9.9.9.9", "172.16.3.10", 1, 2);
  platform.HandlePacket(p);
  EXPECT_EQ(egressed, 0);
}

// --- Consolidation -------------------------------------------------------------------

TEST(Consolidation, MergedConfigDemultiplexesByAddress) {
  std::vector<TenantConfig> tenants;
  for (int i = 0; i < 3; ++i) {
    TenantConfig t;
    t.addr = Ipv4Address(Ipv4Address::MustParse("172.16.3.10").value() +
                         static_cast<uint32_t>(i));
    t.config_text = "FromNetfront() -> Counter() -> ToNetfront();";
    tenants.push_back(t);
  }
  std::string error;
  auto merged = ConsolidateTenants(tenants, &error);
  ASSERT_TRUE(merged.has_value()) << error;

  auto graph = click::Graph::Build(*merged, &error);
  ASSERT_NE(graph, nullptr) << error;
  auto* out = graph->FindAs<click::ToNetfront>("out");
  ASSERT_NE(out, nullptr);

  Packet to_t1 = Udp("9.9.9.9", "172.16.3.11", 1, 2);
  Packet to_nobody = Udp("9.9.9.9", "172.16.3.99", 1, 2);
  graph->Inject("src", to_t1);
  graph->Inject("src", to_nobody);
  EXPECT_EQ(out->packet_count(), 1u);
  // Tenant 1's counter saw the packet; tenant 0's did not.
  EXPECT_EQ(graph->FindAs<click::Counter>("t1_Counter@1")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<click::Counter>("t0_Counter@1")->packet_count(), 0u);
}

TEST(Consolidation, RefusesStatefulTenants) {
  std::vector<TenantConfig> tenants(1);
  tenants[0].addr = Ipv4Address::MustParse("172.16.3.10");
  tenants[0].config_text = "FromNetfront() -> NatRewriter(PUBLIC 1.2.3.4) -> ToNetfront();";
  std::string error;
  EXPECT_FALSE(ConsolidateTenants(tenants, &error).has_value());
  EXPECT_NE(error.find("stateful"), std::string::npos);
}

TEST(Consolidation, RefusesConfigWithoutEndpoints) {
  std::vector<TenantConfig> tenants(1);
  tenants[0].addr = Ipv4Address::MustParse("172.16.3.10");
  tenants[0].config_text = "a :: Counter(); a -> Discard();";
  std::string error;
  EXPECT_FALSE(ConsolidateTenants(tenants, &error).has_value());
}

TEST(Consolidation, IsStatelessConfigClassification) {
  std::string error;
  auto stateless = click::ConfigGraph::Parse(
      "FromNetfront() -> IPFilter(allow all) -> ToNetfront();", &error);
  auto stateful = click::ConfigGraph::Parse(
      "FromNetfront() -> TimedUnqueue(1,1) -> ToNetfront();", &error);
  ASSERT_TRUE(stateless && stateful);
  EXPECT_TRUE(IsStatelessConfig(*stateless));
  EXPECT_FALSE(IsStatelessConfig(*stateful));
}

TEST(Consolidation, HashDemuxBehavesLikeLinear) {
  // Both demux kinds must route identically; only per-packet cost differs.
  std::vector<TenantConfig> tenants;
  for (int i = 0; i < 8; ++i) {
    TenantConfig t;
    t.addr = Ipv4Address(Ipv4Address::MustParse("172.16.3.10").value() +
                         static_cast<uint32_t>(i));
    t.config_text = "FromNetfront() -> Counter() -> ToNetfront();";
    tenants.push_back(t);
  }
  std::string error;
  for (DemuxKind kind : {DemuxKind::kLinearClassifier, DemuxKind::kHashDemux}) {
    auto merged = ConsolidateTenants(tenants, &error, kind);
    ASSERT_TRUE(merged.has_value()) << error;
    auto graph = click::Graph::Build(*merged, &error);
    ASSERT_NE(graph, nullptr) << error;
    Packet hit = Udp("9.9.9.9", "172.16.3.14", 1, 2);
    Packet miss = Udp("9.9.9.9", "172.16.3.99", 1, 2);
    graph->Inject("src", hit);
    graph->Inject("src", miss);
    EXPECT_EQ(dynamic_cast<click::ToNetfront*>(graph->Find("out"))->packet_count(), 1u);
    EXPECT_EQ(graph->FindAs<click::Counter>("t4_Counter@1")->packet_count(), 1u);
  }
}

TEST(Consolidation, ScalesToManyTenants) {
  std::vector<TenantConfig> tenants;
  for (int i = 0; i < 200; ++i) {
    TenantConfig t;
    t.addr = Ipv4Address(Ipv4Address::MustParse("172.16.0.0").value() +
                         static_cast<uint32_t>(i + 10));
    t.config_text = "FromNetfront() -> IPFilter(allow udp, allow tcp) -> ToNetfront();";
    tenants.push_back(t);
  }
  std::string error;
  auto merged = ConsolidateTenants(tenants, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  auto graph = click::Graph::Build(*merged, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("9.9.9.9", "172.16.0.110", 1, 2);  // tenant 100
  graph->Inject("src", p);
  EXPECT_EQ(dynamic_cast<click::ToNetfront*>(graph->Find("out"))->packet_count(), 1u);
}

// --- Sandboxing ----------------------------------------------------------------------

TEST(Sandbox, WrapWithEnforcerFiltersEgress) {
  std::string error;
  auto config = click::ConfigGraph::Parse(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> Counter() -> sink;", &error);
  ASSERT_TRUE(config.has_value());
  auto wrapped = WrapWithEnforcer(*config, {Ipv4Address::MustParse("7.7.7.7")}, 60, &error);
  ASSERT_TRUE(wrapped.has_value()) << error;

  auto graph = click::Graph::Build(*wrapped, &error);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = graph->FindAs<click::ToNetfront>("sink");

  Packet allowed = Udp("9.9.9.9", "7.7.7.7", 1, 2);
  Packet blocked = Udp("9.9.9.9", "8.8.8.8", 1, 2);
  graph->Inject("src", allowed);
  graph->Inject("src", blocked);
  // Ingress passes the enforcer's inbound side, so both packets reach the
  // counter; only the whitelisted egress survives the outbound side...
  // ...but in this linear config ingress IS egress, so the enforcer sees the
  // whitelisted one only.
  EXPECT_EQ(sink->packet_count(), 1u);
}

TEST(Sandbox, WrapRequiresEndpoints) {
  std::string error;
  auto config = click::ConfigGraph::Parse("a :: Counter(); a -> Discard();", &error);
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(WrapWithEnforcer(*config, {}, 60, &error).has_value());
}

TEST(Sandbox, InstallWithSandboxEnforcesWhitelist) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"), kForwarderConfig,
                                 &error, VmKind::kClickOs, /*sandbox=*/true,
                                 {Ipv4Address::MustParse("7.7.7.7")});
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromMillis(100));
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  Packet allowed = Udp("9.9.9.9", "172.16.3.10", 1, 2);
  platform.HandlePacket(allowed);
  // Note: the enforcer's outbound side sees dst 172.16.3.10 (the module
  // address is not whitelisted here and the packet is not a response), so it
  // is blocked — the sandbox fails closed.
  EXPECT_EQ(egressed, 0);
}

TEST(Sandbox, InstallRefusesAConfigThatNamesTheEnforcer) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  // The wrap adds its own `__sandbox__`; a second one would splice the
  // tenant's connections onto the enforcer.
  Vm::VmId id = platform.Install(Ipv4Address::MustParse("172.16.3.10"),
                                 "src :: FromNetfront(); __sandbox__ :: Tee(2); "
                                 "src -> __sandbox__; __sandbox__[1] -> x :: Counter(); "
                                 "x -> ToNetfront();",
                                 &error, VmKind::kClickOs, /*sandbox=*/true,
                                 {Ipv4Address::MustParse("7.7.7.7")});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(error, "duplicate element name '__sandbox__'");
}

// --- Consolidated guests keep their tenants' parses -------------------------------

TenantConfig Tenant(const char* addr, const char* text) {
  return TenantConfig{Ipv4Address::MustParse(addr), text};
}

std::vector<std::string> ElementNames(const click::Graph& graph) {
  std::vector<std::string> names;
  for (const auto& element : graph.elements()) {
    names.push_back(element->name());
  }
  return names;
}

const char* kCounterTenant = "FromNetfront() -> Counter() -> ToNetfront();";
const char* kFilterTenant = "FromNetfront() -> IPFilter(allow udp) -> ToNetfront();";

TEST(ConsolidatedGuest, UnchangedTenantsKeepTheirParseAcrossRebuilds) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Ipv4Address a = Ipv4Address::MustParse("172.16.3.10");
  Ipv4Address b = Ipv4Address::MustParse("172.16.3.11");
  Vm::VmId first = platform.InstallConsolidated(
      {Tenant("172.16.3.10", kCounterTenant), Tenant("172.16.3.11", kFilterTenant)}, &error);
  ASSERT_NE(first, 0u) << error;
  auto a_parse = ConsolidatedGuestPeer::Config(platform, first, a);
  auto b_parse = ConsolidatedGuestPeer::Config(platform, first, b);
  ASSERT_NE(a_parse, nullptr);
  ASSERT_NE(b_parse, nullptr);
  Ipv4Address c = Ipv4Address::MustParse("172.16.3.12");
  EXPECT_EQ(ConsolidatedGuestPeer::Config(platform, first, c), nullptr);

  // The rebuild that adds a tenant reuses the parses the running guest holds.
  Vm::VmId second = platform.InstallConsolidated(
      {Tenant("172.16.3.10", kCounterTenant), Tenant("172.16.3.11", kFilterTenant),
       Tenant("172.16.3.12", kCounterTenant)},
      &error);
  ASSERT_NE(second, 0u) << error;
  EXPECT_EQ(ConsolidatedGuestPeer::Config(platform, second, a), a_parse);
  EXPECT_EQ(ConsolidatedGuestPeer::Config(platform, second, b), b_parse);
  auto c_parse = ConsolidatedGuestPeer::Config(platform, second, c);
  ASSERT_NE(c_parse, nullptr);
  EXPECT_NE(c_parse, a_parse);  // same text, other address: parsed on its own
  EXPECT_TRUE(platform.UninstallVm(first));
  EXPECT_EQ(ConsolidatedGuestPeer::Config(platform, second, a), a_parse);
}

TEST(ConsolidatedGuest, RedeployedTenantWithNewTextIsParsedAgain) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Ipv4Address a = Ipv4Address::MustParse("172.16.3.10");
  Vm::VmId first = platform.InstallConsolidated(
      {Tenant("172.16.3.10", kCounterTenant), Tenant("172.16.3.11", kFilterTenant)}, &error);
  ASSERT_NE(first, 0u) << error;
  auto old_parse = ConsolidatedGuestPeer::Config(platform, first, a);

  Vm::VmId second = platform.InstallConsolidated(
      {Tenant("172.16.3.10", "FromNetfront() -> DecIPTTL() -> ToNetfront();"),
       Tenant("172.16.3.11", kFilterTenant)},
      &error);
  ASSERT_NE(second, 0u) << error;
  auto new_parse = ConsolidatedGuestPeer::Config(platform, second, a);
  ASSERT_NE(new_parse, nullptr);
  EXPECT_NE(new_parse, old_parse);
  ASSERT_NE(new_parse->FindElement("DecIPTTL@1"), nullptr);
  EXPECT_EQ(new_parse->FindElement("Counter@1"), nullptr);
  Vm* guest = platform.vms().Find(second);
  ASSERT_NE(guest, nullptr);
  EXPECT_NE(guest->graph()->Find("t0_DecIPTTL@1"), nullptr);
  EXPECT_EQ(guest->graph()->Find("t0_Counter@1"), nullptr);
}

TEST(ConsolidatedGuest, RetiredTenantParseIsReleasedWithItsGuest) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId both = platform.InstallConsolidated(
      {Tenant("172.16.3.10", kCounterTenant), Tenant("172.16.3.11", kFilterTenant)}, &error);
  ASSERT_NE(both, 0u) << error;
  std::weak_ptr<const click::ConfigGraph> kept =
      ConsolidatedGuestPeer::Config(platform, both, Ipv4Address::MustParse("172.16.3.10"));
  std::weak_ptr<const click::ConfigGraph> retired =
      ConsolidatedGuestPeer::Config(platform, both, Ipv4Address::MustParse("172.16.3.11"));

  // Retire the second tenant the way the orchestrator does: build the
  // smaller guest, then tear down the old one.
  Vm::VmId one = platform.InstallConsolidated({Tenant("172.16.3.10", kCounterTenant)}, &error);
  ASSERT_NE(one, 0u) << error;
  EXPECT_FALSE(retired.expired());  // the old guest still runs it
  EXPECT_TRUE(platform.UninstallVm(both));
  EXPECT_TRUE(retired.expired());
  EXPECT_FALSE(kept.expired());
  EXPECT_TRUE(platform.UninstallVm(one));
  EXPECT_TRUE(kept.expired());
}

TEST(ConsolidatedGuest, CrashedGuestRestartsWithTheSameElementNames) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Vm::VmId shared = platform.InstallConsolidated(
      {Tenant("172.16.3.10", kCounterTenant), Tenant("172.16.3.11", kFilterTenant)}, &error);
  ASSERT_NE(shared, 0u) << error;
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  clock.RunUntil(sim::FromMillis(100));
  Vm* guest = platform.vms().Find(shared);
  ASSERT_NE(guest, nullptr);
  std::vector<std::string> names = ElementNames(*guest->graph());

  ASSERT_TRUE(platform.vms().Crash(shared));
  EXPECT_EQ(guest->graph(), nullptr);
  ASSERT_TRUE(platform.RestartCrashedVm(shared, &error)) << error;
  clock.RunUntil(sim::FromMillis(200));
  ASSERT_EQ(guest->state(), VmState::kRunning);
  EXPECT_EQ(ElementNames(*guest->graph()), names);
  EXPECT_EQ(guest->restart_count(), 1u);
  Packet p = Udp("9.9.9.9", "172.16.3.11", 1, 2);
  platform.HandlePacket(p);
  EXPECT_EQ(egressed, 1);
}

TEST(VmManager, SnapshotExportImportRoundTripsAGuest) {
  sim::EventQueue clock;
  VmManager source(&clock, 1ull << 30);
  VmManager target(&clock, 1ull << 30);
  std::string error;
  Vm* vm = source.Create(VmKind::kClickOs, Parsed(kForwarderConfig), nullptr, &error);
  ASSERT_NE(vm, nullptr) << error;
  vm->set_owner("tenant");
  clock.RunUntil(sim::FromMillis(100));
  Packet p = Udp("9.9.9.9", "172.16.3.10", 1, 2);
  vm->Inject(p);
  std::vector<std::string> names = ElementNames(*vm->graph());
  ASSERT_TRUE(source.Suspend(vm->id()));
  clock.RunUntil(sim::FromMillis(300));

  auto snapshot = source.ExportSuspended(vm->id());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(source.vm_count(), 0u);
  ASSERT_NE(snapshot->config, nullptr);
  ASSERT_NE(snapshot->graph, nullptr);
  Vm* moved = target.ImportSnapshot(&*snapshot, nullptr, &error);
  ASSERT_NE(moved, nullptr) << error;
  clock.RunUntil(sim::FromMillis(500));
  ASSERT_EQ(moved->state(), VmState::kRunning);
  EXPECT_EQ(moved->owner(), "tenant");
  EXPECT_EQ(moved->injected_count(), 1u);
  EXPECT_EQ(ElementNames(*moved->graph()), names);
  EXPECT_EQ(moved->graph()->elements()[0]->packets(), 1u);  // element state moved too

  // The carried configuration is what a restart on the target builds from.
  ASSERT_TRUE(target.Crash(moved->id()));
  ASSERT_TRUE(target.Restart(moved->id(), nullptr, &error)) << error;
  ASSERT_NE(moved->graph(), nullptr);
  EXPECT_EQ(ElementNames(*moved->graph()), names);
  EXPECT_EQ(moved->graph()->elements()[0]->packets(), 0u);
}

TEST(Sandbox, SeparateVmRoundTrip) {
  SeparateVmSandbox sandbox({Ipv4Address::MustParse("7.7.7.7")});
  Packet inbound = Udp("8.8.8.8", "172.16.3.10", 1, 2);
  EXPECT_TRUE(sandbox.Filter(0, inbound));  // inbound always admitted (recorded)
  Packet reply = Udp("172.16.3.10", "8.8.8.8", 2, 1);
  EXPECT_TRUE(sandbox.Filter(1, reply));  // implicit authorization
  Packet stray = Udp("172.16.3.10", "6.6.6.6", 2, 1);
  EXPECT_FALSE(sandbox.Filter(1, stray));
  Packet whitelisted = Udp("172.16.3.10", "7.7.7.7", 2, 1);
  EXPECT_TRUE(sandbox.Filter(1, whitelisted));
  EXPECT_EQ(sandbox.processed_count(), 4u);
}

}  // namespace
}  // namespace innet::platform
