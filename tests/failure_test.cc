// Failure injection: exhausted resources, mid-transition teardown, corrupted
// packets, controller pool exhaustion, and malformed inputs everywhere.
#include <gtest/gtest.h>

#include "src/click/elements.h"
#include "src/controller/controller.h"
#include "src/controller/orchestrator.h"
#include "src/platform/platform.h"
#include "src/sim/fault_injector.h"
#include "src/sim/rng.h"
#include "src/symexec/click_models.h"
#include "src/topology/network.h"
#include <algorithm>
#include <set>

namespace innet {
namespace {

using controller::ClientRequest;
using controller::Controller;
using controller::Deployment;
using controller::DeployOutcome;
using controller::RequesterClass;
using platform::InNetPlatform;
using platform::Vm;
using platform::VmKind;
using platform::VmState;

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         32);
}

// A guest config that forwards everything, parsed for VmManager::Create.
std::shared_ptr<const click::ConfigGraph> ForwardConfig() {
  std::string error;
  return platform::ParseGuestConfig("FromNetfront() -> ToNetfront();", &error);
}

// --- Platform resource exhaustion --------------------------------------------------

TEST(Failure, OnDemandBootFailsWhenMemoryExhausted) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock, 2 * platform::MemoryBytes(VmKind::kClickOs));
  platform.RegisterOnDemand(Ipv4Address::MustParse("172.16.3.10"),
                            "FromNetfront() -> ToNetfront();");
  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  // Four distinct flows; only two VMs fit.
  for (uint16_t flow = 0; flow < 4; ++flow) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(6000 + flow), 80);
    platform.HandlePacket(p);
  }
  clock.RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(platform.vms().vm_count(), 2u);
  EXPECT_EQ(egressed, 2);  // the overflow flows' packets are lost, not crashed
}

TEST(Failure, DestroyWhileBootingNeverRuns) {
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  bool became_ready = false;
  Vm* vm = platform.vms().Create(VmKind::kClickOs, ForwardConfig(),
                                 [&](Vm*) { became_ready = true; }, &error);
  ASSERT_NE(vm, nullptr);
  ASSERT_TRUE(platform.vms().Destroy(vm->id()));
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_FALSE(became_ready);  // the boot-completion callback found it gone
  EXPECT_EQ(platform.vms().memory_used(), 0u);
}

TEST(Failure, DestroyWhileSuspendingIsSafe) {
  sim::EventQueue clock;
  platform::VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, ForwardConfig(), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  clock.RunUntil(sim::FromMillis(100));
  bool suspend_done = false;
  ASSERT_TRUE(vms.Suspend(vm->id(), [&] { suspend_done = true; }));
  ASSERT_TRUE(vms.Destroy(vm->id()));
  clock.RunUntil(sim::FromSeconds(1));  // the stale suspend timer fires harmlessly
  EXPECT_TRUE(suspend_done);            // callback runs; the VM is simply gone
  EXPECT_EQ(vms.vm_count(), 0u);
}

TEST(Failure, DestroyWhileBootingCancelsOnReadyDespiteLaterBoots) {
  // Regression: the first guest's on_ready must stay cancelled even when a
  // second guest is booting in the same state at the same time — the
  // completion event must not attach to the wrong (or freed) guest.
  sim::EventQueue clock;
  platform::VmManager vms(&clock, 1ull << 30);
  std::string error;
  bool first_ready = false;
  bool second_ready = false;
  Vm* first = vms.Create(VmKind::kClickOs, ForwardConfig(),
                         [&](Vm*) { first_ready = true; }, &error);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(vms.Destroy(first->id()));
  Vm* second = vms.Create(VmKind::kClickOs, ForwardConfig(),
                          [&](Vm*) { second_ready = true; }, &error);
  ASSERT_NE(second, nullptr);
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_FALSE(first_ready);
  EXPECT_TRUE(second_ready);
  EXPECT_EQ(vms.memory_used(), platform::MemoryBytes(VmKind::kClickOs));
}

// --- Crashes ----------------------------------------------------------------------

TEST(Failure, CrashDuringBootReleasesMemoryAndSkipsOnReady) {
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.boot_failure_p = 1.0;  // every boot dies
  sim::FaultInjector injector(plan);
  platform::VmManager vms(&clock, 1ull << 30);
  vms.SetFaultInjector(&injector);
  std::string error;
  bool became_ready = false;
  Vm* vm = vms.Create(VmKind::kClickOs, ForwardConfig(),
                      [&](Vm*) { became_ready = true; }, &error);
  ASSERT_NE(vm, nullptr);
  clock.RunUntil(sim::FromSeconds(1));
  EXPECT_FALSE(became_ready);
  EXPECT_EQ(vm->state(), VmState::kCrashed);
  EXPECT_EQ(vms.memory_used(), 0u);
  EXPECT_EQ(vms.crash_count(), 1u);
  EXPECT_EQ(injector.boot_failures_injected(), 1u);
}

TEST(Failure, CrashDuringResumeDoesNotRevive) {
  sim::EventQueue clock;
  platform::VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, ForwardConfig(), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  Vm::VmId id = vm->id();
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_TRUE(vms.Suspend(id));
  clock.RunUntil(sim::FromSeconds(2));
  ASSERT_EQ(vm->state(), VmState::kSuspended);

  bool resume_done = false;
  ASSERT_TRUE(vms.Resume(id, [&] { resume_done = true; }));
  ASSERT_TRUE(vms.Crash(id));  // dies mid-resume
  EXPECT_EQ(vms.memory_used(), 0u);
  clock.RunUntil(sim::FromSeconds(3));  // the stale resume timer fires
  EXPECT_TRUE(resume_done);             // callback runs; the guest stays down
  EXPECT_EQ(vm->state(), VmState::kCrashed);
  EXPECT_EQ(vms.memory_used(), 0u);  // the stale timer must not re-admit it

  // A crashed guest restarts cleanly afterwards.
  bool restarted = false;
  ASSERT_TRUE(vms.Restart(id, [&](Vm*) { restarted = true; }, &error));
  clock.RunUntil(sim::FromSeconds(4));
  EXPECT_TRUE(restarted);
  EXPECT_EQ(vm->state(), VmState::kRunning);
}

TEST(Failure, CrashDuringSuspendKeepsAccountingConsistent) {
  sim::EventQueue clock;
  platform::VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, ForwardConfig(), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_TRUE(vms.Suspend(vm->id()));
  ASSERT_TRUE(vms.Crash(vm->id()));  // dies while writing the image out
  clock.RunUntil(sim::FromSeconds(2));  // stale suspend timer fires harmlessly
  EXPECT_EQ(vm->state(), VmState::kCrashed);
  EXPECT_EQ(vms.memory_used(), 0u);  // released exactly once
}

TEST(Failure, UninstallClearsStaleBuffersBeforeReinstall) {
  // Packets buffered for a crashed tenant must not replay into a different
  // tenant that later installs at the same address.
  sim::EventQueue clock;
  InNetPlatform platform(&clock);
  std::string error;
  Ipv4Address addr = Ipv4Address::MustParse("172.16.3.10");
  Vm::VmId first = platform.Install(addr, "FromNetfront() -> ToNetfront();", &error);
  ASSERT_NE(first, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  ASSERT_TRUE(platform.vms().Crash(first));
  for (uint16_t i = 0; i < 3; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10", static_cast<uint16_t>(7000 + i), 80);
    platform.HandlePacket(p);  // stalls against the crashed guest
  }
  ASSERT_TRUE(platform.Uninstall(addr));
  EXPECT_EQ(platform.abandoned_packets(), 3u);

  int egressed = 0;
  platform.SetEgressHandler([&](Packet&) { ++egressed; });
  Vm::VmId second = platform.Install(addr, "FromNetfront() -> ToNetfront();", &error);
  ASSERT_NE(second, 0u) << error;
  clock.RunUntil(sim::FromSeconds(2));
  EXPECT_EQ(egressed, 0);  // the old tenant's packets did not replay
  Packet fresh = Udp("9.9.9.9", "172.16.3.10", 7100, 80);
  platform.HandlePacket(fresh);
  EXPECT_EQ(egressed, 1);
}

TEST(Failure, ResumeOfDestroyedVmRejected) {
  sim::EventQueue clock;
  platform::VmManager vms(&clock, 1ull << 30);
  std::string error;
  Vm* vm = vms.Create(VmKind::kClickOs, ForwardConfig(), nullptr, &error);
  ASSERT_NE(vm, nullptr);
  Vm::VmId id = vm->id();
  clock.RunUntil(sim::FromMillis(100));
  vms.Destroy(id);
  EXPECT_FALSE(vms.Resume(id));
  EXPECT_FALSE(vms.Suspend(id));
}

// --- Corrupted traffic ----------------------------------------------------------------

TEST(Failure, CorruptedPacketsDropAtCheckIPHeader) {
  std::string error;
  auto graph = click::Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> CheckIPHeader() -> IPFilter(allow all) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  sim::Rng rng(13);
  int corrupted_delivered = 0;
  for (int i = 0; i < 200; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
    // Flip a random byte in the IP header without refreshing checksums.
    size_t offset = kEthHeaderLen + rng.NextBelow(kIpHeaderLen);
    uint8_t flip = static_cast<uint8_t>(1 + rng.NextBelow(255));
    p.mutable_data()[offset] ^= flip;
    uint64_t before = graph->FindAs<click::ToNetfront>("sink")->packet_count();
    graph->InjectAtSource(p);
    uint64_t after = graph->FindAs<click::ToNetfront>("sink")->packet_count();
    corrupted_delivered += static_cast<int>(after - before);
  }
  EXPECT_EQ(corrupted_delivered, 0);
}

// --- Controller exhaustion and malformed inputs ------------------------------------------

TEST(Failure, AddressPoolExhaustionRejectsCleanly) {
  // Each platform pool serves 240 module addresses; request more than all
  // three platforms can hold and the controller must refuse, not wrap.
  Controller ctrl(topology::Network::MakeFigure3());
  ClientRequest request;
  request.requester = RequesterClass::kThirdParty;
  request.click_config =
      "FromNetfront() -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};

  int accepted = 0;
  for (int i = 0; i < 750; ++i) {
    request.client_id = "tenant" + std::to_string(i);
    DeployOutcome outcome = ctrl.Deploy(request);
    if (!outcome.accepted) {
      break;
    }
    ++accepted;
  }
  EXPECT_GT(accepted, 200);   // pools really filled up
  EXPECT_LT(accepted, 750);   // and exhaustion was reported
  // All assigned addresses distinct.
  std::set<uint32_t> addrs;
  for (const auto& dep : ctrl.deployments()) {
    EXPECT_TRUE(addrs.insert(dep.addr.value()).second);
  }
}

TEST(Failure, MalformedEverything) {
  Controller ctrl(topology::Network::MakeFigure3());
  ClientRequest request;
  request.client_id = "x";
  const char* bad_configs[] = {
      "",                                     // empty
      "FromNetfront( -> ToNetfront();",       // unbalanced
      "a :: NotAClass(); a -> a;",            // unknown class
      "FromNetfront() -> IPFilter() -> ToNetfront();",  // element arg error
      "x :: Counter(); x -> Discard();",      // no ingress
  };
  for (const char* config : bad_configs) {
    request.click_config = config;
    EXPECT_FALSE(ctrl.Deploy(request).accepted) << config;
  }
  EXPECT_TRUE(ctrl.deployments().empty());
}

TEST(Failure, OrchestratorSurvivesConsolidationRebuildFailure) {
  // A stateless, safe config that the *consolidator* rejects (no ToNetfront
  // cannot happen post-verification, so instead exercise the rebuild path by
  // killing during operation).
  sim::EventQueue clock;
  controller::Orchestrator orchestrator(topology::Network::MakeFigure3(), &clock);
  ClientRequest request;
  request.client_id = "a";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  auto result = orchestrator.Deploy(request);
  ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
  // Kill twice: the second must fail without corrupting state.
  EXPECT_TRUE(orchestrator.Kill(result.outcome.module_id));
  EXPECT_FALSE(orchestrator.Kill(result.outcome.module_id));
  EXPECT_TRUE(orchestrator.controller().deployments().empty());
}

// --- Platform failover -------------------------------------------------------------------

ClientRequest FirewallRequest(const std::string& client_id, uint16_t port,
                              const std::string& client_addr) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port " + std::to_string(port) +
      ") -> IPRewriter(pattern - - " + client_addr + " - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse(client_addr)};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

TEST(Failure, FailoverRecoversTenantsAndPreservesPolicyVerdicts) {
  sim::EventQueue clock;
  controller::Orchestrator orchestrator(topology::Network::MakeFigure3(), &clock);

  // One consolidated (stateless) tenant and one dedicated (stateful) tenant.
  auto stateless = orchestrator.Deploy(FirewallRequest("a", 1500, "10.10.0.5"));
  ASSERT_TRUE(stateless.outcome.accepted) << stateless.outcome.reason;
  ASSERT_TRUE(stateless.consolidated);
  ClientRequest stateful_req = FirewallRequest("b", 1600, "10.10.0.6");
  stateful_req.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1600) ->"
      "IPRewriter(pattern - - 10.10.0.6 - 0 0) -> TimedUnqueue(120,100) -> ToNetfront();";
  auto stateful = orchestrator.Deploy(stateful_req);
  ASSERT_TRUE(stateful.outcome.accepted) << stateful.outcome.reason;
  ASSERT_FALSE(stateful.consolidated);
  ASSERT_EQ(stateless.outcome.platform, stateful.outcome.platform);
  const std::string dead = stateless.outcome.platform;

  auto report = orchestrator.MarkPlatformFailed(dead);
  EXPECT_EQ(report.tenants_affected, 2u);
  EXPECT_EQ(report.recovered, 2u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_GE(report.reverify_ms, 0.0);

  // The survivors carry the tenants with the original verdicts intact: the
  // stateless one re-merged into a shared VM, the stateful one got its own.
  ASSERT_EQ(report.remapped.size(), 2u);
  for (const auto& [old_id, new_id] : report.remapped) {
    const Deployment* dep = nullptr;
    for (const auto& d : orchestrator.controller().deployments()) {
      if (d.module_id == new_id) dep = &d;
    }
    ASSERT_NE(dep, nullptr) << new_id;
    EXPECT_NE(dep->platform, dead);
    EXPECT_FALSE(dep->sandboxed);  // both passed static checking before and after
  }
  size_t shared_tenants = 0;
  size_t live_vms = 0;
  for (const char* name : {"platform1", "platform2", "platform3"}) {
    if (name != dead) {
      shared_tenants += orchestrator.ConsolidatedTenantCount(name);
      live_vms += orchestrator.platform(name)->vms().vm_count();
    }
  }
  EXPECT_EQ(shared_tenants, 1u);  // exactly one consolidated tenant re-merged
  EXPECT_EQ(live_vms, 2u);        // the shared VM plus the stateful tenant's own
  EXPECT_EQ(orchestrator.platform(dead)->vms().vm_count(), 0u);

  // New deployments skip the dead platform until it is restored.
  auto next = orchestrator.Deploy(FirewallRequest("c", 1700, "10.10.0.7"));
  ASSERT_TRUE(next.outcome.accepted) << next.outcome.reason;
  EXPECT_NE(next.outcome.platform, dead);
  orchestrator.RestorePlatform(dead);
  EXPECT_FALSE(orchestrator.controller().IsPlatformFailed(dead));
}

TEST(Failure, FailoverReportsTenantLostWhenNoSurvivorSatisfiesRequirements) {
  // In Figure 3, only platform3 is reachable from the Internet (platform1 is
  // behind the NAT, platform2 sees TCP only). A tenant whose requirement
  // names the Internet is pinned there — when platform3 dies, failover must
  // re-verify and report the tenant lost, not silently misplace it on a
  // surviving platform that violates the requirement.
  sim::EventQueue clock;
  controller::Orchestrator orchestrator(topology::Network::MakeFigure3(), &clock);
  ClientRequest request = FirewallRequest("a", 1500, "10.10.0.5");
  request.requirements = "reach from internet udp -> client dst port 1500";
  auto result = orchestrator.Deploy(request);
  ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
  ASSERT_EQ(result.outcome.platform, "platform3");

  auto report = orchestrator.MarkPlatformFailed("platform3");
  EXPECT_EQ(report.tenants_affected, 1u);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.lost, 1u);
  ASSERT_EQ(report.lost_module_ids.size(), 1u);
  EXPECT_EQ(report.lost_module_ids[0], result.outcome.module_id);
  EXPECT_TRUE(orchestrator.controller().deployments().empty());
  for (const char* name : {"platform1", "platform2"}) {
    EXPECT_EQ(orchestrator.platform(name)->vms().vm_count(), 0u) << name;
  }
}

// --- Engine robustness --------------------------------------------------------------------

TEST(Failure, SymbolicEngineBoundsPathExplosion) {
  // A chain of Tee(2) doubles paths per stage; the engine must truncate
  // rather than exhaust memory.
  // Both Tee outputs feed the next stage, so path count doubles per stage.
  std::string config_text = "src :: FromNetfront();";
  std::string prev = "src";
  for (int i = 0; i < 24; ++i) {
    std::string name = "t" + std::to_string(i);
    config_text += name + " :: Tee(2);" + prev + " -> " + name + ";";
    if (i > 0) {
      config_text += "t" + std::to_string(i - 1) + "[1] -> [0]" + name + ";";
    }
    prev = name;
  }
  config_text += prev + " -> ToNetfront(); " + prev + "[1] -> Discard();";
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::EngineOptions options;
  options.max_paths = 1000;
  symexec::Engine engine(options);
  auto result = engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.steps, 2000u);
}

}  // namespace
}  // namespace innet
