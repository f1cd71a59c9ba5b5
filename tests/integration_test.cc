// End-to-end integration: client request -> controller verification ->
// platform realization (consolidation / dedicated VM / sandbox) -> real
// packets through the deployed modules.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/controller/orchestrator.h"
#include "src/controller/stock_modules.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using platform::InNetPlatform;

ClientRequest FirewallRequest(const std::string& client_id, uint16_t port,
                              const std::string& client_addr) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port " + std::to_string(port) +
      ") -> IPRewriter(pattern - - " + client_addr + " - 0 0) -> ToNetfront();";
  request.requirements =
      "reach from internet udp -> client dst port " + std::to_string(port);
  request.whitelist = {Ipv4Address::MustParse(client_addr)};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

class OrchestratorTest : public ::testing::Test {
 protected:
  OrchestratorTest() : orchestrator_(topology::Network::MakeFigure3(), &clock_) {}

  sim::EventQueue clock_;
  Orchestrator orchestrator_;
};

TEST_F(OrchestratorTest, StatelessModulesConsolidateIntoOneVm) {
  std::string platform_name;
  for (int i = 0; i < 5; ++i) {
    auto result = orchestrator_.Deploy(
        FirewallRequest("client" + std::to_string(i), static_cast<uint16_t>(1500 + i),
                        "10.10.0." + std::to_string(5 + i)));
    ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
    EXPECT_TRUE(result.consolidated);
    platform_name = result.outcome.platform;
  }
  EXPECT_EQ(orchestrator_.ConsolidatedTenantCount(platform_name), 5u);
  // One shared guest serves all five tenants (plus nothing else).
  EXPECT_EQ(orchestrator_.platform(platform_name)->vms().vm_count(), 1u);
}

TEST_F(OrchestratorTest, StatefulModuleGetsDedicatedVm) {
  // The Figure 4 batcher keeps per-packet queue state (TimedUnqueue):
  // the paper's prototype refuses to consolidate it.
  ClientRequest request = FirewallRequest("mobile", 1500, "10.10.0.5");
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> TimedUnqueue(120,100) -> ToNetfront();";
  auto result = orchestrator_.Deploy(request);
  ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
  EXPECT_FALSE(result.consolidated);
  EXPECT_NE(result.vm_id, 0u);
}

TEST_F(OrchestratorTest, SandboxedModuleGetsDedicatedVm) {
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockX86Vm();
  auto result = orchestrator_.Deploy(request);
  ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
  EXPECT_TRUE(result.outcome.sandboxed);
  EXPECT_FALSE(result.consolidated);
}

TEST_F(OrchestratorTest, RejectedRequestLeavesNoState) {
  ClientRequest request;
  request.client_id = "mallory";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = "FromNetfront() -> TransparentProxy() -> ToNetfront();";
  auto result = orchestrator_.Deploy(request);
  EXPECT_FALSE(result.outcome.accepted);
  EXPECT_TRUE(orchestrator_.controller().deployments().empty());
  for (const char* name : {"platform1", "platform2", "platform3"}) {
    EXPECT_EQ(orchestrator_.platform(name)->vms().vm_count(), 0u) << name;
  }
}

TEST_F(OrchestratorTest, ConsolidatedTenantsProcessTrafficEndToEnd) {
  auto first = orchestrator_.Deploy(FirewallRequest("a", 1500, "10.10.0.5"));
  auto second = orchestrator_.Deploy(FirewallRequest("b", 1600, "10.10.0.6"));
  ASSERT_TRUE(first.outcome.accepted);
  ASSERT_TRUE(second.outcome.accepted);
  ASSERT_EQ(first.outcome.platform, second.outcome.platform);

  InNetPlatform* box = orchestrator_.platform(first.outcome.platform);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(1));  // shared VM boots

  std::vector<Packet> egressed;
  box->SetEgressHandler([&](Packet& p) { egressed.push_back(p); });

  // Tenant a's flow: allowed + rewritten to 10.10.0.5.
  Packet to_a = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"), first.outcome.module_addr,
                                4000, 1500, 64);
  box->HandlePacket(to_a);
  // Tenant b's flow with tenant a's port: tenant b only allows 1600.
  Packet wrong_port = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                      second.outcome.module_addr, 4000, 1500, 64);
  box->HandlePacket(wrong_port);
  // Tenant b's proper flow.
  Packet to_b = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                second.outcome.module_addr, 4000, 1600, 64);
  box->HandlePacket(to_b);

  ASSERT_EQ(egressed.size(), 2u);
  EXPECT_EQ(egressed[0].ip_dst(), Ipv4Address::MustParse("10.10.0.5"));
  EXPECT_EQ(egressed[1].ip_dst(), Ipv4Address::MustParse("10.10.0.6"));
}

TEST_F(OrchestratorTest, KillRemovesConsolidatedTenantOnly) {
  auto first = orchestrator_.Deploy(FirewallRequest("a", 1500, "10.10.0.5"));
  auto second = orchestrator_.Deploy(FirewallRequest("b", 1600, "10.10.0.6"));
  ASSERT_TRUE(first.outcome.accepted);
  ASSERT_TRUE(second.outcome.accepted);
  const std::string platform_name = first.outcome.platform;
  EXPECT_EQ(orchestrator_.ConsolidatedTenantCount(platform_name), 2u);

  EXPECT_TRUE(orchestrator_.Kill(first.outcome.module_id));
  EXPECT_EQ(orchestrator_.ConsolidatedTenantCount(platform_name), 1u);
  EXPECT_EQ(orchestrator_.controller().deployments().size(), 1u);

  // The survivor still works after the shared-VM rebuild.
  InNetPlatform* box = orchestrator_.platform(platform_name);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
  int egressed = 0;
  box->SetEgressHandler([&](Packet&) { ++egressed; });
  Packet to_b = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                second.outcome.module_addr, 4000, 1600, 64);
  box->HandlePacket(to_b);
  EXPECT_EQ(egressed, 1);

  // Removing the last tenant tears the shared VM down entirely.
  EXPECT_TRUE(orchestrator_.Kill(second.outcome.module_id));
  EXPECT_EQ(box->vms().vm_count(), 0u);
}

// Two Table 1 rows are stateless tenants with a second endpoint: the tunnel
// has a second source (its idle encapsulation side) and the multicast config
// a second sink. Both consolidate, and the multicast guest emits one replica
// per sink through the shared egress.
TEST_F(OrchestratorTest, TenantsWithSeveralSourcesOrSinksConsolidate) {
  ClientRequest tunnel;
  tunnel.client_id = "tunnel";
  tunnel.requester = RequesterClass::kClient;
  tunnel.click_config =
      StockTunnel(Ipv4Address::MustParse("7.7.7.7"), Ipv4Prefix::MustParse("10.10.0.0/24"));
  tunnel.whitelist = {Ipv4Address::MustParse("7.7.7.7")};
  tunnel.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  ClientRequest multicast;
  multicast.client_id = "multicast";
  multicast.requester = RequesterClass::kClient;
  multicast.click_config =
      "src :: FromNetfront(); t :: Tee(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> SetIPDst(10.10.0.5) -> a;"
      "t[1] -> SetIPDst(10.10.0.6) -> b;";
  multicast.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};

  auto tunneled = orchestrator_.Deploy(tunnel);
  ASSERT_TRUE(tunneled.outcome.accepted) << tunneled.outcome.reason;
  EXPECT_TRUE(tunneled.consolidated);
  auto replicated = orchestrator_.Deploy(multicast);
  ASSERT_TRUE(replicated.outcome.accepted) << replicated.outcome.reason;
  EXPECT_TRUE(replicated.consolidated);

  InNetPlatform* box = orchestrator_.platform(replicated.outcome.platform);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
  std::vector<Ipv4Address> egressed;
  box->SetEgressHandler([&](Packet& p) { egressed.push_back(p.ip_dst()); });
  Packet packet = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                  replicated.outcome.module_addr, 4000, 1500, 64);
  box->HandlePacket(packet);
  std::ranges::sort(egressed, {}, &Ipv4Address::value);
  EXPECT_EQ(egressed, (std::vector<Ipv4Address>{Ipv4Address::MustParse("10.10.0.5"),
                                                Ipv4Address::MustParse("10.10.0.6")}));
}

TEST_F(OrchestratorTest, KillUnknownModuleFails) {
  EXPECT_FALSE(orchestrator_.Kill("no-such-module"));
}

TEST_F(OrchestratorTest, SandboxedVmEnforcesAtRuntime) {
  // The x86 VM forwards anything; the enforcer wrapped around it must block
  // unauthorized egress — defense in depth doing its job.
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockX86Vm();
  request.whitelist = {Ipv4Address::MustParse("5.5.5.5")};
  auto result = orchestrator_.Deploy(request);
  ASSERT_TRUE(result.outcome.accepted) << result.outcome.reason;
  ASSERT_TRUE(result.outcome.sandboxed);

  InNetPlatform* box = orchestrator_.platform(result.outcome.platform);
  clock_.RunUntil(clock_.now() + sim::FromSeconds(1));
  std::vector<Packet> egressed;
  box->SetEgressHandler([&](Packet& p) { egressed.push_back(p); });

  // Traffic addressed to the module whose (unchanged) destination is the
  // module itself: not whitelisted, not a response -> blocked.
  Packet stray = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                 result.outcome.module_addr, 4000, 80, 64);
  box->HandlePacket(stray);
  EXPECT_TRUE(egressed.empty());
}

}  // namespace
}  // namespace innet::controller
