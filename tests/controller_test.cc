#include <gtest/gtest.h>

#include "src/controller/controller.h"
#include "src/controller/orchestrator.h"
#include "src/controller/security.h"
#include "src/controller/stock_modules.h"
#include "src/obs/metrics.h"
#include "src/symexec/path_digest.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using topology::Network;

// --- Security checker: the Table 1 matrix ----------------------------------------------

class SecurityCheck : public ::testing::Test {
 protected:
  // Runs the checker on `config_text` for `requester`; whitelist contains the
  // client's registered address (10.10.0.5) plus any extras.
  Verdict Run(const std::string& config_text, RequesterClass requester,
              std::vector<Ipv4Address> extra_whitelist = {}) {
    std::string error;
    auto config = click::ConfigGraph::Parse(config_text, &error);
    EXPECT_TRUE(config.has_value()) << error;
    SecurityOptions options;
    options.requester = requester;
    options.module_addr = Ipv4Address::MustParse("172.16.3.10");
    options.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
    for (Ipv4Address addr : extra_whitelist) {
      options.whitelist.push_back(addr);
    }
    options.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    SecurityReport report = CheckModuleSecurity(*config, options, &error);
    return report.verdict;
  }
};

// Table 1 row: Firewall — safe for everyone.
TEST_F(SecurityCheck, FirewallRow) {
  const std::string config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Flow meter — safe (pass-through measurement to own address).
TEST_F(SecurityCheck, FlowMeterRow) {
  const std::string config =
      "FromNetfront() -> FlowMeter() ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Rate limiter — safe.
TEST_F(SecurityCheck, RateLimiterRow) {
  const std::string config =
      "FromNetfront() -> RateLimiter(8000000) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Table 1 row: IP Router — rejected for tenants (forwards by attacker-set
// destination), fine for the operator.
TEST_F(SecurityCheck, IpRouterRow) {
  const std::string config =
      "src :: FromNetfront(); rt :: LinearIPLookup(0.0.0.0/1 0, 128.0.0.0/1 1);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> rt; rt[0] -> a; rt[1] -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: DPI — rejected for tenants (transit inspection).
TEST_F(SecurityCheck, DpiRow) {
  const std::string config =
      "src :: FromNetfront(); dpi :: ContentMatch(EVIL);"
      "pass :: ToNetfront(); alert :: Discard();"
      "src -> dpi; dpi[0] -> pass; dpi[1] -> alert;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: NAT — rejected for tenants.
TEST_F(SecurityCheck, NatRow) {
  const std::string config =
      "outb :: FromNetfront(); inb :: FromNetfront();"
      "nat :: NatRewriter(PUBLIC 172.16.3.10);"
      "wan :: ToNetfront(); lan :: ToNetfront();"
      "outb -> nat; nat[0] -> wan; inb -> [1]nat; nat[1] -> lan;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Transparent proxy — rejected for tenants.
TEST_F(SecurityCheck, TransparentProxyRow) {
  const std::string config = "FromNetfront() -> TransparentProxy() -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Tunnel — sandbox for third parties (decapsulated destination
// unknown at install time), clean for clients.
TEST_F(SecurityCheck, TunnelRow) {
  const std::string config = StockTunnel(Ipv4Address::MustParse("7.7.7.7"),
                                         Ipv4Prefix::MustParse("10.10.0.0/24"));
  std::string substituted =
      SubstituteSelf(config, Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(substituted, RequesterClass::kThirdParty, {Ipv4Address::MustParse("7.7.7.7")}),
            Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(substituted, RequesterClass::kClient, {Ipv4Address::MustParse("7.7.7.7")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(substituted, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Multicast — safe when every replica destination is authorized.
TEST_F(SecurityCheck, MulticastRow) {
  const std::string config =
      "src :: FromNetfront(); t :: Tee(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> SetIPDst(10.10.0.5) -> a; t[1] -> SetIPDst(10.10.0.6) -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty, {Ipv4Address::MustParse("10.10.0.6")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Multicast to an UNREGISTERED replica is exactly the DDoS vector default-off
// prevents: rejected for third parties (but clients may send anywhere).
TEST_F(SecurityCheck, MulticastToUnregisteredReplica) {
  const std::string config =
      "src :: FromNetfront(); t :: Tee(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> SetIPDst(10.10.0.5) -> a; t[1] -> SetIPDst(9.9.9.9) -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Table 1 row: DNS server (stock) — safe: responds to the requester.
TEST_F(SecurityCheck, DnsServerRow) {
  std::string config =
      SubstituteSelf(StockDnsServer(), Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Reverse proxy (stock) — safe: replies to requester, fetches
// from the whitelisted origin.
TEST_F(SecurityCheck, ReverseProxyRow) {
  std::string config = SubstituteSelf(StockReverseProxy(Ipv4Address::MustParse("5.5.5.5")),
                                      Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty, {Ipv4Address::MustParse("5.5.5.5")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient, {Ipv4Address::MustParse("5.5.5.5")}),
            Verdict::kSafe);
}

// Table 1 row: x86 VM — sandbox for tenants (opaque), safe for the operator.
TEST_F(SecurityCheck, X86VmRow) {
  std::string config = StockX86Vm();
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Spoofing a fixed source address is always rejected.
TEST_F(SecurityCheck, SpoofedSourceRejected) {
  const std::string config =
      "FromNetfront() -> SetIPSrc(6.6.6.6) -> SetIPDst(10.10.0.5) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
}

// Sourcing as the module's own address is fine.
TEST_F(SecurityCheck, ModuleAddressSourceAccepted) {
  const std::string config =
      "FromNetfront() -> SetIPSrc(172.16.3.10) -> SetIPDst(10.10.0.5) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
}

// A module that drops everything is trivially safe.
TEST_F(SecurityCheck, BlackholeIsSafe) {
  EXPECT_EQ(Run("FromNetfront() -> Discard();", RequesterClass::kThirdParty), Verdict::kSafe);
}

TEST_F(SecurityCheck, NoIngressRejected) {
  EXPECT_EQ(Run("x :: Counter(); x -> ToNetfront();", RequesterClass::kThirdParty),
            Verdict::kRejected);
}

// --- Controller deployment (the Figure 4 request on the Figure 3 topology) --------------

class ControllerDeploy : public ::testing::Test {
 protected:
  ControllerDeploy() : controller_(Network::MakeFigure3()) {}

  ClientRequest BatcherRequest() {
    ClientRequest request;
    request.client_id = "mobile1";
    request.requester = RequesterClass::kClient;
    request.click_config =
        "FromNetfront() ->"
        "IPFilter(allow udp dst port 1500) ->"
        "IPRewriter(pattern - - 10.10.0.5 - 0 0)"
        "-> TimedUnqueue(120,100)"
        "-> dst :: ToNetfront();";
    request.requirements =
        "reach from internet udp -> client dst port 1500 "
        "const proto && dst port && payload";
    request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
    request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    return request;
  }

  Controller controller_;
};

TEST_F(ControllerDeploy, BatcherLandsOnPlatform3) {
  // Platforms 1 and 2 are not reachable from the Internet (NAT path / HTTP
  // policy path), so the push-notification batcher must land on platform 3 —
  // the placement the paper's unifying example walks through (§4.5).
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_EQ(outcome.platform, "platform3");
  EXPECT_FALSE(outcome.sandboxed);
  EXPECT_TRUE(outcome.module_addr.IsUnspecified() == false);
  EXPECT_EQ(controller_.deployments().size(), 1u);
}

TEST_F(ControllerDeploy, ModuleElementWaypointRequirement) {
  ClientRequest request = BatcherRequest();
  request.requirements =
      "reach from internet udp -> batcher:dst:0 dst 10.10.0.5 -> client dst port 1500";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
}

TEST_F(ControllerDeploy, ImpossibleRequirementRejected) {
  ClientRequest request = BatcherRequest();
  // ICMP can never reach the clients (firewall) and the module only passes UDP.
  request.requirements = "reach from internet icmp -> client";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ControllerDeploy, UnsafeModuleRejected) {
  ClientRequest request = BatcherRequest();
  request.requester = RequesterClass::kThirdParty;
  request.click_config = "FromNetfront() -> TransparentProxy() -> ToNetfront();";
  request.requirements = "";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("security"), std::string::npos);
}

TEST_F(ControllerDeploy, SandboxedModuleDeploysWithFlag) {
  ClientRequest request = BatcherRequest();
  request.click_config = StockX86Vm();
  request.requirements = "";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_TRUE(outcome.sandboxed);
}

TEST_F(ControllerDeploy, OperatorPolicyBlocksViolatingPlacement) {
  // An operator policy that can never hold with this module rejects the
  // deployment outright.
  ASSERT_TRUE(controller_.AddOperatorPolicy(
      "reach from internet tcp src port 80 -> http_optimizer -> client"));
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  // The policy holds independently of the module, so deployment succeeds...
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
}

TEST_F(ControllerDeploy, KillRemovesDeployment) {
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted);
  EXPECT_TRUE(controller_.Kill(outcome.module_id));
  EXPECT_FALSE(controller_.Kill(outcome.module_id));
  EXPECT_TRUE(controller_.deployments().empty());
}

// Two modules on one platform: killing the first renumbers the survivor's
// module port and takes the first one's firewall pinhole out of the next
// verification graph.
TEST_F(ControllerDeploy, KillRenumbersSurvivorAndDropsItsPinholes) {
  // Inbound UDP to a client crosses the NAT firewall only through a pinhole.
  const std::string through_pinhole =
      "reach from internet udp dst host 10.10.0.5 dst port 1500 -> nat_firewall -> client";
  auto holds = [this](const std::string& statement) {
    std::string error;
    symexec::SymGraph graph = controller_.BuildVerificationGraph(nullptr, &error);
    EXPECT_TRUE(error.empty()) << error;
    auto spec = policy::ReachSpec::Parse(statement, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return policy::ReachChecker(&graph, controller_.MakeResolver(nullptr)).Check(*spec).satisfied;
  };
  // The out-port platform3 hands DNS queries for `addr` to, read off the
  // path that enters module `module_id`; -1 when no path enters it.
  auto module_port = [this](const std::string& module_id, Ipv4Address addr) {
    std::string error;
    symexec::SymGraph graph = controller_.BuildVerificationGraph(nullptr, &error);
    symexec::Engine engine;
    std::vector<symexec::SymbolicPacket> seeds =
        symexec::SymbolicPacket::MakeUnconstrained(engine.vars())
            .ConstrainToFlowSpec(
                FlowSpec::MustParse("udp dst host " + addr.ToString() + " dst port 53"),
                engine.vars());
    symexec::EngineResult result = engine.Run(graph, graph.FindNode("internet"),
                                              symexec::kPortInject, std::move(seeds.at(0)));
    for (const auto* packets : {&result.delivered, &result.dropped}) {
      for (const symexec::SymbolicPacket& packet : *packets) {
        int at = packet.FindHop("platform3");
        if (at >= 0 && at + 1 < packet.hop_count() &&
            packet.HopName(at + 1).rfind(module_id + "/", 0) == 0) {
          return packet.HopOutPort(at);
        }
      }
    }
    return -1;
  };
  EXPECT_FALSE(holds(through_pinhole));

  ClientRequest first = BatcherRequest();
  first.client_id = "web";
  first.requirements = "";
  first.pinned_platform = "platform3";
  DeployOutcome web = controller_.Deploy(first);
  ASSERT_TRUE(web.accepted) << web.reason;
  ASSERT_EQ(controller_.FindDeployment(web.module_id)->pinholes.size(), 1u);

  ClientRequest second;
  second.client_id = "dns";
  second.requester = RequesterClass::kThirdParty;
  second.click_config = StockDnsServer();
  second.requirements = "reach from internet udp dst port 53 -> module:server -> internet";
  second.pinned_platform = "platform3";
  DeployOutcome dns = controller_.Deploy(second);
  ASSERT_TRUE(dns.accepted) << dns.reason;

  // platform3 has one link, so its module ports are 1 (web) and 2 (dns).
  const std::string dns_reach =
      "reach from internet udp dst port 53 -> " + dns.module_id + ":server -> internet";
  EXPECT_TRUE(holds(through_pinhole));
  EXPECT_TRUE(holds(dns_reach));
  EXPECT_EQ(module_port(web.module_id, web.module_addr), 1);
  EXPECT_EQ(module_port(dns.module_id, dns.module_addr), 2);

  ASSERT_TRUE(controller_.Kill(web.module_id));
  EXPECT_TRUE(holds(dns_reach));
  EXPECT_EQ(module_port(dns.module_id, dns.module_addr), 1);
  EXPECT_FALSE(holds(through_pinhole));
}

TEST_F(ControllerDeploy, SecondDeploymentGetsDistinctAddress) {
  DeployOutcome first = controller_.Deploy(BatcherRequest());
  ClientRequest second_request = BatcherRequest();
  second_request.client_id = "mobile2";
  DeployOutcome second = controller_.Deploy(second_request);
  ASSERT_TRUE(first.accepted) << first.reason;
  ASSERT_TRUE(second.accepted) << second.reason;
  EXPECT_NE(first.module_addr, second.module_addr);
  EXPECT_NE(first.module_id, second.module_id);
}

TEST_F(ControllerDeploy, BadConfigSyntaxRejected) {
  ClientRequest request = BatcherRequest();
  request.click_config = "FromNetfront( -> ToNetfront();";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ControllerDeploy, BadRequirementSyntaxRejected) {
  ClientRequest request = BatcherRequest();
  request.requirements = "reach to the moon";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

// A config that parses but has no symbolic model is a bad configuration for
// every requester class, the operator included: nothing of it was verified.
TEST_F(ControllerDeploy, UnmodelableConfigRejectedForEveryRequester) {
  for (const char* config : {"FromNetfront() -> IPFilter(bogus rule here) -> ToNetfront();",
                             "FromNetfront() -> NoSuchElement() -> ToNetfront();"}) {
    for (RequesterClass requester : {RequesterClass::kOperator, RequesterClass::kThirdParty}) {
      SCOPED_TRACE(std::string(config) + " as " + std::string(RequesterClassName(requester)));
      ClientRequest request;
      request.client_id = "op";
      request.requester = requester;
      request.click_config = config;
      DeployOutcome outcome = controller_.Deploy(request);
      EXPECT_FALSE(outcome.accepted);
      EXPECT_EQ(outcome.reason.rfind("bad configuration: ", 0), 0u) << outcome.reason;

      std::string error;
      EXPECT_FALSE(controller_.RestoreDeployment(request, "op-m7", "platform1",
                                                 Ipv4Address::MustParse("192.168.1.10"),
                                                 /*reverify=*/false, &error));
      EXPECT_EQ(error.rfind("bad configuration: ", 0), 0u) << error;
      EXPECT_TRUE(controller_.deployments().empty());
    }
  }
}

// Each candidate explores the module once, one engine run per source, and
// the verdict, pinholes, path digest and fragment all read that run.
TEST_F(ControllerDeploy, OneExplorationPerCandidate) {
  ClientRequest request;
  request.client_id = "two";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "a :: FromNetfront(); b :: FromNetfront(); out :: ToNetfront();"
      "a -> IPFilter(allow udp dst port 1500) -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      "b -> IPFilter(allow tcp) -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.pinned_platform = "platform3";
  obs::Counter* runs = obs::Registry().GetCounter("innet_symexec_runs_total");
  uint64_t before = runs->value();
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_EQ(runs->value() - before, 2u);

  const Deployment* dep = controller_.FindDeployment(outcome.module_id);
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->pinholes.size(), 2u);
  EXPECT_EQ(dep->path_digest, symexec::ComputePathDigest(dep->config).Encode());
}

// The committed fragment is the explored model with its exits forwarding:
// run on its own, nothing is delivered and the packet falls off the exit.
TEST_F(ControllerDeploy, FragmentExitsForward) {
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  const topology::ModuleFragment& fragment =
      *controller_.FindDeployment(outcome.module_id)->fragment;
  ASSERT_EQ(fragment.exits.size(), 1u);
  EXPECT_EQ(fragment.graph.NodeName(fragment.exits[0]), "dst");
  symexec::Engine engine;
  symexec::EngineResult result =
      engine.Run(fragment.graph, fragment.entry, symexec::kPortInject,
                 symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_TRUE(result.delivered.empty());
  ASSERT_EQ(result.dropped.size(), 1u);
  EXPECT_EQ(result.dropped[0].HopName(result.dropped[0].hop_count() - 1), "dst");
}

TEST_F(ControllerDeploy, TimingBreakdownPopulated) {
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted);
  EXPECT_GT(outcome.model_build_ms + outcome.check_ms, 0.0);
  EXPECT_GT(outcome.engine_steps, 0u);
}

// Geolocation placement on a multi-PoP operator: the module serving a PoP's
// clients lands on that PoP's platform (§8's CDN/DNS story).
TEST(MultiPopPlacement, ModuleLandsNearItsClients) {
  Controller controller(topology::Network::MakeMultiPop(4));
  for (int pop : {2, 0, 3}) {
    ClientRequest request;
    request.client_id = "dns-pop" + std::to_string(pop);
    request.requester = RequesterClass::kThirdParty;
    request.click_config = StockDnsServer();
    std::string client_net = "10." + std::to_string(pop + 1) + ".0.0/16";
    request.requirements =
        "reach from " + client_net + " udp dst port 53 -> module:server -> client";
    DeployOutcome outcome = controller.Deploy(request);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    EXPECT_EQ(outcome.platform, "platform" + std::to_string(pop));
  }
}

TEST(MultiPopPlacement, HopDistanceMetric) {
  topology::Network net = topology::Network::MakeMultiPop(3);
  EXPECT_EQ(net.HopDistance("clients1", "platform1"), 2);  // via access1
  EXPECT_EQ(net.HopDistance("clients1", "platform2"), 4);  // via access1, core, access2
  EXPECT_EQ(net.HopDistance("internet", "platform0"), 3);
  EXPECT_EQ(net.HopDistance("core", "core"), 0);
  EXPECT_EQ(net.HopDistance("core", "nonexistent"), -1);
}

// DNS stock module: reachable from the Internet on UDP 53.
TEST_F(ControllerDeploy, StockDnsDeploysAndIsReachable) {
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockDnsServer();
  request.requirements = "reach from internet udp dst port 53 -> module:server -> internet";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_EQ(outcome.platform, "platform3");
}

// --- Orchestrator reject-path bookkeeping ----------------------------------------------

// Rejected deployments must leave no trace: no placement entry, no committed
// deployment, no admission usage. The pinned request bypasses the scheduler's
// headroom filter, so the failure happens late — at shared-VM rebuild, after
// verification already passed — the worst case for stale bookkeeping.
TEST(OrchestratorBookkeeping, FailedInstallLeavesNoStaleState) {
  sim::EventQueue clock;
  OrchestratorOptions options;
  // Room for exactly one 8 MB ClickOS guest: the second tenant's shared-VM
  // rebuild (which transiently needs a second guest) must fail.
  options.platform_memory_bytes = 12ull << 20;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);

  ClientRequest request;
  request.client_id = "web1";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  request.pinned_platform = "platform1";

  auto first = orch.Deploy(request);
  ASSERT_TRUE(first.outcome.accepted) << first.outcome.reason;
  ASSERT_TRUE(first.consolidated);

  ClientRequest second_request = request;
  second_request.client_id = "web2";
  auto second = orch.Deploy(second_request);
  EXPECT_FALSE(second.outcome.accepted);
  EXPECT_NE(second.outcome.reason.find("consolidation failed"), std::string::npos);
  // No stale placement, deployment record, shared-VM tenant, or quota usage.
  EXPECT_EQ(orch.placement_count(), 1u);
  EXPECT_FALSE(orch.HasPlacement(second.outcome.module_id));
  EXPECT_EQ(orch.controller().deployments().size(), 1u);
  EXPECT_EQ(orch.ConsolidatedTenantCount("platform1"), 1u);
  EXPECT_EQ(orch.engine().admission().UsageFor("web2").modules, 0u);
  // The surviving tenant is untouched.
  EXPECT_EQ(orch.platform("platform1")->vms().vm_count(), 1u);
}

// Headroom rejection happens before verification: nothing is committed.
TEST(OrchestratorBookkeeping, NoHeadroomRejectsBeforeVerification) {
  sim::EventQueue clock;
  OrchestratorOptions options;
  options.platform_memory_bytes = 4ull << 20;  // below one ClickOS guest
  Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);

  ClientRequest request;
  request.client_id = "web1";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};

  auto result = orch.Deploy(request);
  EXPECT_FALSE(result.outcome.accepted);
  EXPECT_NE(result.outcome.reason.find("no platform has headroom"), std::string::npos);
  EXPECT_EQ(result.outcome.engine_steps, 0u);  // the verifier never ran
  EXPECT_TRUE(orch.controller().deployments().empty());
  EXPECT_EQ(orch.placement_count(), 0u);
}

// Kill of a module id that never placed (or already died) is a clean no-op.
TEST(OrchestratorBookkeeping, KillOfNeverPlacedModuleIsCleanNoOp) {
  sim::EventQueue clock;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  EXPECT_FALSE(orch.Kill("module-never-existed"));
  EXPECT_FALSE(orch.Kill(""));
  EXPECT_EQ(orch.placement_count(), 0u);
  for (const char* name : {"platform1", "platform2", "platform3"}) {
    EXPECT_EQ(orch.platform(name)->vms().vm_count(), 0u) << name;
  }
  // Double-kill: the second call finds nothing and says so.
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockDnsServer();
  auto deployed = orch.Deploy(request);
  ASSERT_TRUE(deployed.outcome.accepted) << deployed.outcome.reason;
  EXPECT_TRUE(orch.Kill(deployed.outcome.module_id));
  EXPECT_FALSE(orch.Kill(deployed.outcome.module_id));
  EXPECT_EQ(orch.placement_count(), 0u);
}

}  // namespace
}  // namespace innet::controller
