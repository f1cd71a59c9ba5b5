// Byte-for-byte goldens for what the verifier prints: RenderTrace tables,
// ReachChecker explanations, SecurityReport findings and encoded path
// digests, for a handful of requests on the paper's networks.
//
// Scenarios:
//   figure2          Figure 3's network alone (the Figure 2 walk of client
//                    UDP through the stateful firewall), then the §3 UDP
//                    server deployed on a platform and the round trip
//                    checked through it.
//   figure3_http     Figure 3 with the operator policy through the HTTP
//                    optimizer and the Figure 4 batcher deployed on top of
//                    a small installed base.
//   spoof            A third-party module that rewrites its source to a
//                    fixed foreign address: rejected by the security check.
//   unreachable      A module whose requirement no flow can meet: rejected
//                    by the reach check.
//   branching        An IPClassifier/Tee module on the 255-box scaling
//                    topology.
//   no_ingress       A module without a FromNetfront, requested by a third
//                    party (rejected) and by the operator.
//   restore          Journal replay: RestoreDeployment with and without
//                    re-verification, next to a fresh deploy.
//
// A mismatch writes the rendering to <name>.actual.txt in the test's working
// directory; copy it over tests/golden/verify/<name>.txt only when the change
// in what the verifier prints is deliberate.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/symexec/path_digest.h"
#include "src/symexec/trace_render.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using symexec::Engine;
using symexec::EngineResult;
using symexec::SymbolicPacket;

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(INNET_GOLDEN_DIR) + "/" + name + ".txt", std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void ExpectGolden(const std::string& name, const std::string& actual) {
  std::string expected = ReadGolden(name);
  if (actual != expected) {
    std::ofstream(name + ".actual.txt", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, expected) << "golden " << name << " differs; see " << name << ".actual.txt";
}

void RenderOutcome(const DeployOutcome& outcome, std::ostringstream* out) {
  *out << "accepted=" << outcome.accepted << " module=" << outcome.module_id
       << " platform=" << outcome.platform << " addr=" << outcome.module_addr.ToString()
       << " sandboxed=" << outcome.sandboxed << " steps=" << outcome.engine_steps << "\n"
       << "reason: " << outcome.reason << "\n"
       << "security: " << outcome.security.Summary() << "\n";
  for (const std::string& finding : outcome.security.findings) {
    *out << "  finding: " << finding << "\n";
  }
}

void RenderDeployments(const Controller& controller, std::ostringstream* out) {
  for (const Deployment& dep : controller.deployments()) {
    *out << "deployment " << dep.module_id << " on " << dep.platform << " at "
         << dep.addr.ToString() << " pinholes=" << dep.pinholes->size() << "\n";
    for (const FlowSpec& pinhole : *dep.pinholes) {
      *out << "  pinhole: " << pinhole.ToString() << "\n";
    }
    *out << "  digest: " << dep.path_digest << "\n";
  }
}

// Every delivered packet of a run, with where it was delivered.
void RenderRun(const EngineResult& run, std::ostringstream* out) {
  *out << "steps=" << run.steps << " delivered=" << run.delivered.size()
       << " dropped=" << run.dropped.size() << " truncated=" << run.truncated << "\n";
  for (const SymbolicPacket& packet : run.delivered) {
    *out << "@" << packet.delivered_at() << " (" << packet.hop_count() << " hops)\n"
         << symexec::RenderTrace(packet);
  }
}

// Runs `flow` from `source` over `graph` and renders every delivered packet.
void RenderFlow(const symexec::SymGraph& graph, const std::string& source,
                const std::string& flow, std::ostringstream* out) {
  *out << "== flow " << flow << " from " << source << "\n";
  symexec::EngineOptions options;
  options.max_hops = std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
  Engine engine(options);
  for (SymbolicPacket& branch : SymbolicPacket::MakeUnconstrained(engine.vars())
                                    .ConstrainToFlowSpec(FlowSpec::MustParse(flow),
                                                         engine.vars())) {
    RenderRun(engine.Run(graph, graph.FindNode(source), symexec::kPortInject,
                         std::move(branch)),
              out);
  }
}

// Checks each statement against the committed snapshot and renders the
// checker's verdict and explanation.
void RenderReach(Controller* controller, const std::vector<std::string>& statements,
                 std::ostringstream* out) {
  std::string error;
  symexec::SymGraph graph = controller->BuildVerificationGraph(nullptr, &error);
  symexec::EngineOptions options;
  options.max_hops = std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
  policy::ReachChecker checker(&graph, controller->MakeResolver(nullptr), options);
  *out << "== reach over " << graph.node_count() << " nodes\n";
  for (const std::string& statement : statements) {
    auto spec = policy::ReachSpec::Parse(statement, &error);
    if (!spec) {
      *out << statement << "\n  parse error: " << error << "\n";
      continue;
    }
    policy::ReachCheckResult result = checker.Check(*spec);
    *out << spec->ToString() << "\n  satisfied=" << result.satisfied
         << " paths=" << result.paths_explored << " steps=" << result.engine_steps
         << "\n  " << result.explanation << "\n";
  }
}

// Security findings and path digest of a module on its own.
void RenderModule(const std::string& config_text, RequesterClass requester,
                  Ipv4Address module_addr, std::ostringstream* out) {
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  SecurityOptions options;
  options.requester = requester;
  options.module_addr = module_addr;
  options.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  SecurityReport report = CheckModuleSecurity(*config, options, &error);
  *out << "== module security: " << report.Summary() << "\n";
  for (const std::string& finding : report.findings) {
    *out << "  finding: " << finding << "\n";
  }
  *out << "  digest: " << symexec::ComputePathDigest(*config).Encode() << "\n";
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  for (const std::string& source : symexec::ModuleSources(*config)) {
    *out << "== module run from " << source << "\n";
    Engine engine;
    RenderRun(engine.Run(*model, model->FindNode(source), symexec::kPortInject,
                         SymbolicPacket::MakeUnconstrained(engine.vars())),
              out);
  }
}

ClientRequest Request(const std::string& client_id, RequesterClass requester,
                      const std::string& config, const std::string& requirements) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = requester;
  request.click_config = config;
  request.requirements = requirements;
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5"), Ipv4Address::MustParse("10.10.0.6")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

constexpr char kOperatorPolicy[] =
    "reach from internet tcp src port 80 -> http_optimizer -> client";

constexpr char kBatcher[] =
    "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
    " IPRewriter(pattern - - 10.10.0.5 - 0 0) -> batcher :: TimedUnqueue(120,100)"
    " -> dst :: ToNetfront();";

TEST(VerifyGolden, Figure2) {
  std::ostringstream out;
  topology::Network net = topology::Network::MakeFigure3();
  RenderFlow(net.BuildSymGraph(), "clients", "udp", &out);

  Controller controller(topology::Network::MakeFigure3());
  ClientRequest server = Request(
      "provider", RequesterClass::kThirdParty,
      "FromNetfront() -> IPClassifier(udp, -) -> server :: DnsGeoServer() -> ToNetfront();", "");
  server.whitelist.clear();
  server.owned_prefixes.clear();
  DeployOutcome outcome = controller.Deploy(server);
  RenderOutcome(outcome, &out);
  RenderDeployments(controller, &out);
  const std::string addr = outcome.module_addr.ToString();
  std::string error;
  RenderFlow(controller.BuildVerificationGraph(nullptr, &error), "clients",
             "udp dst host " + addr, &out);
  RenderReach(&controller,
              {"reach from client udp dst host " + addr + " -> " + addr +
                   " -> client const payload && proto",
               "reach from internet udp -> " + addr + " -> client",
               "reach from client udp -> nowhere -> client"},
              &out);
  ExpectGolden("figure2", out.str());
}

TEST(VerifyGolden, Figure3HttpOptimizer) {
  std::ostringstream out;
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  for (int i = 0; i < 3; ++i) {
    std::string port = std::to_string(2000 + i);
    RenderOutcome(controller.Deploy(Request(
                      "base" + std::to_string(i), RequesterClass::kClient,
                      "FromNetfront() -> IPFilter(allow udp dst port " + port +
                          ") -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> ToNetfront();",
                      "reach from internet udp -> client dst port " + port)),
                  &out);
  }
  DeployOutcome outcome = controller.Deploy(
      Request("batcher", RequesterClass::kClient, kBatcher,
              "reach from internet udp -> batcher:batcher:0 const payload && dst port -> "
              "client dst port 1500 const payload && proto && dst port"));
  RenderOutcome(outcome, &out);
  RenderDeployments(controller, &out);
  std::string error;
  RenderFlow(controller.BuildVerificationGraph(nullptr, &error), "internet",
             "udp dst port 1500", &out);
  RenderReach(&controller,
              {kOperatorPolicy, "reach from internet udp -> client dst port 1500",
               "reach from internet udp -> " + outcome.module_addr.ToString() +
                   " -> client dst port 1500 const payload",
               "reach from internet tcp -> web_cache -> http_optimizer -> client const payload"},
              &out);
  RenderModule(kBatcher, RequesterClass::kThirdParty, outcome.module_addr, &out);
  ExpectGolden("figure3_http", out.str());
}

TEST(VerifyGolden, RejectedSpoof) {
  std::ostringstream out;
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  const char* spoof =
      "FromNetfront() -> IPFilter(allow udp dst port 2000) ->"
      " IPRewriter(pattern 6.6.6.6 - 10.10.0.5 - 0 0) -> ToNetfront();";
  RenderOutcome(controller.Deploy(Request("spoofer", RequesterClass::kThirdParty, spoof,
                                          "reach from internet udp -> client dst port 2000")),
                &out);
  RenderModule(spoof, RequesterClass::kThirdParty, Ipv4Address::MustParse("172.16.3.10"), &out);
  ExpectGolden("spoof", out.str());
}

TEST(VerifyGolden, UnreachableRequirement) {
  std::ostringstream out;
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  RenderOutcome(
      controller.Deploy(Request("lost", RequesterClass::kClient,
                                "FromNetfront() -> IPFilter(allow udp dst port 2000) ->"
                                " IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();",
                                "reach from internet udp -> client dst port 9000")),
      &out);
  RenderOutcome(controller.Deploy(Request(
                    "tcp_only", RequesterClass::kClient,
                    "FromNetfront() -> IPFilter(allow udp dst port 2001) ->"
                    " IPRewriter(pattern - - 10.10.0.6 - 0 0) -> ToNetfront();",
                    "reach from internet tcp -> client dst port 2001")),
                &out);
  ExpectGolden("unreachable", out.str());
}

TEST(VerifyGolden, BranchingOnScalingTopology) {
  std::ostringstream out;
  Controller controller(topology::Network::MakeScalingTopology(255));
  const std::string port = "2005";
  const std::string classifier =
      "FromNetfront() -> c :: IPClassifier(udp dst port " + port + ", tcp dst port " + port +
      ", -); out :: ToNetfront(); c[0] -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      " c[1] -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> out; c[2] -> Discard();";
  const std::string tee =
      "FromNetfront() -> IPFilter(allow udp dst port 2006) -> t :: Tee(2);"
      " out :: ToNetfront(); t[0] -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> out;"
      " t[1] -> IPRewriter(pattern - - 10.10.0.6 - 0 0) -> out;";
  RenderOutcome(controller.Deploy(Request("cls", RequesterClass::kClient, classifier,
                                          "reach from internet udp -> client dst port " + port)),
                &out);
  RenderOutcome(controller.Deploy(Request("tee", RequesterClass::kClient, tee,
                                          "reach from internet udp -> client dst port 2006")),
                &out);
  RenderDeployments(controller, &out);
  RenderReach(&controller,
              {"reach from internet udp -> client dst port " + port,
               "reach from internet tcp -> 172.16.3.10 -> client dst port " + port,
               "reach from internet udp -> 172.16.3.11 -> client const payload",
               "reach from client udp -> internet"},
              &out);
  RenderModule(classifier, RequesterClass::kThirdParty, Ipv4Address::MustParse("172.16.3.10"),
               &out);
  RenderModule(tee, RequesterClass::kThirdParty, Ipv4Address::MustParse("172.16.3.11"), &out);
  ExpectGolden("branching", out.str());
}

TEST(VerifyGolden, ModuleWithoutIngress) {
  std::ostringstream out;
  const char* config =
      "Counter() -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  Controller controller(topology::Network::MakeFigure3());
  RenderOutcome(controller.Deploy(Request("tp", RequesterClass::kThirdParty, config, "")), &out);
  RenderOutcome(controller.Deploy(Request("op", RequesterClass::kOperator, config, "")), &out);
  RenderDeployments(controller, &out);
  RenderModule(config, RequesterClass::kThirdParty, Ipv4Address::MustParse("172.16.3.10"), &out);
  RenderModule(config, RequesterClass::kOperator, Ipv4Address::MustParse("172.16.3.10"), &out);
  ExpectGolden("no_ingress", out.str());
}

TEST(VerifyGolden, RestoreWithAndWithoutReverify) {
  std::ostringstream out;
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  auto restore = [&](const ClientRequest& request, const std::string& module_id,
                     const std::string& addr, bool reverify) {
    std::string error;
    bool ok = controller.RestoreDeployment(request, module_id, "platform3",
                                           Ipv4Address::MustParse(addr), reverify, &error);
    out << "restore " << module_id << " reverify=" << reverify << ": ok=" << ok
        << " error: " << error << "\n";
  };
  restore(Request("batcher", RequesterClass::kClient, kBatcher,
                  "reach from internet udp -> batcher:batcher:0 const payload && dst port -> "
                  "client dst port 1500 const payload && proto && dst port"),
          "batcher-m4", "172.16.3.13", /*reverify=*/true);
  restore(Request("plain", RequesterClass::kThirdParty,
                  "FromNetfront() -> IPFilter(allow udp dst port 2000) ->"
                  " IPRewriter(pattern - - 10.10.0.6 - 0 0) -> ToNetfront();",
                  "reach from internet udp -> client dst port 2000"),
          "plain-m2", "172.16.3.11", /*reverify=*/false);
  // Replaying an applied entry again is a no-op success.
  restore(Request("plain", RequesterClass::kThirdParty, "garbage", ""), "plain-m2",
          "172.16.3.11", /*reverify=*/true);
  restore(Request("lost", RequesterClass::kClient,
                  "FromNetfront() -> IPFilter(allow udp dst port 2001) ->"
                  " IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();",
                  "reach from internet udp -> client dst port 9000"),
          "lost-m5", "172.16.3.14", /*reverify=*/true);
  restore(Request("spoofer", RequesterClass::kThirdParty,
                  "FromNetfront() -> IPRewriter(pattern 6.6.6.6 - 10.10.0.5 - 0 0) ->"
                  " ToNetfront();",
                  ""),
          "spoofer-m6", "172.16.3.15", /*reverify=*/false);
  RenderDeployments(controller, &out);
  // The next fresh module id skips the sequence numbers restored ids embed.
  RenderOutcome(controller.Deploy(Request(
                    "fresh", RequesterClass::kClient,
                    "FromNetfront() -> IPFilter(allow udp dst port 2002) ->"
                    " IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();",
                    "reach from internet udp -> client dst port 2002")),
                &out);
  ExpectGolden("restore", out.str());
}

}  // namespace
}  // namespace innet::controller
