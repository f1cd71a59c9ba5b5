// Differential test of the controller's kept verification graph: after every
// operation of a seeded sequence (accepted and rejected deploys, kills of the
// first, a middle and the last deployment, restores, failed platforms,
// modules that open firewall pinholes), the graph the controller keeps must
// equal a fresh Controller::BuildVerificationGraph(nullptr) node for node,
// edge for edge and port for port, and the operator policy plus a set of
// reach probes must give the same verdicts, explanations and engine steps
// on both.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/controller/controller.h"
#include "src/controller/stock_modules.h"
#include "src/policy/reach_checker.h"
#include "src/sim/rng.h"
#include "src/symexec/click_models.h"
#include "src/symexec/path_digest.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

constexpr const char* kOperatorPolicy =
    "reach from internet tcp src port 80 -> http_optimizer -> client";

// A request of one of the shapes the sequences draw from. The UDP port
// 1500 + `index` keeps each tenant's flows apart.
enum class Shape { kBatcher, kSelfRewrite, kDns, kSpoof, kUnreachable, kPinned };

ClientRequest MakeRequest(Shape shape, int index) {
  const std::string port = std::to_string(1500 + index);
  ClientRequest request;
  request.client_id = "t" + std::to_string(index);
  request.requester = RequesterClass::kClient;
  request.requirements = "reach from internet udp -> client dst port " + port;
  // Whitelisting the rewrite target makes the module open a pinhole.
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  const std::string filter = "FromNetfront() -> IPFilter(allow udp dst port " + port + ") -> ";
  switch (shape) {
    case Shape::kBatcher:
    case Shape::kPinned:
      request.click_config = filter + "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
      if (shape == Shape::kPinned) {
        request.pinned_platform = "platform3";
      }
      break;
    case Shape::kSelfRewrite:
      request.click_config =
          filter + "IPRewriter(pattern $SELF - 10.10.0.5 - 0 0) -> ToNetfront();";
      break;
    case Shape::kDns:
      request.requester = RequesterClass::kThirdParty;
      request.click_config = StockDnsServer();
      request.requirements = "reach from internet udp dst port 53 -> module:server -> internet";
      request.whitelist.clear();
      break;
    case Shape::kSpoof:
      request.click_config =
          filter + "IPRewriter(pattern 6.6.6.6 - 10.10.0.5 - 0 0) -> ToNetfront();";
      break;
    case Shape::kUnreachable:
      request.click_config = filter + "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
      request.requirements = "reach from internet udp -> client dst port 9999";
      break;
  }
  return request;
}

// The kept graph and a fresh build hold the same nodes, names and edges.
void ExpectSameGraph(const symexec::SymGraph& kept, const symexec::SymGraph& fresh,
                     const std::string& step) {
  ASSERT_EQ(kept.node_count(), fresh.node_count()) << step;
  for (size_t i = 0; i < kept.node_count(); ++i) {
    int id = static_cast<int>(i);
    ASSERT_EQ(kept.NodeName(id), fresh.NodeName(id)) << step << ", node " << i;
    ASSERT_EQ(kept.OutEdges(id), fresh.OutEdges(id)) << step << ", node " << kept.NodeName(id);
  }
}

// Each platform's module ports are its links, then one per deployment on it
// in commit order: what a fresh build gives.
void ExpectCommitOrderPorts(const Controller& controller, const std::string& step) {
  for (const topology::Node* platform : controller.network().Platforms()) {
    std::vector<topology::ModulePort> expected;
    int port = static_cast<int>(platform->neighbors.size());
    for (const Deployment& dep : controller.deployments()) {
      if (dep.platform == platform->name) {
        expected.push_back({dep.addr.value(), port++});
      }
    }
    std::vector<topology::ModulePort> kept =
        controller.verification_graph().ModulePorts(platform->name);
    ASSERT_EQ(kept.size(), expected.size()) << step << ", " << platform->name;
    for (size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].addr, expected[i].addr) << step << ", " << platform->name;
      EXPECT_EQ(kept[i].port, expected[i].port) << step << ", " << platform->name;
    }
  }
}

// The operator policy and one probe per deployment (through its address,
// and through the pinhole its tenant's port would open) plus outbound
// client traffic.
std::vector<policy::ReachSpec> Probes(const Controller& controller) {
  std::vector<std::string> statements = {kOperatorPolicy, "reach from client udp -> internet"};
  for (const Deployment& dep : controller.deployments()) {
    statements.push_back("reach from internet udp dst host " + dep.addr.ToString() + " -> " +
                         dep.addr.ToString());
    statements.push_back("reach from internet udp dst host 10.10.0.5 dst port " +
                         std::to_string(1500 + std::stoi(dep.client_id.substr(1))) +
                         " -> nat_firewall -> client");
  }
  std::vector<policy::ReachSpec> specs;
  for (const std::string& statement : statements) {
    std::string error;
    auto spec = policy::ReachSpec::Parse(statement, &error);
    EXPECT_TRUE(spec.has_value()) << statement << ": " << error;
    if (spec) {
      specs.push_back(std::move(*spec));
    }
  }
  return specs;
}

void ExpectSameVerdicts(const Controller& controller, const symexec::SymGraph& fresh,
                        const std::string& step) {
  const symexec::SymGraph& kept = controller.verification_graph().graph();
  symexec::EngineOptions options;
  options.max_hops = std::max(256, static_cast<int>(kept.node_count()) * 2 + 64);
  policy::ReachChecker on_kept(&kept, controller.MakeResolver(nullptr), options);
  policy::ReachChecker on_fresh(&fresh, controller.MakeResolver(nullptr), options);
  for (const policy::ReachSpec& spec : Probes(controller)) {
    policy::ReachCheckResult a = on_kept.Check(spec);
    policy::ReachCheckResult b = on_fresh.Check(spec);
    EXPECT_EQ(a.satisfied, b.satisfied) << step << ": " << spec.ToString();
    EXPECT_EQ(a.explanation, b.explanation) << step << ": " << spec.ToString();
    EXPECT_EQ(a.engine_steps, b.engine_steps) << step << ": " << spec.ToString();
    EXPECT_EQ(a.paths_explored, b.paths_explored) << step << ": " << spec.ToString();
  }
}

void ExpectKeptEqualsFresh(const Controller& controller, const std::string& step) {
  std::string error;
  symexec::SymGraph fresh = controller.BuildVerificationGraph(nullptr, &error);
  ASSERT_TRUE(error.empty()) << step << ": " << error;
  EXPECT_EQ(controller.verification_graph().module_count(), controller.deployments().size())
      << step;
  ExpectSameGraph(controller.verification_graph().graph(), fresh, step);
  ExpectCommitOrderPorts(controller, step);
  ExpectSameVerdicts(controller, fresh, step);
}

struct Killed {
  ClientRequest request;
  std::string module_id;
  std::string platform;
  Ipv4Address addr;
};

// A controller that committed `controller`'s deployments afresh, in commit
// order, must index them the same way: every module id finds the same
// deployment, a killed one is found on both or on neither, and every address (on a
// shared one, the first deployment in commit order) resolves to the same
// nodes.
void ExpectSameIndexesAsRebuilt(const Controller& controller,
                                const std::vector<ClientRequest>& requests,
                                const std::vector<Killed>& killed,
                                const std::string& step) {
  Controller rebuilt(topology::Network::MakeFigure3());
  for (const Deployment& dep : controller.deployments()) {
    auto request = std::find_if(requests.begin(), requests.end(), [&](const ClientRequest& r) {
      return r.client_id == dep.client_id;
    });
    ASSERT_NE(request, requests.end()) << step << ", " << dep.module_id;
    std::string error;
    ASSERT_TRUE(
        rebuilt.RestoreDeployment(*request, dep.module_id, dep.platform, dep.addr, false, &error))
        << step << ", " << dep.module_id << ": " << error;
  }
  const Deployment* kept_base = controller.deployments().data();
  const Deployment* rebuilt_base = rebuilt.deployments().data();
  policy::NodeResolver kept_resolver = controller.MakeResolver(nullptr);
  policy::NodeResolver rebuilt_resolver = rebuilt.MakeResolver(nullptr);
  for (const Deployment& dep : controller.deployments()) {
    const Deployment* kept = controller.FindDeployment(dep.module_id);
    const Deployment* fresh = rebuilt.FindDeployment(dep.module_id);
    ASSERT_NE(kept, nullptr) << step << ", " << dep.module_id;
    ASSERT_NE(fresh, nullptr) << step << ", " << dep.module_id;
    EXPECT_EQ(kept - kept_base, fresh - rebuilt_base) << step << ", " << dep.module_id;
    const std::string addr = dep.addr.ToString();
    EXPECT_EQ(kept_resolver(addr), rebuilt_resolver(addr)) << step << ", " << addr;
  }
  for (const Killed& k : killed) {
    EXPECT_EQ(controller.FindDeployment(k.module_id) == nullptr,
              rebuilt.FindDeployment(k.module_id) == nullptr)
        << step << ", " << k.module_id;
    const std::string addr = k.addr.ToString();
    EXPECT_EQ(kept_resolver(addr), rebuilt_resolver(addr)) << step << ", " << addr;
  }
}

// What the sequences did, so the test can tell they covered every kind of
// operation.
struct Coverage {
  int accepted = 0;
  int rejected = 0;
  int kills[3] = {0, 0, 0};  // of the first, a middle and the last deployment
  int restores = 0;
  int failed_platforms = 0;
};

void RunSequence(uint64_t seed, Coverage* coverage) {
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  sim::Rng rng(seed);
  std::vector<ClientRequest> requests;  // every accepted one, found again by client id
  std::vector<Killed> killed;
  static const Shape kShapes[] = {Shape::kBatcher, Shape::kSelfRewrite, Shape::kDns,
                                  Shape::kSpoof,   Shape::kUnreachable, Shape::kPinned};

  for (int op = 0; op < 60; ++op) {
    std::string step = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    uint64_t kind = rng.NextBelow(10);
    const std::vector<Deployment>& deps = controller.deployments();
    if (kind < 5 || deps.size() < 2) {
      Shape shape = kShapes[rng.NextBelow(6)];
      ClientRequest request = MakeRequest(shape, op);
      DeployOutcome outcome = controller.Deploy(request);
      step += " deploy " + request.client_id + ": " + outcome.reason;
      if (outcome.accepted) {
        ++coverage->accepted;
        requests.push_back(request);
      } else {
        ++coverage->rejected;
      }
      if (shape == Shape::kSpoof || shape == Shape::kUnreachable) {
        EXPECT_FALSE(outcome.accepted) << step;
      }
    } else if (kind < 8) {
      // Kill the first, a middle or the last deployment.
      size_t which = rng.NextBelow(3);
      size_t index = which == 0 ? 0 : which == 1 ? deps.size() / 2 : deps.size() - 1;
      ++coverage->kills[which];
      const Deployment& dep = deps[index];
      Killed record{{}, dep.module_id, dep.platform, dep.addr};
      for (const ClientRequest& request : requests) {
        if (request.client_id == dep.client_id) {
          record.request = request;
        }
      }
      step += " kill " + dep.module_id;
      ASSERT_TRUE(controller.Kill(record.module_id)) << step;
      killed.push_back(std::move(record));
      ExpectSameIndexesAsRebuilt(controller, requests, killed, step);
    } else if (kind == 8 && !killed.empty()) {
      Killed record = killed[rng.NextBelow(killed.size())];
      bool reverify = rng.Bernoulli(0.5);
      std::string error;
      bool ok = controller.RestoreDeployment(record.request, record.module_id, record.platform,
                                             record.addr, reverify, &error);
      step += " restore " + record.module_id + (ok ? "" : ": " + error);
      coverage->restores += ok ? 1 : 0;
    } else {
      const std::string platform = "platform" + std::to_string(1 + rng.NextBelow(3));
      if (controller.IsPlatformFailed(platform)) {
        controller.RestorePlatform(platform);
        step += " restore platform " + platform;
      } else {
        controller.MarkPlatformFailed(platform);
        ++coverage->failed_platforms;
        step += " fail platform " + platform;
      }
    }
    ExpectKeptEqualsFresh(controller, step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(VerificationGraph, KeptGraphEqualsFreshBuildAfterEveryStep) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 8 && !HasFatalFailure(); ++seed) {
    RunSequence(seed, &coverage);
  }
  EXPECT_GT(coverage.accepted, 0);
  EXPECT_GT(coverage.rejected, 0);
  EXPECT_GT(coverage.kills[0], 0);
  EXPECT_GT(coverage.kills[1], 0);
  EXPECT_GT(coverage.kills[2], 0);
  EXPECT_GT(coverage.restores, 0);
  EXPECT_GT(coverage.failed_platforms, 0);
}

// Kills of the first, a middle and the last deployment, each of which
// opened a pinhole, in a fixed order; then a restore.
TEST(VerificationGraph, KillsAtEveryPositionKeepTheFreshNumbering) {
  Controller controller(topology::Network::MakeFigure3());
  ASSERT_TRUE(controller.AddOperatorPolicy(kOperatorPolicy));
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    DeployOutcome outcome = controller.Deploy(MakeRequest(Shape::kPinned, i));
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    ASSERT_FALSE(controller.FindDeployment(outcome.module_id)->pinholes->empty());
    ids.push_back(outcome.module_id);
  }
  ExpectKeptEqualsFresh(controller, "five deployed");
  const Deployment middle = *controller.FindDeployment(ids[2]);
  for (const std::string& id : {ids[0], ids[2], ids[4]}) {
    ASSERT_TRUE(controller.Kill(id));
    ExpectKeptEqualsFresh(controller, "killed " + id);
  }
  std::string error;
  ASSERT_TRUE(controller.RestoreDeployment(MakeRequest(Shape::kPinned, 2), middle.module_id,
                                           middle.platform, middle.addr, true, &error))
      << error;
  ExpectKeptEqualsFresh(controller, "restored " + middle.module_id);
  EXPECT_EQ(controller.deployments().back().module_id, middle.module_id);
}

// A $SELF module rejected on its first candidate and placed on its second
// is compiled for each: the committed config, and the path digest read from
// its exploration, are those of the second candidate's address.
TEST(VerificationGraph, SelfModuleCarriesTheAddressItWasPlacedAt) {
  ClientRequest request = MakeRequest(Shape::kSelfRewrite, 0);
  // platform1 sits behind the NAT, so the Internet cannot reach a module
  // there; platform3 faces the border router.
  {
    Controller alone(topology::Network::MakeFigure3());
    DeployOutcome outcome = alone.Deploy(request, {"platform1"});
    ASSERT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reason.rfind("on platform1: ", 0), 0u) << outcome.reason;
  }
  Controller controller(topology::Network::MakeFigure3());
  DeployOutcome outcome = controller.Deploy(request, {"platform1", "platform3"});
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  ASSERT_EQ(outcome.platform, "platform3");
  const Deployment* dep = controller.FindDeployment(outcome.module_id);
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->config_text, SubstituteSelf(request.click_config, outcome.module_addr));
  EXPECT_NE(dep->config_text.find(outcome.module_addr.ToString()), std::string::npos);
  EXPECT_EQ(dep->config_text.find("192.168.1."), std::string::npos);
  ASSERT_EQ(dep->config.elements.size(), 4u);
  EXPECT_NE(dep->config.elements[2].args.find(outcome.module_addr.ToString()),
            std::string::npos);

  std::string error;
  auto config = click::ConfigGraph::Parse(dep->config_text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto exploration = symexec::ExploreModule(*config, &error);
  ASSERT_TRUE(exploration.has_value()) << error;
  EXPECT_EQ(dep->path_digest, symexec::ComputePathDigest(*config, *exploration).Encode());
  ExpectKeptEqualsFresh(controller, "placed on the second candidate");
}

}  // namespace
}  // namespace innet::controller
