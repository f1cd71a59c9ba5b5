#include <gtest/gtest.h>

#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/topology/network.h"

namespace innet::policy {
namespace {

using topology::Network;
using topology::Node;
using topology::NodeKind;

// --- ReachSpec parsing ---------------------------------------------------------------

TEST(ReachSpec, ParsesSimpleStatement) {
  std::string error;
  auto spec = ReachSpec::Parse("reach from internet udp -> client dst port 1500", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->from.spec, "internet");
  EXPECT_EQ(*spec->from.flow.proto(), kProtoUdp);
  ASSERT_EQ(spec->waypoints.size(), 1u);
  EXPECT_EQ(spec->waypoints[0].spec, "client");
  ASSERT_EQ(spec->waypoints[0].flow.port_predicates().size(), 1u);
  EXPECT_EQ(spec->waypoints[0].flow.port_predicates()[0].lo, 1500);
}

TEST(ReachSpec, ParsesPaperFigure4Statement) {
  std::string error;
  auto spec = ReachSpec::Parse(
      "reach from internet udp "
      "-> batcher:dst:0 dst 172.16.15.133 "
      "-> client dst port 1500 "
      "const proto && dst port && payload",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->waypoints.size(), 2u);
  EXPECT_EQ(spec->waypoints[0].spec, "batcher:dst:0");
  EXPECT_EQ(spec->waypoints[0].flow.addr_predicates().size(), 1u);
  ASSERT_EQ(spec->waypoints[1].const_fields.size(), 3u);
  EXPECT_EQ(spec->waypoints[1].const_fields[0], HeaderField::kProto);
  EXPECT_EQ(spec->waypoints[1].const_fields[1], HeaderField::kDstPort);
  EXPECT_EQ(spec->waypoints[1].const_fields[2], HeaderField::kPayload);
}

TEST(ReachSpec, ParsesMultiWaypoint) {
  std::string error;
  auto spec = ReachSpec::Parse(
      "reach from internet tcp src port 80 -> http_optimizer -> client", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->waypoints.size(), 2u);
  EXPECT_EQ(spec->waypoints[0].spec, "http_optimizer");
}

TEST(ReachSpec, RejectsMissingParts) {
  std::string error;
  EXPECT_FALSE(ReachSpec::Parse("from internet -> client", &error).has_value());
  EXPECT_FALSE(ReachSpec::Parse("reach internet -> client", &error).has_value());
  EXPECT_FALSE(ReachSpec::Parse("reach from internet", &error).has_value());
  EXPECT_FALSE(ReachSpec::Parse("reach from internet const proto -> x", &error).has_value());
  EXPECT_FALSE(
      ReachSpec::Parse("reach from internet -> client const bogusfield", &error).has_value());
}

TEST(ReachSpec, ToStringRoundTrips) {
  std::string error;
  auto spec = ReachSpec::Parse(
      "reach from internet udp -> client dst port 1500 const proto && payload", &error);
  ASSERT_TRUE(spec.has_value());
  auto again = ReachSpec::Parse(spec->ToString(), &error);
  ASSERT_TRUE(again.has_value()) << error << " [" << spec->ToString() << "]";
  EXPECT_EQ(again->waypoints.size(), spec->waypoints.size());
  EXPECT_EQ(again->waypoints[0].const_fields, spec->waypoints[0].const_fields);
}

TEST(SplitReachStatements, SplitsOnKeyword) {
  auto statements = SplitReachStatements(
      "reach from internet udp -> client\n"
      "reach from client -> internet");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[0], "reach from internet udp -> client");
  EXPECT_EQ(statements[1], "reach from client -> internet");
}

// --- Reach checking on the Figure 3 topology -------------------------------------------

class Figure3Check : public ::testing::Test {
 protected:
  Figure3Check() : network_(Network::MakeFigure3()), graph_(network_.BuildSymGraph()) {}

  NodeResolver Resolver() {
    return [this](const std::string& spec) -> std::vector<std::string> {
      if (spec == "internet") {
        return {"internet"};
      }
      if (spec == "client" || spec == "clients") {
        return {"clients"};
      }
      if (auto addr = Ipv4Address::Parse(spec)) {
        if (const Node* owner = network_.OwnerOf(*addr)) {
          return {owner->name};
        }
        return {};
      }
      if (network_.Find(spec) != nullptr) {
        return {spec};
      }
      return {};
    };
  }

  ReachCheckResult Check(const std::string& statement) {
    std::string error;
    auto spec = ReachSpec::Parse(statement, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    ReachChecker checker(&graph_, Resolver());
    return checker.Check(*spec);
  }

  Network network_;
  symexec::SymGraph graph_;
};

TEST_F(Figure3Check, ClientCanReachInternetOverUdp) {
  // Outbound UDP passes the stateful firewall.
  EXPECT_TRUE(Check("reach from client udp -> internet").satisfied);
}

TEST_F(Figure3Check, InternetCannotInitiateToClients) {
  // Inbound traffic without prior outbound state is dropped by the firewall —
  // except HTTP responses, which the border policy-routes via the cache path.
  EXPECT_FALSE(Check("reach from internet udp -> client").satisfied);
}

TEST_F(Figure3Check, InboundHttpReachesClientsViaOptimizer) {
  auto result = Check("reach from internet tcp src port 80 -> http_optimizer -> client");
  EXPECT_TRUE(result.satisfied) << result.explanation;
}

TEST_F(Figure3Check, InboundHttpAlsoPassesWebCache) {
  auto result =
      Check("reach from internet tcp src port 80 -> web_cache -> http_optimizer -> client");
  EXPECT_TRUE(result.satisfied) << result.explanation;
}

TEST_F(Figure3Check, WrongWaypointOrderFails) {
  auto result =
      Check("reach from internet tcp src port 80 -> http_optimizer -> web_cache -> client");
  EXPECT_FALSE(result.satisfied);
}

TEST_F(Figure3Check, OptimizerMayRewriteHttpPayload) {
  // HTTP payload is NOT invariant across the optimizer path...
  auto rewritten =
      Check("reach from internet tcp src port 80 -> client const payload");
  EXPECT_FALSE(rewritten.satisfied);
  // ...but non-HTTP UDP from the client outward keeps its payload (Figure 1's
  // tunnel-over-UDP use case).
  auto kept = Check("reach from client udp -> internet const payload");
  EXPECT_TRUE(kept.satisfied) << kept.explanation;
}

TEST_F(Figure3Check, ClientHttpToInternetViaNatPath) {
  EXPECT_TRUE(Check("reach from client tcp -> internet").satisfied);
}

TEST_F(Figure3Check, IcmpBlockedOutbound) {
  // The stateful firewall only allows TCP and UDP outbound.
  EXPECT_FALSE(Check("reach from client icmp -> internet").satisfied);
}

TEST_F(Figure3Check, UnresolvableNodeFails) {
  auto result = Check("reach from mars -> client");
  EXPECT_FALSE(result.satisfied);
  EXPECT_NE(result.explanation.find("unresolvable"), std::string::npos);
}

// --- Recursive waypoint matching on hand-built graphs -------------------------------

class HandGraphCheck : public ::testing::Test {
 protected:
  // a -> b -> c -> b -> d (b visited twice; 'b' rewrites dst port to 80 on
  // the second visit via a port-sensitive lambda model).
  HandGraphCheck() {
    using symexec::LambdaModel;
    using symexec::ModelContext;
    using symexec::SymbolicPacket;
    using symexec::Transitions;
    int a = graph_.AddNode("a", std::make_shared<symexec::PassthroughModel>());
    int b = graph_.AddNode(
        "b", std::make_shared<LambdaModel>(
                 [](ModelContext*, const SymbolicPacket& p, int in_port, Transitions* out) {
                   SymbolicPacket next = p;
                   if (in_port == 1) {  // second visit: rewrite
                     next.SetConst(HeaderField::kDstPort, 80);
                   }
                   out->push_back({in_port, std::move(next)});
                 }));
    int c = graph_.AddNode("c", std::make_shared<symexec::PassthroughModel>());
    int d = graph_.AddNode("d", std::make_shared<symexec::SinkModel>());
    graph_.Connect(a, 0, b, 0);
    graph_.Connect(b, 0, c, 0);
    graph_.Connect(c, 0, b, 1);
    graph_.Connect(b, 1, d, 0);
  }

  ReachCheckResult Check(const std::string& statement) {
    std::string error;
    auto spec = ReachSpec::Parse(statement, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    NodeResolver resolver = [](const std::string& name) -> std::vector<std::string> {
      return {name};
    };
    ReachChecker checker(&graph_, resolver);
    return checker.Check(*spec);
  }

  symexec::SymGraph graph_;
};

TEST_F(HandGraphCheck, RevisitedNodeMatchesAtEitherVisit) {
  // 'b' appears twice; with the ingress pinned to port 9999, only the second
  // visit (after the rewrite) can match "dst port 80" — the matcher must try
  // both occurrences.
  EXPECT_TRUE(Check("reach from a dst port 9999 -> b dst port 80 -> d").satisfied);
  // As the FIRST of two b-waypoints, the port-80 visit leaves no later 'b'
  // for the second waypoint.
  EXPECT_FALSE(Check("reach from a dst port 9999 -> b dst port 80 -> b -> d").satisfied);
  // In the other order it works: first visit (port 9999), second (port 80).
  EXPECT_TRUE(Check("reach from a dst port 9999 -> b -> b dst port 80 -> d").satisfied);
  // Without pinning the ingress, a flow that arrived on port 80 matches the
  // first visit too — "exists" semantics.
  EXPECT_TRUE(Check("reach from a -> b dst port 80 -> b -> d").satisfied);
}

TEST_F(HandGraphCheck, ConstAnchorsAtThePreviousWaypoint) {
  // dst port is rewritten between the first and second 'b' visit: invariant
  // from a to d fails, but from the second b to d holds.
  EXPECT_FALSE(Check("reach from a -> d const dst port").satisfied);
  EXPECT_TRUE(Check("reach from a -> b dst port 80 -> d const dst port").satisfied);
  // Payload is never touched anywhere.
  EXPECT_TRUE(Check("reach from a -> d const payload").satisfied);
}

TEST_F(HandGraphCheck, WaypointOrderIsEnforced) {
  EXPECT_TRUE(Check("reach from a -> c -> d").satisfied);
  EXPECT_FALSE(Check("reach from a -> d -> c").satisfied);
}

// --- Scaling topology -----------------------------------------------------------------

TEST(ScalingTopology, ReachWorksAcrossChain) {
  Network net = Network::MakeScalingTopology(15);
  symexec::SymGraph graph = net.BuildSymGraph();
  NodeResolver resolver = [&net](const std::string& spec) -> std::vector<std::string> {
    if (spec == "internet") {
      return {"internet"};
    }
    if (spec == "client") {
      return {"clients"};
    }
    if (net.Find(spec) != nullptr) {
      return {spec};
    }
    return {};
  };
  std::string error;
  auto spec = ReachSpec::Parse("reach from internet udp -> client", &error);
  ASSERT_TRUE(spec.has_value());
  ReachChecker checker(&graph, resolver);
  auto result = checker.Check(*spec);
  EXPECT_TRUE(result.satisfied) << result.explanation;
  EXPECT_GT(result.engine_steps, 15u);  // traversed the whole chain
}

TEST(ScalingTopology, StepsGrowLinearly) {
  // The core scaling property behind Figure 10: work grows linearly with the
  // middlebox count for a fixed (protocol-constrained) query.
  uint64_t steps_small = 0;
  uint64_t steps_large = 0;
  for (int size : {16, 64}) {
    Network net = Network::MakeScalingTopology(size);
    symexec::SymGraph graph = net.BuildSymGraph();
    NodeResolver resolver = [&net](const std::string& spec) -> std::vector<std::string> {
      if (spec == "internet") {
        return {"internet"};
      }
      if (spec == "client") {
        return {"clients"};
      }
      return {};
    };
    std::string error;
    auto spec = ReachSpec::Parse("reach from internet udp -> client", &error);
    ReachChecker checker(&graph, resolver);
    auto result = checker.Check(*spec);
    EXPECT_TRUE(result.satisfied);
    (size == 16 ? steps_small : steps_large) = result.engine_steps;
  }
  // 4x the middleboxes should cost roughly 4x the steps — allow 2x-8x.
  EXPECT_GT(steps_large, steps_small * 2);
  EXPECT_LT(steps_large, steps_small * 8);
}

}  // namespace
}  // namespace innet::policy
