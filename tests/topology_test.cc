#include <gtest/gtest.h>

#include "src/symexec/engine.h"
#include "src/topology/network.h"

namespace innet::topology {
namespace {

using symexec::Engine;
using symexec::kPortInject;
using symexec::SymbolicPacket;

// --- Graph construction ---------------------------------------------------------

TEST(Network, AddNodeRejectsDuplicates) {
  Network net;
  Node a;
  a.name = "a";
  EXPECT_TRUE(net.AddNode(a));
  EXPECT_FALSE(net.AddNode(a));
}

TEST(Network, LinksAssignPortsInOrder) {
  Network net;
  for (const char* name : {"a", "b", "c"}) {
    Node node;
    node.name = name;
    net.AddNode(node);
  }
  EXPECT_TRUE(net.AddLink("a", "b"));
  EXPECT_TRUE(net.AddLink("a", "c"));
  EXPECT_FALSE(net.AddLink("a", "missing"));
  EXPECT_EQ(net.PortOf("a", "b"), 0);
  EXPECT_EQ(net.PortOf("a", "c"), 1);
  EXPECT_EQ(net.PortOf("b", "a"), 0);
  EXPECT_EQ(net.PortOf("a", "nope"), -1);
}

TEST(Network, OwnerOfFindsSubnetAndPool) {
  Network net = Network::MakeFigure3();
  const Node* clients = net.OwnerOf(Ipv4Address::MustParse("10.10.3.4"));
  ASSERT_NE(clients, nullptr);
  EXPECT_EQ(clients->name, "clients");
  const Node* platform = net.OwnerOf(Ipv4Address::MustParse("172.16.3.99"));
  ASSERT_NE(platform, nullptr);
  EXPECT_EQ(platform->name, "platform3");
  EXPECT_EQ(net.OwnerOf(Ipv4Address::MustParse("8.8.8.8")), nullptr);
}

TEST(Network, Figure3Inventory) {
  Network net = Network::MakeFigure3();
  EXPECT_EQ(net.Platforms().size(), 3u);
  EXPECT_EQ(net.ClientSubnets().size(), 1u);
  EXPECT_NE(net.Find("nat_firewall"), nullptr);
  EXPECT_NE(net.Find("http_optimizer"), nullptr);
  EXPECT_NE(net.Find("web_cache"), nullptr);
  EXPECT_EQ(net.Find("no_such"), nullptr);
}

TEST(Network, MultiPopInventory) {
  Network net = Network::MakeMultiPop(5);
  EXPECT_EQ(net.Platforms().size(), 5u);
  EXPECT_EQ(net.ClientSubnets().size(), 5u);
  // Pools and subnets are disjoint across PoPs.
  for (int pop = 0; pop < 5; ++pop) {
    const Node* owner = net.OwnerOf(Ipv4Address(10, static_cast<uint8_t>(pop + 1), 1, 1));
    ASSERT_NE(owner, nullptr);
    EXPECT_EQ(owner->name, "clients" + std::to_string(pop));
  }
}

TEST(Network, HopDistanceSymmetric) {
  Network net = Network::MakeMultiPop(3);
  for (const char* a : {"internet", "core", "access1", "platform2"}) {
    for (const char* b : {"clients0", "platform1", "core"}) {
      EXPECT_EQ(net.HopDistance(a, b), net.HopDistance(b, a)) << a << " " << b;
    }
  }
}

// --- Symbolic node models ----------------------------------------------------------

// Helper: run an injection and collect names of delivery nodes.
std::vector<std::string> DeliveredAt(const Network& net, const std::string& from,
                                     const std::string& flow) {
  symexec::SymGraph graph = net.BuildSymGraph();
  Engine engine;
  SymbolicPacket seed = SymbolicPacket::MakeUnconstrained(engine.vars());
  std::vector<std::string> names;
  for (SymbolicPacket& branch : seed.ConstrainToFlowSpec(FlowSpec::MustParse(flow),
                                                         engine.vars())) {
    auto result = engine.Run(graph, graph.FindNode(from), kPortInject, std::move(branch));
    for (const SymbolicPacket& p : result.delivered) {
      names.push_back(p.delivered_at());
    }
  }
  return names;
}

TEST(NetworkModels, MultiPopClientsReachTheInternet) {
  Network net = Network::MakeMultiPop(2);
  auto delivered = DeliveredAt(net, "clients0", "udp");
  EXPECT_NE(std::find(delivered.begin(), delivered.end(), "internet"), delivered.end());
}

TEST(NetworkModels, MultiPopClientsReachOtherPops) {
  Network net = Network::MakeMultiPop(2);
  auto delivered = DeliveredAt(net, "clients0", "udp dst net 10.2.0.0/16");
  EXPECT_NE(std::find(delivered.begin(), delivered.end(), "clients1"), delivered.end());
}

TEST(NetworkModels, RouterNeverBouncesOutIngressPort) {
  // Traffic from the Internet to an unknown destination dies at the core
  // instead of reflecting back out (the default route equals the ingress).
  Network net = Network::MakeMultiPop(2);
  auto delivered = DeliveredAt(net, "internet", "udp dst net 99.0.0.0/8");
  EXPECT_TRUE(delivered.empty());
}

TEST(NetworkModels, ClientSubnetOnlyDeliversItsPrefix) {
  Network net = Network::MakeMultiPop(2);
  // dst in pop 1's subnet injected from the Internet: only clients1 delivers.
  auto delivered = DeliveredAt(net, "internet", "udp dst net 10.2.0.0/16");
  for (const std::string& name : delivered) {
    EXPECT_EQ(name, "clients1");
  }
  EXPECT_FALSE(delivered.empty());
}

TEST(NetworkModels, ScalingTopologySizeMatchesRequest) {
  for (int n : {1, 8, 64}) {
    Network net = Network::MakeScalingTopology(n);
    int middleboxes = 0;
    for (const Node& node : net.nodes()) {
      middleboxes += node.kind == NodeKind::kMiddlebox ? 1 : 0;
    }
    EXPECT_EQ(middleboxes, n);
    // The chain stays connected end to end.
    EXPECT_EQ(net.HopDistance("internet", "clients"), n + 2);
  }
}

TEST(NetworkModels, AttachmentsAffectPlatformModel) {
  Network net = Network::MakeMultiPop(1);
  Network::ModuleAttachment att;
  att.platform = "platform0";
  att.addr = Ipv4Address::MustParse("172.16.10.10");
  net.AttachModule(att);
  symexec::SymGraph graph = net.BuildSymGraph();

  // Traffic to the module address enters the platform's module port (wired
  // by the controller; here unconnected, so the packet parks as dropped
  // rather than delivered elsewhere).
  Engine engine;
  SymbolicPacket seed = SymbolicPacket::MakeUnconstrained(engine.vars());
  std::vector<SymbolicPacket> branches = seed.ConstrainToFlowSpec(
      FlowSpec::MustParse("udp dst host 172.16.10.10"), engine.vars());
  auto result =
      engine.Run(graph, graph.FindNode("internet"), kPortInject, std::move(branches[0]));
  EXPECT_TRUE(result.delivered.empty());
  bool reached_platform = false;
  for (const SymbolicPacket& p : result.dropped) {
    if (p.FindHop("platform0") >= 0) {
      reached_platform = true;
    }
  }
  EXPECT_TRUE(reached_platform);
}

}  // namespace
}  // namespace innet::topology
