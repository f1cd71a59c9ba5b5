#include <gtest/gtest.h>

#include "src/click/elements.h"
#include "src/click/elements_switching.h"
#include "src/click/graph.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"

namespace innet::click {
namespace {

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport,
           size_t payload = 32) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         payload);
}

// --- Paint / PaintSwitch -----------------------------------------------------------

TEST(Paint, ColorsAndSwitches) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront();"
      "a :: ToNetfront(); b :: ToNetfront();"
      "ps :: PaintSwitch(2);"
      "src -> Paint(1) -> ps; ps[0] -> a; ps[1] -> b;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 0u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 1u);
}

TEST(Paint, OutOfRangeColorDropped) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); a :: ToNetfront(); ps :: PaintSwitch(2);"
      "src -> Paint(7) -> ps; ps[0] -> a;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 0u);
}

TEST(Paint, RejectsBadColor) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: Paint(300);", &error), nullptr);
  EXPECT_EQ(Graph::FromText("a :: Paint(x);", &error), nullptr);
}

// --- RoundRobinSwitch / HashSwitch ---------------------------------------------------

TEST(RoundRobinSwitch, RotatesEvenly) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); rr :: RoundRobinSwitch(3);"
      "a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront();"
      "src -> rr; rr[0] -> a; rr[1] -> b; rr[2] -> c;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  for (int i = 0; i < 9; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
    graph->InjectAtSource(p);
  }
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 3u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 3u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("c")->packet_count(), 3u);
}

TEST(HashSwitch, FlowsStickToOneOutput) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); hs :: HashSwitch(4);"
      "a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront(); d :: ToNetfront();"
      "src -> hs; hs[0] -> a; hs[1] -> b; hs[2] -> c; hs[3] -> d;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  // Same 5-tuple ten times: exactly one sink sees all ten.
  for (int i = 0; i < 10; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1234, 80);
    graph->InjectAtSource(p);
  }
  int sinks_with_traffic = 0;
  for (const char* name : {"a", "b", "c", "d"}) {
    uint64_t count = graph->FindAs<ToNetfront>(name)->packet_count();
    EXPECT_TRUE(count == 0 || count == 10) << name;
    sinks_with_traffic += count > 0 ? 1 : 0;
  }
  EXPECT_EQ(sinks_with_traffic, 1);
}

TEST(HashSwitch, DistinctFlowsSpread) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); hs :: HashSwitch(4);"
      "a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront(); d :: ToNetfront();"
      "src -> hs; hs[0] -> a; hs[1] -> b; hs[2] -> c; hs[3] -> d;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  for (uint16_t port = 0; port < 64; ++port) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", static_cast<uint16_t>(1000 + port), 80);
    graph->InjectAtSource(p);
  }
  int sinks_with_traffic = 0;
  for (const char* name : {"a", "b", "c", "d"}) {
    sinks_with_traffic += graph->FindAs<ToNetfront>(name)->packet_count() > 0 ? 1 : 0;
  }
  EXPECT_GE(sinks_with_traffic, 3);  // 64 flows over 4 buckets: near-certain spread
}

// --- RandomSample -----------------------------------------------------------------------

TEST(RandomSample, ApproximatesProbability) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); rs :: RandomSample(0.25);"
      "hit :: ToNetfront(); rest :: ToNetfront();"
      "src -> rs; rs[0] -> hit; rs[1] -> rest;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
    graph->InjectAtSource(p);
  }
  auto* hit = graph->FindAs<ToNetfront>("hit");
  auto* rest = graph->FindAs<ToNetfront>("rest");
  EXPECT_EQ(hit->packet_count() + rest->packet_count(), static_cast<uint64_t>(n));
  EXPECT_NEAR(static_cast<double>(hit->packet_count()) / n, 0.25, 0.02);
}

TEST(RandomSample, RejectsBadProbability) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: RandomSample(1.5);", &error), nullptr);
  EXPECT_EQ(Graph::FromText("a :: RandomSample();", &error), nullptr);
}

// --- SetTTL / ICMPPingResponder ------------------------------------------------------------

TEST(SetTTL, Rewrites) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> SetTTL(7) -> sink;", &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(observed.ttl(), 7);
  EXPECT_TRUE(observed.VerifyIpChecksum());
}

TEST(ICMPPingResponder, EchoesWithSwappedAddresses) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); ping :: ICMPPingResponder(); sink :: ToNetfront();"
      "src -> ping -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet echo = Packet::MakeIcmpEcho(Ipv4Address::MustParse("10.0.0.1"),
                                     Ipv4Address::MustParse("172.16.3.10"), 5, 2);
  graph->InjectAtSource(echo);
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("10.0.0.1"));
  EXPECT_EQ(graph->FindAs<ICMPPingResponder>("ping")->echo_count(), 1u);

  Packet not_icmp = Udp("10.0.0.1", "172.16.3.10", 1, 2);
  graph->InjectAtSource(not_icmp);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

// --- ExplicitProxy ---------------------------------------------------------------------------

TEST(ExplicitProxy, FetchesParsedTargetAsItself) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); proxy :: ExplicitProxy(SELF 172.16.3.10);"
      "sink :: ToNetfront(); src -> proxy -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet request = Packet::MakeTcp(Ipv4Address::MustParse("10.10.0.5"),
                                   Ipv4Address::MustParse("172.16.3.10"), 5000, 3128, 0, 64);
  request.SetPayload("CONNECT 93.184.216.34:443");
  graph->InjectAtSource(request);
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("93.184.216.34"));
  EXPECT_EQ(observed.dst_port(), 443);
}

TEST(ExplicitProxy, DropsMalformedRequests) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); proxy :: ExplicitProxy(SELF 172.16.3.10);"
      "sink :: ToNetfront(); src -> proxy -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  auto* proxy = graph->FindAs<ExplicitProxy>("proxy");
  const char* bad_payloads[] = {"GET / HTTP/1.1", "CONNECT nonsense", "CONNECT 1.2.3.4",
                                "CONNECT 1.2.3.4:0"};
  for (const char* payload : bad_payloads) {
    Packet p = Packet::MakeTcp(Ipv4Address::MustParse("10.10.0.5"),
                               Ipv4Address::MustParse("172.16.3.10"), 5000, 3128, 0, 64);
    p.SetPayload(payload);
    graph->InjectAtSource(p);
  }
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 0u);
  EXPECT_EQ(proxy->malformed_count(), 4u);
}

// --- AddressDemux ------------------------------------------------------------------------------

TEST(AddressDemux, ExactMatchRouting) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); dm :: AddressDemux(172.16.0.10, 172.16.0.11);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> dm; dm[0] -> a; dm[1] -> b;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet to_a = Udp("9.9.9.9", "172.16.0.10", 1, 2);
  Packet to_b = Udp("9.9.9.9", "172.16.0.11", 1, 2);
  Packet to_nobody = Udp("9.9.9.9", "172.16.0.12", 1, 2);
  graph->InjectAtSource(to_a);
  graph->InjectAtSource(to_b);
  graph->InjectAtSource(to_nobody);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<AddressDemux>("dm")->drops(), 1u);
}

TEST(AddressDemux, RepeatedAddressKeepsFirstOutputLikeModel) {
  // The model is a first-match classifier, so the runtime must send a
  // repeated address out of its first output too.
  const std::string text =
      "src :: FromNetfront(); dm :: AddressDemux(172.16.0.10, 172.16.0.10);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> dm; dm[0] -> a; dm[1] -> b;";
  std::string error;
  auto graph = Graph::FromText(text, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("9.9.9.9", "172.16.0.10", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 0u);

  auto config = ConfigGraph::Parse(text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::Engine engine;
  auto result = engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].delivered_at(), "a");
}

TEST(AddressDemux, RejectsEmptyAndMalformed) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: AddressDemux();", &error), nullptr);
  EXPECT_EQ(Graph::FromText("a :: AddressDemux(1.2.3);", &error), nullptr);
}

TEST(AddressDemux, ModelSplitsByDestination) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "src :: FromNetfront(); dm :: AddressDemux(172.16.0.10, 172.16.0.11);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> dm; dm[0] -> a; dm[1] -> b;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::Engine engine;
  auto result = engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  ASSERT_EQ(result.delivered.size(), 2u);
  for (const auto& p : result.delivered) {
    auto dst = p.PossibleValues(HeaderField::kIpDst);
    ASSERT_TRUE(dst.IsSingle());
    if (p.delivered_at() == "a") {
      EXPECT_EQ(dst.SingleValue(), Ipv4Address::MustParse("172.16.0.10").value());
    } else {
      EXPECT_EQ(dst.SingleValue(), Ipv4Address::MustParse("172.16.0.11").value());
    }
  }
}

// --- Symbolic models for the new elements -----------------------------------------------------

TEST(SwitchingModels, PaintSwitchConstrains) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "src :: FromNetfront(); ps :: PaintSwitch(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> Paint(1) -> ps; ps[0] -> a; ps[1] -> b;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::Engine engine;
  auto result = engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  // Paint(1) makes only the color-1 branch feasible.
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].delivered_at(), "b");
}

TEST(SwitchingModels, HashSwitchKeepsAllBranchesLive) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "src :: FromNetfront(); hs :: HashSwitch(3);"
      "a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront();"
      "src -> hs; hs[0] -> a; hs[1] -> b; hs[2] -> c;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::Engine engine;
  auto result = engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_EQ(result.delivered.size(), 3u);  // sound over-approximation
}

TEST(SwitchingModels, ExplicitProxyIsOpaqueDestination) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "FromNetfront() -> ExplicitProxy(SELF 172.16.3.10) -> ToNetfront();", &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto model = symexec::BuildClickModel(*config, &error);
  ASSERT_TRUE(model.has_value()) << error;
  symexec::Engine engine;
  auto result = engine.Run(*model, model->FindNode(symexec::ModuleSources(*config)[0]),
                           symexec::kPortInject,
                           symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  ASSERT_EQ(result.delivered.size(), 1u);
  const auto& p = result.delivered[0];
  EXPECT_TRUE(p.value(HeaderField::kIpSrc).is_const);
  EXPECT_FALSE(p.value(HeaderField::kIpDst).is_const);
  EXPECT_NE(p.value(HeaderField::kIpDst).var, p.ingress_var(HeaderField::kIpDst));
}

}  // namespace
}  // namespace innet::click
