#include <gtest/gtest.h>

#include "src/click/config_parser.h"
#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/click/registry.h"
#include "src/sim/event_queue.h"

namespace innet::click {
namespace {

Packet Udp(const char* src, const char* dst, uint16_t sport, uint16_t dport,
           size_t payload = 10) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         payload);
}

Packet Tcp(const char* src, const char* dst, uint16_t sport, uint16_t dport,
           uint8_t flags = 0) {
  return Packet::MakeTcp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                         flags, 10);
}

// --- Config parser ------------------------------------------------------------------

TEST(ConfigParser, ParsesDeclarationsAndChains) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "// a comment\n"
      "src :: FromNetfront();\n"
      "dst :: ToNetfront();\n"
      "src -> Counter() -> dst;\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->elements.size(), 3u);  // src, dst, anonymous Counter
  EXPECT_EQ(config->connections.size(), 2u);
}

TEST(ConfigParser, ParsesPaperFigure4) {
  // The batcher request from the paper, verbatim structure.
  std::string error;
  auto config = ConfigGraph::Parse(
      "FromNetfront() ->"
      "IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 172.16.15.133 - 0 0)"
      "-> TimedUnqueue(120,100)"
      "-> dst::ToNetfront();",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->elements.size(), 5u);
  ASSERT_NE(config->FindElement("dst"), nullptr);
  EXPECT_EQ(config->FindElement("dst")->class_name, "ToNetfront");
}

TEST(ConfigParser, ParsesExplicitPorts) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "c :: IPClassifier(udp, tcp);\n"
      "src :: FromNetfront();\n"
      "u :: ToNetfront(); t :: ToNetfront();\n"
      "src -> c;\n"
      "c[0] -> u;\n"
      "c[1] -> t;\n",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  bool found_port1 = false;
  for (const Connection& conn : config->connections) {
    if (conn.from == "c" && conn.from_port == 1) {
      EXPECT_EQ(conn.to, "t");
      found_port1 = true;
    }
  }
  EXPECT_TRUE(found_port1);
}

TEST(ConfigParser, RejectsDuplicateNames) {
  std::string error;
  EXPECT_FALSE(ConfigGraph::Parse("a :: Counter(); a :: Counter();", &error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(ConfigParser, RejectsUndeclaredReference) {
  std::string error;
  EXPECT_FALSE(ConfigGraph::Parse("nosuch -> alsonot;", &error).has_value());
}

TEST(ConfigParser, RejectsUnbalancedParens) {
  std::string error;
  EXPECT_FALSE(ConfigGraph::Parse("a :: IPFilter(allow udp;", &error).has_value());
}

TEST(ConfigParser, ToStringRoundTrips) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "src :: FromNetfront(); dst :: ToNetfront(); src -> Counter() -> dst;", &error);
  ASSERT_TRUE(config.has_value());
  auto again = ConfigGraph::Parse(config->ToString(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->elements.size(), config->elements.size());
  EXPECT_EQ(again->connections.size(), config->connections.size());
}

TEST(ConfigParser, ElementClassExpansion) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "elementclass SafeFw {"
      "  input -> IPFilter(allow udp dst port 1500) ->"
      "  IPRewriter(pattern - - 10.10.0.5 - 0 0) -> output;"
      "};"
      "src :: FromNetfront(); sink :: ToNetfront();"
      "fw :: SafeFw();"
      "src -> fw -> sink;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  // The compound got inlined: no 'fw' element remains, its internals do.
  EXPECT_EQ(config->FindElement("fw"), nullptr);
  bool found_filter = false;
  for (const ElementDecl& decl : config->elements) {
    if (decl.class_name == "IPFilter") {
      EXPECT_EQ(decl.name.rfind("fw.", 0), 0u) << decl.name;
      found_filter = true;
    }
  }
  EXPECT_TRUE(found_filter);

  // And it runs.
  auto graph = Graph::Build(*config, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet hit = Udp("8.8.8.8", "172.16.3.10", 40, 1500);
  Packet miss = Udp("8.8.8.8", "172.16.3.10", 40, 99);
  graph->InjectAtSource(hit);
  graph->InjectAtSource(miss);
  auto* sink = graph->FindAs<ToNetfront>("sink");
  ASSERT_EQ(sink->packet_count(), 1u);
}

TEST(ConfigParser, ElementClassMultiPort) {
  std::string error;
  auto config = ConfigGraph::Parse(
      "elementclass Split {"
      "  cls :: IPClassifier(udp, -);"
      "  input -> cls;"
      "  cls[0] -> [0]output;"
      "  cls[1] -> [1]output;"
      "};"
      "src :: FromNetfront(); u :: ToNetfront(); t :: ToNetfront();"
      "sp :: Split();"
      "src -> sp; sp[0] -> u; sp[1] -> t;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto graph = Graph::Build(*config, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet udp = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  Packet tcp = Tcp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(udp);
  graph->InjectAtSource(tcp);
  EXPECT_EQ(graph->FindAs<ToNetfront>("u")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("t")->packet_count(), 1u);
}

TEST(ConfigParser, ElementClassNestedUse) {
  // A compound using another compound expands recursively.
  std::string error;
  auto config = ConfigGraph::Parse(
      "elementclass Inner { input -> Counter() -> output; };"
      "elementclass Outer { input -> Inner() -> Inner() -> output; };"
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> Outer() -> sink;",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto graph = Graph::Build(*config, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
  int counters = 0;
  for (const auto& element : graph->elements()) {
    if (element->class_name() == "Counter") {
      EXPECT_EQ(dynamic_cast<Counter*>(element.get())->packet_count(), 1u);
      ++counters;
    }
  }
  EXPECT_EQ(counters, 2);
}

TEST(ConfigParser, ElementClassErrors) {
  std::string error;
  // Recursive compound: expansion depth limit trips.
  EXPECT_FALSE(ConfigGraph::Parse(
                   "elementclass Loop { input -> Loop() -> output; };"
                   "a :: FromNetfront(); b :: ToNetfront(); a -> Loop() -> b;",
                   &error)
                   .has_value());
  // Unterminated body.
  EXPECT_FALSE(ConfigGraph::Parse("elementclass X { input -> output;", &error).has_value());
  // Wiring input straight to output is unsupported.
  EXPECT_FALSE(ConfigGraph::Parse(
                   "elementclass Y { input -> output; };"
                   "a :: FromNetfront(); b :: ToNetfront(); a -> Y() -> b;",
                   &error)
                   .has_value());
  // Referencing a missing compound port.
  EXPECT_FALSE(ConfigGraph::Parse(
                   "elementclass Z { input -> Counter() -> output; };"
                   "a :: FromNetfront(); b :: ToNetfront(); z :: Z();"
                   "a -> [1]z; z -> b;",
                   &error)
                   .has_value());
  // Duplicate definition.
  EXPECT_FALSE(ConfigGraph::Parse(
                   "elementclass D { input -> Counter() -> output; };"
                   "elementclass D { input -> Counter() -> output; };",
                   &error)
                   .has_value());
}

TEST(ConfigParser, ElementClassSymbolicModels) {
  // Expanded compounds are plain elements, so the checker sees through them.
  std::string error;
  auto config = ConfigGraph::Parse(
      "elementclass SafeFw {"
      "  input -> IPFilter(allow udp dst port 1500) ->"
      "  IPRewriter(pattern - - 10.10.0.5 - 0 0) -> output;"
      "};"
      "FromNetfront() -> SafeFw() -> ToNetfront();",
      &error);
  ASSERT_TRUE(config.has_value()) << error;
  for (const ElementDecl& decl : config->elements) {
    EXPECT_TRUE(Registry::Global().Contains(decl.class_name)) << decl.class_name;
  }
}

TEST(ConfigParser, BlockComments) {
  std::string error;
  auto config = ConfigGraph::Parse("/* hi\nthere */ a :: Counter();", &error);
  ASSERT_TRUE(config.has_value()) << error;
  EXPECT_EQ(config->elements.size(), 1u);
}

// --- Graph building -----------------------------------------------------------------

TEST(Graph, BuildsAndRoutesPackets) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> Counter() -> sink;", &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  auto* sink = graph->FindAs<ToNetfront>("sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->packet_count(), 1u);
}

TEST(Graph, RejectsUnknownClass) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: NoSuchElement();", &error), nullptr);
  EXPECT_NE(error.find("unknown element class"), std::string::npos);
}

TEST(Graph, RejectsOutOfRangePort) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: Counter(); b :: Counter(); a[3] -> b;", &error), nullptr);
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(Graph, RejectsDuplicateElementNames) {
  // Configs assembled without the parser must not reuse a name either.
  ConfigGraph config;
  config.elements.push_back({"a", "Counter", ""});
  config.elements.push_back({"b", "Counter", ""});
  config.elements.push_back({"a", "Discard", ""});
  config.connections.push_back({"a", 0, "b", 0});
  std::string error;
  EXPECT_EQ(Graph::Build(config, &error), nullptr);
  EXPECT_EQ(error, "duplicate element name 'a'");
}

TEST(Registry, KnowsAllDocumentedClasses) {
  const Registry& reg = Registry::Global();
  for (const char* name :
       {"FromNetfront", "ToNetfront", "IPFilter", "IPClassifier", "IPRewriter", "TimedUnqueue",
        "ChangeEnforcer", "FlowMeter", "RateLimiter", "ContentMatch", "UDPTunnelEncap",
        "UDPTunnelDecap", "LinearIPLookup", "NatRewriter", "DnsGeoServer", "ReverseProxy",
        "X86Vm", "TransparentProxy", "Tee", "Counter", "Discard", "SetIPSrc", "SetIPDst",
        "DecIPTTL", "CheckIPHeader", "Queue"}) {
    EXPECT_TRUE(reg.Contains(name)) << name;
  }
}

// --- IPFilter -----------------------------------------------------------------------

TEST(IPFilter, AllowRuleForwardsMatch) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> IPFilter(allow udp dst port 1500) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet hit = Udp("1.1.1.1", "2.2.2.2", 99, 1500);
  Packet miss = Udp("1.1.1.1", "2.2.2.2", 99, 1501);
  graph->InjectAtSource(hit);
  graph->InjectAtSource(miss);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

TEST(IPFilter, DenyThenAllow) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> IPFilter(deny src net 10.0.0.0/8, allow all) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet denied = Udp("10.1.1.1", "2.2.2.2", 1, 2);
  Packet allowed = Udp("8.8.8.8", "2.2.2.2", 1, 2);
  graph->InjectAtSource(denied);
  graph->InjectAtSource(allowed);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

TEST(IPFilter, DefaultDeny) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> IPFilter(allow tcp) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr);
  Packet udp = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(udp);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 0u);
}

TEST(IPFilter, RejectsBadRule) {
  std::string error;
  EXPECT_EQ(Graph::FromText("a :: IPFilter(frobnicate udp);", &error), nullptr);
}

// --- IPClassifier --------------------------------------------------------------------

TEST(IPClassifier, FirstMatchWins) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront();"
      "cls :: IPClassifier(udp dst port 53, udp, -);"
      "src -> cls; cls[0] -> a; cls[1] -> b; cls[2] -> c;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet dns = Udp("1.1.1.1", "2.2.2.2", 9, 53);
  Packet other_udp = Udp("1.1.1.1", "2.2.2.2", 9, 99);
  Packet tcp = Tcp("1.1.1.1", "2.2.2.2", 9, 99);
  graph->InjectAtSource(dns);
  graph->InjectAtSource(other_udp);
  graph->InjectAtSource(tcp);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("c")->packet_count(), 1u);
}

// --- IPRewriter / SetIP -------------------------------------------------------------

TEST(IPRewriter, RewritesOnlyNonDashFields) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet p = Udp("9.9.9.9", "2.2.2.2", 42, 1500);
  graph->InjectAtSource(p);
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("172.16.15.133"));
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("9.9.9.9"));  // unchanged
  EXPECT_EQ(observed.dst_port(), 1500);                              // unchanged
  EXPECT_TRUE(observed.VerifyIpChecksum());
}

TEST(SetIPSrcDst, Rewrite) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> SetIPSrc(5.5.5.5) -> SetIPDst(6.6.6.6) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("5.5.5.5"));
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("6.6.6.6"));
}

TEST(DecIPTTL, DropsExpired) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> DecIPTTL() -> sink;", &error);
  ASSERT_NE(graph, nullptr);
  Packet ok = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  Packet dying = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  dying.set_ttl(1);
  graph->InjectAtSource(ok);
  graph->InjectAtSource(dying);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

TEST(CheckIPHeader, DropsCorrupted) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> CheckIPHeader() -> sink;", &error);
  ASSERT_NE(graph, nullptr);
  Packet good = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  Packet bad = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  bad.mutable_data()[kEthHeaderLen + 8] ^= 0x55;  // corrupt without refresh
  graph->InjectAtSource(good);
  graph->InjectAtSource(bad);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

// --- Tee ------------------------------------------------------------------------------

TEST(Tee, CopiesToAllOutputs) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); t :: Tee(3);"
      "a :: ToNetfront(); b :: ToNetfront(); c :: ToNetfront();"
      "src -> t; t[0] -> a; t[1] -> b; t[2] -> c;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("c")->packet_count(), 1u);
}

// --- TimedUnqueue ---------------------------------------------------------------------

TEST(TimedUnqueue, BatchesOnClock) {
  sim::EventQueue clock;
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> TimedUnqueue(2, 10) -> sink;",
      &error, &clock);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = graph->FindAs<ToNetfront>("sink");
  for (int i = 0; i < 5; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 1500);
    graph->InjectAtSource(p);
  }
  EXPECT_EQ(sink->packet_count(), 0u);  // held until the timer fires
  clock.RunUntil(sim::FromSeconds(1.9));
  EXPECT_EQ(sink->packet_count(), 0u);
  clock.RunUntil(sim::FromSeconds(2.1));
  EXPECT_EQ(sink->packet_count(), 5u);  // burst 10 >= queue
}

TEST(TimedUnqueue, RespectsBurst) {
  sim::EventQueue clock;
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront();"
      "src -> TimedUnqueue(1, 2) -> sink;",
      &error, &clock);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = graph->FindAs<ToNetfront>("sink");
  for (int i = 0; i < 5; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 1500);
    graph->InjectAtSource(p);
  }
  clock.RunUntil(sim::FromSeconds(1.1));
  EXPECT_EQ(sink->packet_count(), 2u);
  clock.RunUntil(sim::FromSeconds(2.1));
  EXPECT_EQ(sink->packet_count(), 4u);
  clock.RunUntil(sim::FromSeconds(3.1));
  EXPECT_EQ(sink->packet_count(), 5u);
}

TEST(TimedUnqueue, PassthroughWithoutClock) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); sink :: ToNetfront(); src -> TimedUnqueue(120,100) -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->InjectAtSource(p);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 1u);
}

// --- ChangeEnforcer (sandbox element) --------------------------------------------------

class ChangeEnforcerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    graph_ = Graph::FromText(
        "in :: FromNetfront(); back :: FromNetfront();"
        "enf :: ChangeEnforcer(ALLOW 7.7.7.7, TIMEOUT 60);"
        "to_module :: ToNetfront(); to_world :: ToNetfront();"
        "in -> enf; enf[0] -> to_module;"
        "back -> [1]enf; enf[1] -> to_world;",
        &error, &clock_);
    ASSERT_NE(graph_, nullptr) << error;
  }

  sim::EventQueue clock_;
  std::unique_ptr<Graph> graph_;
};

TEST_F(ChangeEnforcerTest, AllowsWhitelistedDestination) {
  Packet out = Udp("9.9.9.9", "7.7.7.7", 1, 2);
  graph_->Inject("back", out);
  EXPECT_EQ(graph_->FindAs<ToNetfront>("to_world")->packet_count(), 1u);
}

TEST_F(ChangeEnforcerTest, BlocksUnauthorizedDestination) {
  Packet out = Udp("9.9.9.9", "8.8.8.8", 1, 2);
  graph_->Inject("back", out);
  EXPECT_EQ(graph_->FindAs<ToNetfront>("to_world")->packet_count(), 0u);
}

TEST_F(ChangeEnforcerTest, ImplicitAuthorizationFromInbound) {
  Packet in = Udp("8.8.8.8", "172.16.3.10", 1, 2);
  graph_->Inject("in", in);
  EXPECT_EQ(graph_->FindAs<ToNetfront>("to_module")->packet_count(), 1u);
  // Now the module may respond to 8.8.8.8.
  Packet reply = Udp("172.16.3.10", "8.8.8.8", 2, 1);
  graph_->Inject("back", reply);
  EXPECT_EQ(graph_->FindAs<ToNetfront>("to_world")->packet_count(), 1u);
}

TEST_F(ChangeEnforcerTest, AuthorizationExpires) {
  Packet in = Udp("8.8.8.8", "172.16.3.10", 1, 2);
  graph_->Inject("in", in);
  clock_.RunUntil(sim::FromSeconds(61));  // past the 60 s timeout
  Packet reply = Udp("172.16.3.10", "8.8.8.8", 2, 1);
  graph_->Inject("back", reply);
  auto* enf = graph_->FindAs<ChangeEnforcer>("enf");
  EXPECT_EQ(graph_->FindAs<ToNetfront>("to_world")->packet_count(), 0u);
  EXPECT_EQ(enf->blocked_count(), 1u);
}

// --- FlowMeter / RateLimiter ------------------------------------------------------------

TEST(FlowMeter, CountsDistinctFlows) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); fm :: FlowMeter(); sink :: ToNetfront(); src -> fm -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  for (uint16_t port = 0; port < 10; ++port) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1000, static_cast<uint16_t>(5000 + port % 5));
    graph->InjectAtSource(p);
  }
  EXPECT_EQ(graph->FindAs<FlowMeter>("fm")->flow_count(), 5u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 10u);
}

TEST(RateLimiter, DropsAboveRate) {
  sim::EventQueue clock;
  std::string error;
  // 8000 bps = 1000 bytes/s; burst 100 bytes.
  auto graph = Graph::FromText(
      "src :: FromNetfront(); rl :: RateLimiter(8000, 100); sink :: ToNetfront();"
      "src -> rl -> sink;",
      &error, &clock);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = graph->FindAs<ToNetfront>("sink");
  // Two back-to-back ~52-byte packets fit the burst; the third does not.
  for (int i = 0; i < 3; ++i) {
    Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2, 10);
    graph->InjectAtSource(p);
  }
  EXPECT_EQ(sink->packet_count(), 1u);  // 52 bytes fits; second (104 total) does not
  clock.RunUntil(sim::FromSeconds(1));  // refill ~1000 bytes (capped at 100)
  Packet p = Udp("1.1.1.1", "2.2.2.2", 1, 2, 10);
  graph->InjectAtSource(p);
  EXPECT_EQ(sink->packet_count(), 2u);
}

// --- ContentMatch (DPI) ------------------------------------------------------------------

TEST(ContentMatch, SplitsOnPayload) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); clean :: ToNetfront(); alert :: ToNetfront();"
      "dpi :: ContentMatch(EVIL);"
      "src -> dpi; dpi[0] -> clean; dpi[1] -> alert;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet bad = Tcp("1.1.1.1", "2.2.2.2", 1, 80);
  bad.SetPayload("xxEVILxx");
  Packet good = Tcp("1.1.1.1", "2.2.2.2", 1, 80);
  good.SetPayload("harmless");
  graph->InjectAtSource(bad);
  graph->InjectAtSource(good);
  EXPECT_EQ(graph->FindAs<ToNetfront>("alert")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("clean")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ContentMatch>("dpi")->match_count(), 1u);
}

// --- Tunnels -------------------------------------------------------------------------------

TEST(UdpTunnel, EncapDecapRoundTrip) {
  std::string error;
  auto graph = Graph::FromText(
      "in :: FromNetfront(); out :: ToNetfront();"
      "in -> UDPTunnelEncap(3.3.3.3, 4.4.4.4, 4789) -> UDPTunnelDecap() -> out;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("out")->set_handler([&](Packet& p) { observed = p; });
  Packet inner = Udp("10.0.0.1", "10.0.0.2", 1111, 2222, 32);
  graph->Inject("in", inner);
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("10.0.0.1"));
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("10.0.0.2"));
  EXPECT_EQ(observed.src_port(), 1111);
  EXPECT_EQ(observed.dst_port(), 2222);
}

TEST(UdpTunnel, DecapDropsNonTunnelTraffic) {
  std::string error;
  auto graph = Graph::FromText(
      "in :: FromNetfront(); out :: ToNetfront(); in -> UDPTunnelDecap() -> out;", &error);
  ASSERT_NE(graph, nullptr);
  Packet tcp = Tcp("1.1.1.1", "2.2.2.2", 1, 2);
  graph->Inject("in", tcp);
  EXPECT_EQ(graph->FindAs<ToNetfront>("out")->packet_count(), 0u);
}

// --- LinearIPLookup --------------------------------------------------------------------------

TEST(LinearIPLookup, LongestPrefixWins) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); a :: ToNetfront(); b :: ToNetfront();"
      "rt :: LinearIPLookup(10.0.0.0/8 0, 10.5.0.0/16 1);"
      "src -> rt; rt[0] -> a; rt[1] -> b;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet to_wide = Udp("1.1.1.1", "10.9.9.9", 1, 2);
  Packet to_narrow = Udp("1.1.1.1", "10.5.1.1", 1, 2);
  Packet unrouted = Udp("1.1.1.1", "8.8.8.8", 1, 2);
  graph->InjectAtSource(to_wide);
  graph->InjectAtSource(to_narrow);
  graph->InjectAtSource(unrouted);
  EXPECT_EQ(graph->FindAs<ToNetfront>("a")->packet_count(), 1u);
  EXPECT_EQ(graph->FindAs<ToNetfront>("b")->packet_count(), 1u);
}

// --- NAT --------------------------------------------------------------------------------------

TEST(NatRewriter, OutboundAndReverseMapping) {
  std::string error;
  auto graph = Graph::FromText(
      "outb :: FromNetfront(); inb :: FromNetfront();"
      "nat :: NatRewriter(PUBLIC 100.64.0.1);"
      "wan :: ToNetfront(); lan :: ToNetfront();"
      "outb -> nat; nat[0] -> wan;"
      "inb -> [1]nat; nat[1] -> lan;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet outward_seen;
  graph->FindAs<ToNetfront>("wan")->set_handler([&](Packet& p) { outward_seen = p; });
  Packet out = Udp("192.168.0.5", "8.8.8.8", 5555, 53);
  graph->Inject("outb", out);
  EXPECT_EQ(outward_seen.ip_src(), Ipv4Address::MustParse("100.64.0.1"));
  uint16_t public_port = outward_seen.src_port();

  Packet inward_seen;
  graph->FindAs<ToNetfront>("lan")->set_handler([&](Packet& p) { inward_seen = p; });
  Packet reply = Udp("8.8.8.8", "100.64.0.1", 53, public_port);
  graph->Inject("inb", reply);
  EXPECT_EQ(inward_seen.ip_dst(), Ipv4Address::MustParse("192.168.0.5"));
  EXPECT_EQ(inward_seen.dst_port(), 5555);
}

TEST(NatRewriter, DropsUnknownInbound) {
  std::string error;
  auto graph = Graph::FromText(
      "inb :: FromNetfront(); nat :: NatRewriter(PUBLIC 100.64.0.1); lan :: ToNetfront();"
      "inb -> [1]nat; nat[1] -> lan;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet stray = Udp("8.8.8.8", "100.64.0.1", 53, 44444);
  graph->Inject("inb", stray);
  EXPECT_EQ(graph->FindAs<ToNetfront>("lan")->packet_count(), 0u);
}

// --- Stock modules ------------------------------------------------------------------------------

TEST(DnsGeoServer, RespondsToRequester) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); dns :: DnsGeoServer(); sink :: ToNetfront();"
      "src -> dns -> sink;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet observed;
  graph->FindAs<ToNetfront>("sink")->set_handler([&](Packet& p) { observed = p; });
  Packet query = Udp("9.9.9.9", "172.16.3.10", 5353, 53);
  graph->InjectAtSource(query);
  EXPECT_EQ(observed.ip_dst(), Ipv4Address::MustParse("9.9.9.9"));
  EXPECT_EQ(observed.ip_src(), Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(observed.src_port(), 53);
  EXPECT_EQ(observed.dst_port(), 5353);
}

TEST(DnsGeoServer, IgnoresNonDns) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront(); dns :: DnsGeoServer(); sink :: ToNetfront(); src -> dns -> sink;",
      &error);
  ASSERT_NE(graph, nullptr);
  Packet not_dns = Udp("9.9.9.9", "172.16.3.10", 5353, 80);
  graph->InjectAtSource(not_dns);
  EXPECT_EQ(graph->FindAs<ToNetfront>("sink")->packet_count(), 0u);
}

TEST(ReverseProxy, HitsGoBackMissesGoToOrigin) {
  std::string error;
  auto graph = Graph::FromText(
      "src :: FromNetfront();"
      "proxy :: ReverseProxy(SELF 172.16.3.10, ORIGIN 5.5.5.5);"
      "back :: ToNetfront(); fetch :: ToNetfront();"
      "src -> proxy; proxy[0] -> back; proxy[1] -> fetch;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  for (int i = 0; i < 100; ++i) {
    Packet req = Tcp("9.9.9.9", "172.16.3.10", 4000, 80);
    graph->InjectAtSource(req);
  }
  auto* back = graph->FindAs<ToNetfront>("back");
  auto* fetch = graph->FindAs<ToNetfront>("fetch");
  EXPECT_EQ(back->packet_count() + fetch->packet_count(), 100u);
  EXPECT_GT(back->packet_count(), fetch->packet_count());  // ~80% hit ratio
  EXPECT_GT(fetch->packet_count(), 0u);
}

}  // namespace
}  // namespace innet::click
