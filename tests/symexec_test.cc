#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>

#include "src/click/config_parser.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/symexec/path_digest.h"
#include "src/symexec/symbolic_packet.h"
#include "src/symexec/trace_render.h"
#include "src/symexec/value_set.h"

namespace innet::symexec {
namespace {

// --- ValueSet ---------------------------------------------------------------------

TEST(ValueSet, EmptyAndFull) {
  EXPECT_TRUE(ValueSet().IsEmpty());
  EXPECT_FALSE(ValueSet::Full().IsEmpty());
  EXPECT_TRUE(ValueSet::Full().Contains(0));
  EXPECT_TRUE(ValueSet::Full().Contains(UINT64_MAX));
}

TEST(ValueSet, SingleAndRange) {
  ValueSet s = ValueSet::Single(42);
  EXPECT_TRUE(s.Contains(42));
  EXPECT_FALSE(s.Contains(41));
  EXPECT_TRUE(s.IsSingle());
  EXPECT_EQ(s.SingleValue(), 42u);

  ValueSet r = ValueSet::Range(10, 20);
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(20));
  EXPECT_FALSE(r.Contains(21));
  EXPECT_EQ(r.Count(), 11u);
}

TEST(ValueSet, InvertedRangeIsEmpty) { EXPECT_TRUE(ValueSet::Range(20, 10).IsEmpty()); }

TEST(ValueSet, Intersect) {
  ValueSet a = ValueSet::Range(0, 100);
  ValueSet b = ValueSet::Range(50, 150);
  ValueSet c = a.Intersect(b);
  EXPECT_EQ(c, ValueSet::Range(50, 100));
  EXPECT_TRUE(a.Intersect(ValueSet::Range(200, 300)).IsEmpty());
}

TEST(ValueSet, UnionMergesAdjacent) {
  ValueSet u = ValueSet::Range(0, 10).Union(ValueSet::Range(11, 20));
  EXPECT_EQ(u, ValueSet::Range(0, 20));
  ValueSet v = ValueSet::Range(0, 10).Union(ValueSet::Range(12, 20));
  EXPECT_EQ(v.intervals().size(), 2u);
  EXPECT_EQ(v.Count(), 20u);
}

TEST(ValueSet, Subtract) {
  ValueSet s = ValueSet::Range(0, 100).Subtract(ValueSet::Range(40, 60));
  EXPECT_TRUE(s.Contains(39));
  EXPECT_FALSE(s.Contains(40));
  EXPECT_FALSE(s.Contains(60));
  EXPECT_TRUE(s.Contains(61));
  EXPECT_EQ(s.Count(), 80u);
}

TEST(ValueSet, SubtractEverything) {
  EXPECT_TRUE(ValueSet::Range(5, 10).Subtract(ValueSet::Range(0, 100)).IsEmpty());
}

TEST(ValueSet, SubtractFromFull) {
  ValueSet s = ValueSet::Full().Subtract(ValueSet::Single(80));
  EXPECT_FALSE(s.Contains(80));
  EXPECT_TRUE(s.Contains(79));
  EXPECT_TRUE(s.Contains(81));
  EXPECT_TRUE(s.Contains(UINT64_MAX));
}

TEST(ValueSet, FromPrefix) {
  ValueSet s = ValueSet::FromPrefix(Ipv4Prefix::MustParse("10.0.0.0/8"));
  EXPECT_TRUE(s.Contains(Ipv4Address::MustParse("10.1.2.3").value()));
  EXPECT_FALSE(s.Contains(Ipv4Address::MustParse("11.0.0.0").value()));
  EXPECT_EQ(s.Count(), 1u << 24);
}

TEST(ValueSet, SubsetViaSubtract) {
  ValueSet small = ValueSet::Range(5, 10);
  ValueSet big = ValueSet::Range(0, 100);
  EXPECT_TRUE(small.Subtract(big).IsEmpty());
  EXPECT_FALSE(big.Subtract(small).IsEmpty());
}

// --- SymbolicPacket ----------------------------------------------------------------

TEST(SymbolicPacket, UnconstrainedHasFreshVarsPerField) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  EXPECT_FALSE(p.value(HeaderField::kIpSrc).is_const);
  EXPECT_NE(p.ingress_var(HeaderField::kIpSrc), kNoVar);
  EXPECT_NE(p.ingress_var(HeaderField::kIpSrc), p.ingress_var(HeaderField::kIpDst));
  EXPECT_TRUE(p.PossibleValues(HeaderField::kIpSrc) == ValueSet::Full());
}

TEST(SymbolicPacket, ConstrainNarrows) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  EXPECT_TRUE(p.Constrain(HeaderField::kDstPort, ValueSet::Range(1000, 2000)));
  EXPECT_TRUE(p.Constrain(HeaderField::kDstPort, ValueSet::Range(1500, 3000)));
  EXPECT_EQ(p.PossibleValues(HeaderField::kDstPort), ValueSet::Range(1500, 2000));
  EXPECT_FALSE(p.Constrain(HeaderField::kDstPort, ValueSet::Single(99)));
  EXPECT_FALSE(p.feasible());
}

TEST(SymbolicPacket, ConstraintsFollowSharedVars) {
  // Binding dst to src's variable makes constraints on one visible on the
  // other — the mechanism behind implicit-authorization checking.
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  SymbolicValue src = p.value(HeaderField::kIpSrc);
  p.SetValue(HeaderField::kIpDst, src);
  EXPECT_TRUE(p.Constrain(HeaderField::kIpSrc, ValueSet::Range(100, 200)));
  EXPECT_EQ(p.PossibleValues(HeaderField::kIpDst), ValueSet::Range(100, 200));
}

TEST(SymbolicPacket, ConstOverridesVar) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  p.SetConst(HeaderField::kProto, kProtoUdp);
  EXPECT_TRUE(p.value(HeaderField::kProto).is_const);
  EXPECT_TRUE(p.Constrain(HeaderField::kProto, ValueSet::Single(kProtoUdp)));
  EXPECT_FALSE(p.Constrain(HeaderField::kProto, ValueSet::Single(kProtoTcp)));
}

// Starts `packet`'s path in an arena that names node i `names[i]`.
void StartNamedPath(SymbolicPacket* packet, NameTable names) {
  packet->StartPath(
      std::make_shared<HopArena>(std::make_shared<const NameTable>(std::move(names))));
}

// Node ids of the hand-written paths below.
enum : int { kA, kB, kC, kD };

TEST(SymbolicPacket, HistoryAndLastDef) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  StartNamedPath(&p, {"a", "b", "c"});
  p.RecordHop(kA, 0);                        // hop 0
  p.SetConst(HeaderField::kDstPort, 1500);   // defined at hop index 1 (next)
  p.RecordHop(kB, 0);                        // hop 1
  p.RecordHop(kC, 0);                        // hop 2
  EXPECT_EQ(p.FindHop("b"), 1);
  EXPECT_EQ(p.FindHop("missing"), -1);
  // dst port redefined at hop 1: invariant holds from hop 1 to 2 but not 0 to 2.
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kDstPort, 1, 2));
  EXPECT_FALSE(p.FieldInvariantBetween(HeaderField::kDstPort, 0, 2));
  // payload never redefined: invariant across the whole path.
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kPayload, 0, 2));
}

TEST(SymbolicPacket, CopiesAreIndependent) {
  VarAllocator vars;
  SymbolicPacket original = SymbolicPacket::MakeUnconstrained(&vars);
  StartNamedPath(&original, {"a", "b", "c", "d"});
  original.Constrain(HeaderField::kDstPort, ValueSet::Range(1000, 2000));
  original.RecordHop(kA, 0);  // hop 0
  original.SetConst(HeaderField::kProto, kProtoUdp);
  original.RecordHop(kB, 1);  // hop 1
  ASSERT_EQ(original.hop_count(), 2);

  SymbolicPacket copy = original;
  copy.Constrain(HeaderField::kDstPort, ValueSet::Range(1500, 3000));
  copy.SetFresh(HeaderField::kIpDst, &vars);
  copy.RecordHop(kC, 0);  // hop 2
  copy.RecordHop(kA, 0);  // hop 3

  // The original sees none of the copy's narrowing, rewrites or hops.
  EXPECT_EQ(original.hop_count(), 2);
  EXPECT_EQ(original.HopName(1), "b");
  EXPECT_EQ(original.PossibleValues(HeaderField::kDstPort), ValueSet::Range(1000, 2000));
  EXPECT_EQ(original.value(HeaderField::kIpDst).var, original.ingress_var(HeaderField::kIpDst));
  EXPECT_EQ(original.FieldAtHop(HeaderField::kProto, 1).value,
            SymbolicValue::Const(kProtoUdp));
  EXPECT_EQ(original.FieldAtHop(HeaderField::kProto, 0).last_def_hop, -1);
  EXPECT_TRUE(original.FieldInvariantBetween(HeaderField::kIpDst, 0, 1));
  EXPECT_EQ(original.FindHop("a", 1), -1);
  EXPECT_EQ(original.FindHop("c"), -1);

  // The copy sees the shared prefix plus its own changes.
  ASSERT_EQ(copy.hop_count(), 4);
  EXPECT_EQ(copy.HopName(1), "b");
  EXPECT_EQ(copy.PossibleValues(HeaderField::kDstPort), ValueSet::Range(1500, 2000));
  EXPECT_EQ(copy.FieldAtHop(HeaderField::kProto, 1).value, SymbolicValue::Const(kProtoUdp));
  EXPECT_TRUE(copy.FieldInvariantBetween(HeaderField::kIpDst, 0, 1));
  EXPECT_FALSE(copy.FieldInvariantBetween(HeaderField::kIpDst, 0, 2));
  EXPECT_EQ(copy.FindHop("a", 1), 3);
  EXPECT_EQ(copy.FindHop("c"), 2);

  // And the other way round: changing the original leaves the copy alone.
  original.Constrain(HeaderField::kDstPort, ValueSet::Single(1000));
  original.SetConst(HeaderField::kPayload, 7);
  original.RecordHop(kD, 0);
  EXPECT_EQ(copy.PossibleValues(HeaderField::kDstPort), ValueSet::Range(1500, 2000));
  EXPECT_FALSE(copy.value(HeaderField::kPayload).is_const);
  EXPECT_EQ(copy.FindHop("d"), -1);
  EXPECT_EQ(copy.hop_count(), 4);
  EXPECT_EQ(original.FindHop("d"), 2);
}

// Destroys `packet` on a thread whose 256 KiB stack holds a few thousand
// frames at most, so a release that recursed once per hop would overflow it.
void ReleaseOnSmallStack(SymbolicPacket packet) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  auto release = [](void* arg) -> void* {
    delete static_cast<SymbolicPacket*>(arg);
    return nullptr;
  };
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, release, new SymbolicPacket(std::move(packet))), 0);
  EXPECT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

TEST(SymbolicPacket, LongHistoryReleasesIteratively) {
  // max_hops grows with the network; dropping a long hop chain must not
  // recurse once per hop.
  constexpr int kHops = 100000;
  VarAllocator vars;
  SymbolicPacket packet = SymbolicPacket::MakeUnconstrained(&vars);
  StartNamedPath(&packet, {"n", "tail"});
  for (int i = 0; i < kHops; ++i) {
    packet.RecordHop(0, i % 2);
  }
  SymbolicPacket branch = packet;
  branch.RecordHop(1, 0);
  EXPECT_EQ(branch.hop_count(), kHops + 1);
  ReleaseOnSmallStack(std::move(branch));  // releases only the branch's own hop
  EXPECT_EQ(packet.hop_count(), kHops);
  EXPECT_EQ(packet.FindHop("n", kHops - 1), kHops - 1);
  EXPECT_EQ(packet.HopOutPort(kHops - 1), 1);
  ReleaseOnSmallStack(std::move(packet));  // releases the whole chain
}

TEST(SymbolicPacket, ConstrainToFlowSpecForksEitherDirection) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  FlowSpec spec = FlowSpec::MustParse("port 80");
  std::vector<SymbolicPacket> branches = p.ConstrainToFlowSpec(spec, &vars);
  EXPECT_EQ(branches.size(), 2u);  // src-port-80 branch + dst-port-80 branch
}

TEST(SymbolicPacket, ConstrainToFlowSpecDirected) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  FlowSpec spec = FlowSpec::MustParse("udp dst port 1500");
  std::vector<SymbolicPacket> branches = p.ConstrainToFlowSpec(spec, &vars);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].PossibleValues(HeaderField::kProto), ValueSet::Single(kProtoUdp));
  EXPECT_EQ(branches[0].PossibleValues(HeaderField::kDstPort), ValueSet::Single(1500));
}

TEST(SymbolicPacket, CanMatchFlowSpecAtHop) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  p.SetConst(HeaderField::kDstPort, 80);
  p.RecordHop(0, 0);  // hop 0: dst port 80
  p.SetConst(HeaderField::kDstPort, 8080);
  p.RecordHop(1, 0);  // hop 1: dst port 8080
  EXPECT_TRUE(p.CanMatchFlowSpec(FlowSpec::MustParse("dst port 80"), 0));
  EXPECT_FALSE(p.CanMatchFlowSpec(FlowSpec::MustParse("dst port 80"), 1));
  EXPECT_TRUE(p.CanMatchFlowSpec(FlowSpec::MustParse("dst port 8080"), 1));
}

// --- Engine on hand-built graphs -----------------------------------------------------

TEST(Engine, LinearPathDelivers) {
  SymGraph graph;
  int a = graph.AddNode("a", std::make_shared<PassthroughModel>());
  int b = graph.AddNode("b", std::make_shared<PassthroughModel>());
  int c = graph.AddNode("c", std::make_shared<SinkModel>());
  graph.Connect(a, 0, b, 0);
  graph.Connect(b, 0, c, 0);

  Engine engine;
  SymbolicPacket seed = SymbolicPacket::MakeUnconstrained(engine.vars());
  EngineResult result = engine.Run(graph, a, 0, seed);
  ASSERT_EQ(result.delivered.size(), 1u);
  EXPECT_EQ(result.delivered[0].delivered_at(), "c");
  EXPECT_EQ(result.delivered[0].hop_count(), 3);
}

TEST(Engine, UnconnectedPortDrops) {
  SymGraph graph;
  int a = graph.AddNode("a", std::make_shared<PassthroughModel>());
  Engine engine;
  EngineResult result =
      engine.Run(graph, a, 0, SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_TRUE(result.delivered.empty());
  EXPECT_EQ(result.dropped.size(), 1u);
}

TEST(Engine, LoopIsBoundedByMaxHops) {
  SymGraph graph;
  int a = graph.AddNode("a", std::make_shared<PassthroughModel>());
  int b = graph.AddNode("b", std::make_shared<PassthroughModel>());
  graph.Connect(a, 0, b, 0);
  graph.Connect(b, 0, a, 0);
  EngineOptions options;
  options.max_hops = 10;
  Engine engine(options);
  EngineResult result =
      engine.Run(graph, a, 0, SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_TRUE(result.truncated);
  EXPECT_TRUE(result.delivered.empty());
}

TEST(Engine, MergePrefixesNames) {
  SymGraph inner;
  inner.AddNode("x", std::make_shared<SinkModel>());
  SymGraph outer;
  int offset = outer.Merge(inner, "mod1");
  EXPECT_EQ(offset, 0);
  EXPECT_GE(outer.FindNode("mod1/x"), 0);
}

// --- Click element models --------------------------------------------------------------

// Helper: run the module model from its first source with an unconstrained
// packet; return delivered packets.
std::vector<SymbolicPacket> RunModule(const std::string& config_text) {
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  EXPECT_TRUE(config.has_value()) << error;
  auto graph = BuildClickModel(*config, &error);
  EXPECT_TRUE(graph.has_value()) << error;
  std::vector<std::string> sources = ModuleSources(*config);
  EXPECT_FALSE(sources.empty());
  Engine engine;
  SymbolicPacket seed = SymbolicPacket::MakeUnconstrained(engine.vars());
  EngineResult result = engine.Run(*graph, graph->FindNode(sources[0]), kPortInject, seed);
  return result.delivered;
}

TEST(ClickModels, FilterConstrains) {
  auto delivered = RunModule(
      "FromNetfront() -> IPFilter(allow udp dst port 1500) -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].PossibleValues(HeaderField::kProto), ValueSet::Single(kProtoUdp));
  EXPECT_EQ(delivered[0].PossibleValues(HeaderField::kDstPort), ValueSet::Single(1500));
}

TEST(ClickModels, FilterDenyAllDeliversNothing) {
  auto delivered = RunModule("FromNetfront() -> IPFilter(deny all) -> ToNetfront();");
  EXPECT_TRUE(delivered.empty());
}

TEST(ClickModels, DenyThenAllowExcludesDeniedSpace) {
  auto delivered = RunModule(
      "FromNetfront() -> IPFilter(deny src net 10.0.0.0/8, allow all) -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  ValueSet src = delivered[0].PossibleValues(HeaderField::kIpSrc);
  EXPECT_FALSE(src.Contains(Ipv4Address::MustParse("10.1.1.1").value()));
  EXPECT_TRUE(src.Contains(Ipv4Address::MustParse("11.1.1.1").value()));
}

TEST(ClickModels, ClassifierSplitsExclusively) {
  auto delivered = RunModule(
      "src :: FromNetfront(); cls :: IPClassifier(udp, -);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> cls; cls[0] -> a; cls[1] -> b;");
  ASSERT_EQ(delivered.size(), 2u);
  // One branch constrained to UDP delivered at a; the complement at b.
  bool saw_udp_at_a = false;
  bool saw_non_udp_at_b = false;
  for (const SymbolicPacket& p : delivered) {
    ValueSet proto = p.PossibleValues(HeaderField::kProto);
    if (p.delivered_at() == "a" && proto == ValueSet::Single(kProtoUdp)) {
      saw_udp_at_a = true;
    }
    if (p.delivered_at() == "b" && !proto.Contains(kProtoUdp)) {
      saw_non_udp_at_b = true;
    }
  }
  EXPECT_TRUE(saw_udp_at_a);
  EXPECT_TRUE(saw_non_udp_at_b);
}

TEST(ClickModels, RewriterSetsConstAndTracksDefinition) {
  auto delivered = RunModule(
      "FromNetfront() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  const SymbolicValue& dst = delivered[0].value(HeaderField::kIpDst);
  ASSERT_TRUE(dst.is_const);
  EXPECT_EQ(dst.const_value, Ipv4Address::MustParse("172.16.15.133").value());
  // src untouched: still the ingress variable.
  EXPECT_EQ(delivered[0].value(HeaderField::kIpSrc).var,
            delivered[0].ingress_var(HeaderField::kIpSrc));
}

TEST(ClickModels, PaperFigure4PayloadInvariant) {
  // The full batcher module: payload, proto, and dst port must be invariant
  // from the batcher (TimedUnqueue) to the egress — the check Figure 4 asks
  // the controller to make.
  auto delivered = RunModule(
      "FromNetfront() ->"
      "IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 172.16.15.133 - 0 0)"
      "-> batcher :: TimedUnqueue(120,100)"
      "-> dst :: ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  const SymbolicPacket& p = delivered[0];
  int batcher_hop = p.FindHop("batcher");
  int egress_hop = p.FindHop("dst");
  ASSERT_GE(batcher_hop, 0);
  ASSERT_GT(egress_hop, batcher_hop);
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kPayload, batcher_hop, egress_hop));
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kProto, batcher_hop, egress_hop));
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kDstPort, batcher_hop, egress_hop));
  // And the destination address was rewritten before the batcher, not after.
  EXPECT_TRUE(p.FieldInvariantBetween(HeaderField::kIpDst, batcher_hop, egress_hop));
}

TEST(ClickModels, TunnelDecapProducesFreshUnknowns) {
  auto delivered = RunModule("FromNetfront() -> UDPTunnelDecap() -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  const SymbolicPacket& p = delivered[0];
  // Inner fields are fresh: not bound to any ingress variable.
  EXPECT_NE(p.value(HeaderField::kIpDst).var, p.ingress_var(HeaderField::kIpDst));
  EXPECT_NE(p.value(HeaderField::kIpSrc).var, p.ingress_var(HeaderField::kIpSrc));
  EXPECT_FALSE(p.value(HeaderField::kIpDst).is_const);
}

TEST(ClickModels, DnsServerSwapsAddresses) {
  auto delivered = RunModule("FromNetfront() -> DnsGeoServer() -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  const SymbolicPacket& p = delivered[0];
  EXPECT_EQ(p.value(HeaderField::kIpSrc).var, p.ingress_var(HeaderField::kIpDst));
  EXPECT_EQ(p.value(HeaderField::kIpDst).var, p.ingress_var(HeaderField::kIpSrc));
}

TEST(ClickModels, TeeDuplicates) {
  auto delivered = RunModule(
      "src :: FromNetfront(); t :: Tee(2); a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> a; t[1] -> b;");
  EXPECT_EQ(delivered.size(), 2u);
}

TEST(ClickModels, UnknownClassRejected) {
  std::string error;
  auto model = MakeElementModel("Mystery", "", &error);
  EXPECT_EQ(model, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(ClickModels, EmbeddedSinksPassthrough) {
  std::string error;
  auto config = click::ConfigGraph::Parse(
      "src :: FromNetfront(); out :: ToNetfront(); src -> out;", &error);
  ASSERT_TRUE(config.has_value());
  auto graph = BuildClickModel(*config, &error, /*embedded=*/true);
  ASSERT_TRUE(graph.has_value()) << error;
  // In embedded mode the sink forwards instead of delivering; with nothing
  // wired downstream the packet is dropped, not delivered.
  Engine engine;
  EngineResult result = engine.Run(*graph, graph->FindNode("src"), kPortInject,
                                   SymbolicPacket::MakeUnconstrained(engine.vars()));
  EXPECT_TRUE(result.delivered.empty());
  EXPECT_EQ(result.dropped.size(), 1u);
}

TEST(TraceRender, FigureTwoStyleTable) {
  // The rendered trace carries the Figure 2 structure: a header row, one row
  // per hop, named ingress variables, concrete bindings, and '*' marks on
  // redefined cells.
  auto delivered = RunModule(
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();");
  ASSERT_EQ(delivered.size(), 1u);
  std::string trace = RenderTrace(delivered[0]);
  EXPECT_NE(trace.find("rw"), std::string::npos);
  EXPECT_NE(trace.find("172.16.15.133*"), std::string::npos);  // rewrite marked
  EXPECT_NE(trace.find("proto0=udp"), std::string::npos);      // constrained ingress var
  EXPECT_NE(trace.find("dst port0=1500"), std::string::npos);
  EXPECT_NE(trace.find("payload0"), std::string::npos);        // untouched ingress var
  // One row per hop plus the header.
  size_t rows = static_cast<size_t>(std::count(trace.begin(), trace.end(), '\n'));
  EXPECT_EQ(rows, static_cast<size_t>(delivered[0].hop_count()) + 1);
}

TEST(TraceRender, InfeasibleMarked) {
  VarAllocator vars;
  SymbolicPacket p = SymbolicPacket::MakeUnconstrained(&vars);
  p.Constrain(HeaderField::kProto, ValueSet::Single(kProtoUdp));
  p.Constrain(HeaderField::kProto, ValueSet::Single(kProtoTcp));
  StartNamedPath(&p, {"x"});
  p.RecordHop(0, 0);
  EXPECT_NE(RenderTrace(p).find("infeasible"), std::string::npos);
}

// A module that branches three ways (classifier arms and a Tee) and joins two
// of the branches at one rewriter, so its delivered paths share prefixes.
constexpr char kBranchingModule[] =
    "src :: FromNetfront(); cls :: IPClassifier(udp dst port 1500, tcp, -);"
    "t :: Tee(2); rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0);"
    "a :: ToNetfront(); b :: ToNetfront(); d :: Discard();"
    "src -> cls; cls[0] -> rw; cls[1] -> t; cls[2] -> d; t[0] -> rw; t[1] -> b; rw -> a;";

std::string BranchingTraces() {
  std::string traces;
  for (const SymbolicPacket& p : RunModule(kBranchingModule)) {
    traces += "@" + p.delivered_at() + "\n" + RenderTrace(p);
  }
  return traces;
}

// Captured before branches shared hop records and constraint stores; the
// sharing must not change a byte of either output.
constexpr char kBranchingTraces[] = R"(@a
node                      src host              dst host              proto                 src port              dst port              payload               firewall_tag          
src                       src host0             dst host0             proto0=udp            src port0             dst port0=1500        payload0              firewall_tag0         
cls                       src host0             dst host0             proto0=udp            src port0             dst port0=1500        payload0              firewall_tag0         
rw                        src host0             172.16.15.133*        proto0=udp            src port0             dst port0=1500        payload0              firewall_tag0         
a                         src host0             172.16.15.133         proto0=udp            src port0             dst port0=1500        payload0              firewall_tag0         
@b
node                      src host              dst host              proto                 src port              dst port              payload               firewall_tag          
src                       src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
cls                       src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
t                         src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
b                         src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
@a
node                      src host              dst host              proto                 src port              dst port              payload               firewall_tag          
src                       src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
cls                       src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
t                         src host0             dst host0             proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
rw                        src host0             172.16.15.133*        proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
a                         src host0             172.16.15.133         proto0=tcp            src port0             dst port0             payload0              firewall_tag0         
)";
constexpr char kBranchingDigest[] =
    "intd1:c:34a4ec5eabeba40c,491b78a4172f127a,68ac0bd364eb030d:"
    "14650fb0739d0383,34a4ec5eabeba40c,491b78a4172f127a,68ac0bd364eb030d,cf6baf5103593855";

TEST(TraceRender, BranchingModuleMatchesGolden) {
  EXPECT_EQ(BranchingTraces(), kBranchingTraces);
}

TEST(PathDigest, BranchingModuleMatchesGolden) {
  EXPECT_EQ(ComputePathDigestFromText(kBranchingModule).Encode(), kBranchingDigest);
}

TEST(ClickModels, SourceAndSinkDiscovery) {
  std::string error;
  auto config = click::ConfigGraph::Parse(
      "a :: FromNetfront(); b :: FromNetfront(); x :: ToNetfront();"
      "a -> x; b -> x;",
      &error);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(ModuleSources(*config).size(), 2u);
  EXPECT_EQ(ModuleSinks(*config).size(), 1u);
}

}  // namespace
}  // namespace innet::symexec
