// Property-based and differential tests, parameterized over random seeds
// (TEST_P sweeps). The headline property: the symbolic models are a *sound
// over-approximation* of the runtime Click engine — whenever a concrete
// packet traverses a configuration, some feasible symbolic path admits it.
// This is the property the whole In-Net security story rests on: if the
// checker says "no flow can do X", no runtime packet may do X.
#include <gtest/gtest.h>

#include <sstream>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/netcore/flowspec.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/symexec/value_set.h"
#include "src/transport/reno_flow.h"

namespace innet {
namespace {

using symexec::ValueSet;

// --- ValueSet algebra ---------------------------------------------------------------

class ValueSetAlgebra : public ::testing::TestWithParam<uint64_t> {
 protected:
  ValueSet RandomSet(sim::Rng* rng) {
    ValueSet set;
    int pieces = 1 + static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < pieces; ++i) {
      uint64_t lo = rng->NextBelow(1000);
      uint64_t hi = lo + rng->NextBelow(200);
      set = set.Union(ValueSet::Range(lo, hi));
    }
    return set;
  }
};

TEST_P(ValueSetAlgebra, IntersectIsSubsetOfBoth) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    ValueSet both = a.Intersect(b);
    EXPECT_TRUE(both.Subtract(a).IsEmpty());
    EXPECT_TRUE(both.Subtract(b).IsEmpty());
  }
}

TEST_P(ValueSetAlgebra, SubtractPlusIntersectReassembles) {
  sim::Rng rng(GetParam() ^ 0x5555);
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    // (A \ B) ∪ (A ∩ B) == A
    ValueSet reassembled = a.Subtract(b).Union(a.Intersect(b));
    EXPECT_EQ(reassembled, a) << "A=" << a.ToString() << " B=" << b.ToString();
  }
}

TEST_P(ValueSetAlgebra, CountIsAdditiveUnderSplit) {
  sim::Rng rng(GetParam() ^ 0xAAAA);
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    EXPECT_EQ(a.Subtract(b).Count() + a.Intersect(b).Count(), a.Count());
  }
}

TEST_P(ValueSetAlgebra, MembershipConsistency) {
  sim::Rng rng(GetParam() ^ 0x1234);
  for (int round = 0; round < 20; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    for (int probe = 0; probe < 50; ++probe) {
      uint64_t v = rng.NextBelow(1400);
      EXPECT_EQ(a.Intersect(b).Contains(v), a.Contains(v) && b.Contains(v));
      EXPECT_EQ(a.Union(b).Contains(v), a.Contains(v) || b.Contains(v));
      EXPECT_EQ(a.Subtract(b).Contains(v), a.Contains(v) && !b.Contains(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueSetAlgebra, ::testing::Values(1, 2, 3, 4, 5));

// --- FlowSpec round trips --------------------------------------------------------------

class FlowSpecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowSpecRoundTrip, ParseToStringParseAgreesOnRandomPackets) {
  sim::Rng rng(GetParam());
  const char* protos[] = {"", "tcp ", "udp ", "icmp "};
  for (int round = 0; round < 40; ++round) {
    std::ostringstream spec_text;
    spec_text << protos[rng.NextBelow(4)];
    if (rng.Bernoulli(0.5)) {
      spec_text << (rng.Bernoulli(0.5) ? "src " : "dst ") << "net 10."
                << rng.NextBelow(256) << ".0.0/16 ";
    }
    if (rng.Bernoulli(0.5)) {
      spec_text << (rng.Bernoulli(0.5) ? "src " : "dst ") << "port "
                << (1 + rng.NextBelow(65535)) << " ";
    }
    auto spec = FlowSpec::Parse(spec_text.str());
    ASSERT_TRUE(spec.has_value()) << spec_text.str();
    auto again = FlowSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.has_value()) << spec->ToString();

    for (int probe = 0; probe < 25; ++probe) {
      Ipv4Address src(static_cast<uint32_t>(rng.Next()));
      Ipv4Address dst(static_cast<uint32_t>(rng.Next()));
      uint16_t sport = static_cast<uint16_t>(rng.NextBelow(65536));
      uint16_t dport = static_cast<uint16_t>(rng.NextBelow(65536));
      Packet p = rng.Bernoulli(0.5) ? Packet::MakeUdp(src, dst, sport, dport)
                                    : Packet::MakeTcp(src, dst, sport, dport, 0);
      EXPECT_EQ(spec->Matches(p), again->Matches(p))
          << spec->ToString() << " vs " << again->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSpecRoundTrip, ::testing::Values(11, 22, 33));

// --- Packet checksum invariant -----------------------------------------------------------

class PacketChecksum : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketChecksum, MutatorsPreserveValidChecksumsAfterRefresh) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    Packet p = Packet::MakeUdp(Ipv4Address(static_cast<uint32_t>(rng.Next())),
                               Ipv4Address(static_cast<uint32_t>(rng.Next())),
                               static_cast<uint16_t>(rng.NextBelow(65536)),
                               static_cast<uint16_t>(rng.NextBelow(65536)),
                               rng.NextBelow(1200));
    for (int mutation = 0; mutation < 4; ++mutation) {
      switch (rng.NextBelow(5)) {
        case 0:
          p.set_ip_src(Ipv4Address(static_cast<uint32_t>(rng.Next())));
          break;
        case 1:
          p.set_ip_dst(Ipv4Address(static_cast<uint32_t>(rng.Next())));
          break;
        case 2:
          p.set_src_port(static_cast<uint16_t>(rng.NextBelow(65536)));
          break;
        case 3:
          p.set_dst_port(static_cast<uint16_t>(rng.NextBelow(65536)));
          break;
        case 4:
          p.set_ttl(static_cast<uint8_t>(1 + rng.NextBelow(255)));
          break;
      }
    }
    p.RefreshChecksums();
    EXPECT_TRUE(p.VerifyIpChecksum());
    // And the wire bytes agree with the annotations.
    Packet reparsed = Packet::FromWire(p.data(), p.length());
    ASSERT_GT(reparsed.length(), 0u);
    EXPECT_EQ(reparsed.ip_src(), p.ip_src());
    EXPECT_EQ(reparsed.ip_dst(), p.ip_dst());
    EXPECT_EQ(reparsed.src_port(), p.src_port());
    EXPECT_EQ(reparsed.dst_port(), p.dst_port());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketChecksum, ::testing::Values(7, 8, 9));

// --- Differential: runtime Click engine vs symbolic models --------------------------------

class SymbolicSoundness : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Generates a random linear configuration out of deterministic elements.
  std::string RandomConfig(sim::Rng* rng) {
    std::ostringstream config;
    config << "src :: FromNetfront(); sink :: ToNetfront();\nsrc";
    int stages = 1 + static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < stages; ++i) {
      switch (rng->NextBelow(5)) {
        case 0:
          config << " -> IPFilter(allow " << (rng->Bernoulli(0.5) ? "udp" : "tcp")
                 << " dst port " << (1 + rng->NextBelow(2000)) << ", allow src net 10."
                 << rng->NextBelow(200) << ".0.0/16)";
          break;
        case 1:
          config << " -> IPRewriter(pattern - - 172.16." << rng->NextBelow(200) << "."
                 << (1 + rng->NextBelow(200)) << " - 0 0)";
          break;
        case 2:
          config << " -> SetIPSrc(192.168." << rng->NextBelow(200) << "."
                 << (1 + rng->NextBelow(200)) << ")";
          break;
        case 3:
          config << " -> Counter()";
          break;
        case 4:
          config << " -> IPFilter(deny src net 10." << rng->NextBelow(200)
                 << ".0.0/16, allow all)";
          break;
      }
    }
    config << " -> sink;";
    return config.str();
  }

  Packet RandomPacket(sim::Rng* rng) {
    Ipv4Address src(Ipv4Address::MustParse("10.0.0.0").value() +
                    static_cast<uint32_t>(rng->NextBelow(1u << 24)));
    Ipv4Address dst(Ipv4Address::MustParse("172.16.0.0").value() +
                    static_cast<uint32_t>(rng->NextBelow(1u << 16)));
    uint16_t sport = static_cast<uint16_t>(1 + rng->NextBelow(65000));
    uint16_t dport = static_cast<uint16_t>(1 + rng->NextBelow(2500));
    return rng->Bernoulli(0.5) ? Packet::MakeUdp(src, dst, sport, dport, 16)
                               : Packet::MakeTcp(src, dst, sport, dport, 0, 16);
  }

  // Every path from `source` of the model of `config`.
  static symexec::EngineResult Explore(const click::ConfigGraph& config,
                                       const std::string& source) {
    std::string error;
    auto model = symexec::BuildClickModel(config, &error);
    if (!model) {
      ADD_FAILURE() << error;
      return {};
    }
    symexec::Engine engine;
    return engine.Run(*model, model->FindNode(source), symexec::kPortInject,
                      symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));
  }

  // Soundness: some feasible symbolic path admits the observed output (every
  // field value within the path's final possible values).
  static bool Admitted(const std::vector<symexec::SymbolicPacket>& paths, const Packet& output) {
    for (const symexec::SymbolicPacket& path : paths) {
      if (path.PossibleValues(HeaderField::kIpSrc).Contains(output.ip_src().value()) &&
          path.PossibleValues(HeaderField::kIpDst).Contains(output.ip_dst().value()) &&
          path.PossibleValues(HeaderField::kProto).Contains(output.protocol()) &&
          path.PossibleValues(HeaderField::kSrcPort).Contains(output.src_port()) &&
          path.PossibleValues(HeaderField::kDstPort).Contains(output.dst_port())) {
        return true;
      }
    }
    return false;
  }
};

TEST_P(SymbolicSoundness, RuntimeDeliveryImpliesFeasibleSymbolicPath) {
  sim::Rng rng(GetParam());
  int delivered_cases = 0;
  for (int round = 0; round < 60; ++round) {
    std::string config_text = RandomConfig(&rng);
    std::string error;
    auto config = click::ConfigGraph::Parse(config_text, &error);
    ASSERT_TRUE(config.has_value()) << config_text << "\n" << error;
    auto graph = click::Graph::Build(*config, &error);
    ASSERT_NE(graph, nullptr) << config_text << "\n" << error;
    symexec::EngineResult symbolic = Explore(*config, "src");

    for (int probe = 0; probe < 10; ++probe) {
      Packet input = RandomPacket(&rng);
      Packet output;
      bool runtime_delivered = false;
      graph->FindAs<click::ToNetfront>("sink")->set_handler([&](Packet& p) {
        output = p;
        runtime_delivered = true;
      });
      Packet in_copy = input;
      graph->Inject("src", in_copy);
      if (!runtime_delivered) {
        continue;
      }
      ++delivered_cases;

      EXPECT_TRUE(Admitted(symbolic.delivered, output))
          << "runtime delivered a packet no symbolic path admits\n"
          << "config: " << config_text << "\n"
          << "input:  " << input.Describe() << "\n"
          << "output: " << output.Describe();
    }
  }
  // The generator must actually exercise deliveries, or the property is vacuous.
  EXPECT_GT(delivered_cases, 10);
}

// The sandboxing element's outbound side: packets enter on port 1, as a
// wrapped module's egress does. With no inbound peer recorded, the runtime
// passes exactly the whitelisted destinations.
TEST_P(SymbolicSoundness, ChangeEnforcerOutboundAgreesWithModel) {
  const std::string config_text =
      "src :: FromNetfront(); ce :: ChangeEnforcer(ALLOW 172.16.0.5 172.16.0.9);"
      "sink :: ToNetfront(); src -> [1]ce; ce[1] -> sink;";
  const uint32_t allowed[] = {Ipv4Address::MustParse("172.16.0.5").value(),
                              Ipv4Address::MustParse("172.16.0.9").value()};
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto graph = click::Graph::Build(*config, &error);
  ASSERT_NE(graph, nullptr) << error;
  symexec::EngineResult symbolic = Explore(*config, "src");

  // The model's whitelist branch leaves on output 1 toward the sink.
  ValueSet whitelist = ValueSet::Single(allowed[0]).Union(ValueSet::Single(allowed[1]));
  bool model_passes_whitelist = false;
  for (const symexec::SymbolicPacket& path : symbolic.delivered) {
    if (path.delivered_at() == "sink" && path.PossibleValues(HeaderField::kIpDst) == whitelist) {
      model_passes_whitelist = true;
    }
  }
  EXPECT_TRUE(model_passes_whitelist);

  sim::Rng rng(GetParam());
  Packet output;
  bool runtime_delivered = false;
  graph->FindAs<click::ToNetfront>("sink")->set_handler([&](Packet& p) {
    output = p;
    runtime_delivered = true;
  });
  int delivered_cases = 0;
  for (int probe = 0; probe < 40; ++probe) {
    Packet input = RandomPacket(&rng);
    bool whitelisted = rng.Bernoulli(0.5);
    if (whitelisted) {
      input.set_ip_dst(Ipv4Address(allowed[rng.NextBelow(2)]));
      input.RefreshChecksums();
    }
    runtime_delivered = false;
    graph->Inject("src", input);
    EXPECT_EQ(runtime_delivered, whitelisted) << input.Describe();
    if (runtime_delivered) {
      ++delivered_cases;
      EXPECT_TRUE(Admitted(symbolic.delivered, output)) << output.Describe();
    }
  }
  EXPECT_GT(delivered_cases, 0);
}

// TransparentProxy relays transit traffic with its original addressing; the
// model keeps every addressing field bound to its ingress value.
TEST_P(SymbolicSoundness, TransparentProxyAgreesWithModel) {
  const std::string config_text =
      "src :: FromNetfront(); sink :: ToNetfront(); src -> TransparentProxy() -> sink;";
  std::string error;
  auto config = click::ConfigGraph::Parse(config_text, &error);
  ASSERT_TRUE(config.has_value()) << error;
  auto graph = click::Graph::Build(*config, &error);
  ASSERT_NE(graph, nullptr) << error;
  symexec::EngineResult symbolic = Explore(*config, "src");
  ASSERT_EQ(symbolic.delivered.size(), 1u);
  const symexec::SymbolicPacket& path = symbolic.delivered[0];
  for (HeaderField field : {HeaderField::kIpSrc, HeaderField::kIpDst, HeaderField::kProto,
                            HeaderField::kSrcPort, HeaderField::kDstPort}) {
    EXPECT_EQ(path.value(field).var, path.ingress_var(field));
  }
  EXPECT_NE(path.value(HeaderField::kPayload).var, path.ingress_var(HeaderField::kPayload));

  sim::Rng rng(GetParam());
  Packet output;
  graph->FindAs<click::ToNetfront>("sink")->set_handler([&](Packet& p) { output = p; });
  for (int probe = 0; probe < 20; ++probe) {
    Packet input = RandomPacket(&rng);
    Packet sent = input;
    graph->Inject("src", sent);
    EXPECT_EQ(output.ip_src(), input.ip_src());
    EXPECT_EQ(output.ip_dst(), input.ip_dst());
    EXPECT_EQ(output.src_port(), input.src_port());
    EXPECT_EQ(output.dst_port(), input.dst_port());
    EXPECT_TRUE(Admitted(symbolic.delivered, output)) << output.Describe();
  }
  EXPECT_EQ(graph->FindAs<click::ToNetfront>("sink")->packet_count(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSoundness, ::testing::Values(101, 202, 303, 404));

// --- Transport: reliable delivery under arbitrary loss ------------------------------------

struct LossCase {
  double loss;
  uint64_t seed;
};

class RenoReliability : public ::testing::TestWithParam<LossCase> {};

TEST_P(RenoReliability, EverySegmentDeliveredInOrderExactlyOnce) {
  const LossCase& param = GetParam();
  sim::EventQueue clock;
  sim::Rng rng(param.seed);
  sim::Link::Config link;
  link.rate_bps = 20e6;
  link.propagation = sim::FromMillis(5);
  link.loss_prob = param.loss;
  link.queue_limit_bytes = 64 * 1500;
  transport::RawLossyChannel channel(&clock, &rng, link);
  transport::RenoConfig config;
  config.min_rto_sec = 0.2;
  transport::RenoFlow flow(&clock, &channel, config, sim::FromMillis(5));

  uint64_t last_in_order = 0;
  bool monotonic = true;
  flow.SetInOrderCallback([&](uint64_t in_order) {
    if (in_order < last_in_order) {
      monotonic = false;
    }
    last_in_order = in_order;
  });
  flow.EnqueueSegments(500);
  clock.RunUntil(sim::FromSeconds(120));
  EXPECT_EQ(flow.receiver_in_order(), 500u) << "loss=" << param.loss;
  EXPECT_EQ(flow.cumulative_acked(), 500u);
  EXPECT_TRUE(monotonic);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, RenoReliability,
                         ::testing::Values(LossCase{0.0, 1}, LossCase{0.01, 2},
                                           LossCase{0.05, 3}, LossCase{0.10, 4},
                                           LossCase{0.20, 5}, LossCase{0.05, 6},
                                           LossCase{0.10, 7}));

}  // namespace
}  // namespace innet
