// In-band telemetry coverage: the chain hash + digest wire format both sides
// of attestation share, the verify-time digest symexec derives, the
// collector's fold/attest semantics (statuses, violations, truncation
// skip), the graph-level sampling that carries hop stacks on packets, and
// the health/trace fan-out a violation triggers.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/click/profiler.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/symexec/path_digest.h"

namespace innet {
namespace {

using click::Graph;
using click::GraphProfilerConfig;
using obs::HashChain;
using obs::IntCollector;
using obs::IntPathDigest;
using obs::IntPostcard;
using obs::IntPostcardHop;

// A two-element tenant interior with named elements, so the canonical chain
// is exactly {"f", "r"} on both the symbolic and runtime sides.
constexpr const char* kNamedChain =
    "FromNetfront() -> f :: IPFilter(allow udp) -> "
    "r :: IPRewriter(pattern - - 10.0.9.1 - 0 0) -> ToNetfront();";

Packet Udp(uint16_t sport = 1234) {
  return Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                         Ipv4Address::MustParse("10.0.0.2"), sport, 80, 32);
}

// The global collector (like the tracer) is shared across tests in one
// process: every test that enables it must restore the disabled/empty state.
class IntGuard {
 public:
  IntGuard() {
    obs::Int().Clear();
    obs::Int().Enable();
  }
  ~IntGuard() {
    obs::Int().Enable(false);
    obs::Int().Clear();
  }
};

IntPathDigest DigestForChain(const std::vector<std::string>& chain) {
  IntPathDigest digest;
  digest.full_paths.push_back(HashChain(chain));
  std::vector<std::string> prefix;
  digest.prefixes.push_back(HashChain(prefix));  // empty prefix always present
  for (const std::string& element : chain) {
    prefix.push_back(element);
    digest.prefixes.push_back(HashChain(prefix));
  }
  std::sort(digest.full_paths.begin(), digest.full_paths.end());
  std::sort(digest.prefixes.begin(), digest.prefixes.end());
  return digest;
}

// --- Chain hash + digest wire format ---------------------------------------------------

TEST(HashChain, OrderSensitiveAndBoundaryAware) {
  EXPECT_EQ(HashChain({"a", "b"}), HashChain({"a", "b"}));
  EXPECT_NE(HashChain({"a", "b"}), HashChain({"b", "a"}));
  // The ';' separator is part of the hash: {"ab"} must not collide with
  // {"a","b"} or the digest could not tell one hop from two.
  EXPECT_NE(HashChain({"ab"}), HashChain({"a", "b"}));
  EXPECT_NE(HashChain({"a"}), HashChain({}));
}

TEST(IntPathDigest, EncodeDecodeRoundTrip) {
  IntPathDigest digest;
  digest.full_paths = {7, 0xdeadbeefULL, 1};
  digest.prefixes = {0xffffffffffffffffULL, 3};
  digest.truncated = true;
  std::sort(digest.full_paths.begin(), digest.full_paths.end());
  std::sort(digest.prefixes.begin(), digest.prefixes.end());

  IntPathDigest decoded;
  ASSERT_TRUE(IntPathDigest::Decode(digest.Encode(), &decoded));
  EXPECT_EQ(decoded.full_paths, digest.full_paths);
  EXPECT_EQ(decoded.prefixes, digest.prefixes);
  EXPECT_TRUE(decoded.truncated);

  // An empty, non-truncated digest (unverifiable config) round-trips too.
  IntPathDigest empty;
  ASSERT_TRUE(IntPathDigest::Decode(empty.Encode(), &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(IntPathDigest, DecodeRejectsMalformedText) {
  IntPathDigest out;
  for (const char* bad : {
           "",                 // empty journal field (pre-INT deployments)
           "garbage",          // not a digest at all
           "intd2:c:1:2",      // unknown version
           "intd1:x:1:2",      // bad truncation flag
           "intd1:c:1",        // missing prefix set
           "intd1:c:zz:1",     // non-hex hash
           "intd1:c:1,,2:3",   // empty list entry
           "intd1:t",          // truncated mid-header
       }) {
    EXPECT_FALSE(IntPathDigest::Decode(bad, &out)) << bad;
  }
}

// --- Verify-time digest from symbolic execution ----------------------------------------

TEST(PathDigest, SymexecDigestCoversDeliveredAndDroppedChains) {
  IntPathDigest digest = symexec::ComputePathDigestFromText(kNamedChain);
  ASSERT_FALSE(digest.empty());
  EXPECT_FALSE(digest.truncated);

  // The one delivered path is filter -> rewriter (endpoints excluded).
  EXPECT_TRUE(digest.MatchesFull(HashChain({"f", "r"})));
  EXPECT_FALSE(digest.MatchesFull(HashChain({"f"})));

  // Drop points: before any element (empty prefix), at the filter, or after
  // the rewriter. Never a chain that starts mid-path.
  EXPECT_TRUE(digest.MatchesPrefix(HashChain({})));
  EXPECT_TRUE(digest.MatchesPrefix(HashChain({"f"})));
  EXPECT_TRUE(digest.MatchesPrefix(HashChain({"f", "r"})));
  EXPECT_FALSE(digest.MatchesPrefix(HashChain({"r"})));
}

TEST(PathDigest, UnparseableConfigYieldsEmptyDigest) {
  EXPECT_TRUE(symexec::ComputePathDigestFromText("this is not click").empty());
}

// --- Collector fold + attestation semantics --------------------------------------------

// A hand-made postcard with one 10 ns hop per chain element, each named
// through the postcard's own element name table. Owns the storage that the
// IntPostcard handed to Fold views.
struct TestPostcard {
  std::string tenant;
  std::shared_ptr<obs::ElementNameTable> names = std::make_shared<obs::ElementNameTable>();
  std::vector<IntPostcardHop> hops;
  std::vector<uint32_t> chain;
  uint64_t path_ns = 100;
  uint64_t truncated_hops = 0;
  bool egress = false;

  IntPostcard View() const {
    IntPostcard postcard;
    postcard.names = names;
    postcard.tenant = tenant;
    postcard.vm = "vm:1";
    postcard.hops = hops;
    postcard.chain = chain;
    postcard.path_ns = path_ns;
    postcard.truncated_hops = truncated_hops;
    postcard.egress = egress;
    return postcard;
  }
};

TestPostcard MakePostcard(const std::string& tenant, const std::vector<std::string>& chain,
                          bool egress, uint64_t path_ns = 100) {
  TestPostcard postcard;
  postcard.tenant = tenant;
  for (const std::string& element : chain) {
    uint32_t id = static_cast<uint32_t>(postcard.names->elements.size());
    postcard.names->elements.emplace_back().name = element;
    IntPostcardHop hop;
    hop.element = id;
    hop.hop_ns = 10;
    postcard.hops.push_back(hop);
    postcard.chain.push_back(id);
  }
  postcard.path_ns = path_ns;
  postcard.egress = egress;
  return postcard;
}

TEST(IntCollector, AttestsEgressAgainstFullPathsAndDropsAgainstPrefixes) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.Enable();
  collector.SetTenantDigest("t", DigestForChain({"a", "b"}));

  collector.Fold(MakePostcard("t", {"a", "b"}, /*egress=*/true).View());   // full match
  collector.Fold(MakePostcard("t", {"a"}, /*egress=*/false).View());       // drop at a: prefix
  collector.Fold(MakePostcard("t", {}, /*egress=*/false).View());          // drop pre-chain
  EXPECT_EQ(collector.postcards(), 3u);
  EXPECT_EQ(collector.violations(), 0u);

  // A delivered packet that only walked a prefix is a violation — and so is
  // a drop on a chain no verified path starts with.
  collector.Fold(MakePostcard("t", {"a"}, /*egress=*/true).View());
  collector.Fold(MakePostcard("t", {"b"}, /*egress=*/false).View());
  EXPECT_EQ(collector.violations(), 2u);
  EXPECT_EQ(collector.TenantViolations("t"), 2u);
  EXPECT_EQ(registry
                .GetCounter("innet_path_conformance_violations_total", {{"tenant", "t"}})
                ->value(),
            2.0);
  // Hop latency folded per element regardless of verdict.
  EXPECT_EQ(registry.GetCounter("innet_int_hop_ns_total", {{"element", "a"}})->value(),
            30.0);
}

TEST(IntCollector, StatusesSeparateUnattributedUnattestedAndTruncated) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.Enable();
  collector.SetTenantDigest("t", DigestForChain({"a"}));

  // No tenant: counted, never attested.
  collector.Fold(MakePostcard("", {"x"}, /*egress=*/true).View());
  // Tenant without a registered digest: observed but unattested.
  collector.Fold(MakePostcard("other", {"x"}, /*egress=*/true).View());
  // Truncated hop stack: a mismatch proves nothing, so no violation.
  TestPostcard truncated = MakePostcard("t", {"x"}, /*egress=*/true);
  truncated.truncated_hops = 2;
  collector.Fold(truncated.View());

  EXPECT_EQ(collector.postcards(), 3u);
  EXPECT_EQ(collector.violations(), 0u);
  EXPECT_EQ(registry.GetCounter("innet_int_postcards_total", {{"status", "unattributed"}})
                ->value(),
            1.0);
  EXPECT_EQ(registry.GetCounter("innet_int_postcards_total", {{"status", "unattested"}})
                ->value(),
            1.0);
  EXPECT_EQ(registry.GetCounter("innet_int_hops_truncated_total", {})->value(), 2.0);

  // A digest marked truncated at verify time also suppresses attestation.
  IntPathDigest partial = DigestForChain({"a"});
  partial.truncated = true;
  collector.SetTenantDigest("t", partial);
  collector.Fold(MakePostcard("t", {"zz"}, /*egress=*/true).View());
  EXPECT_EQ(collector.violations(), 0u);
}

TEST(IntCollector, DisabledCollectorIgnoresPostcards) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.SetTenantDigest("t", DigestForChain({"a"}));
  collector.Fold(MakePostcard("t", {"zz"}, /*egress=*/true).View());
  EXPECT_EQ(collector.postcards(), 0u);
  EXPECT_EQ(collector.violations(), 0u);
}

TEST(IntCollector, ViolationRaisesTraceEventAndHealthClause) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.Enable();
  collector.SetTenantDigest("t", DigestForChain({"a"}));

  obs::Tracer().Clear();
  obs::Tracer().Enable();
  obs::Health().Clear();
  obs::Health().Enable();

  collector.Fold(MakePostcard("t", {"zz"}, /*egress=*/true, /*path_ns=*/777).View());

  bool saw_event = false;
  for (const obs::TraceEvent& event : obs::Tracer().events()) {
    if (event.kind == obs::EventKind::kPathViolation) {
      saw_event = true;
      EXPECT_EQ(event.target, "tenant:t");
      EXPECT_EQ(event.detail, "egress:zz");
      EXPECT_EQ(event.value, 777);
    }
  }
  EXPECT_TRUE(saw_event);

  // One violation crosses the default degraded threshold; four violate it.
  obs::Health().EvaluateAll();
  EXPECT_EQ(obs::Health().CurrentState("t"), obs::HealthState::kDegraded);
  for (int i = 0; i < 3; ++i) {
    collector.Fold(MakePostcard("t", {"zz"}, /*egress=*/true).View());
  }
  obs::Health().EvaluateAll();
  EXPECT_EQ(obs::Health().CurrentState("t"), obs::HealthState::kViolated);

  obs::Tracer().Enable(false);
  obs::Tracer().Clear();
  obs::Health().Enable(false);
  obs::Health().Clear();
}

TEST(IntCollector, ToJsonCarriesHeatmapAndAttestationRows) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.Enable();
  collector.SetTenantDigest("t", DigestForChain({"a", "b"}));
  collector.Fold(MakePostcard("t", {"a", "b"}, /*egress=*/true, 100).View());
  collector.Fold(MakePostcard("t", {"a", "b"}, /*egress=*/true, 300).View());

  obs::json::Value dump = collector.ToJson();
  EXPECT_EQ(dump.Find("postcards")->int_number(), 2);
  const obs::json::Value* tenants = dump.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->size(), 1u);
  const obs::json::Value& tenant = tenants->at(0);
  EXPECT_EQ(tenant.Find("tenant")->string_value(), "t");
  EXPECT_TRUE(tenant.Find("attested")->bool_value());
  const obs::json::Value* paths = tenant.Find("paths");
  ASSERT_NE(paths, nullptr);
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ(paths->at(0).Find("chain")->string_value(), "a;b");
  EXPECT_EQ(paths->at(0).Find("count")->int_number(), 2);
  EXPECT_EQ(paths->at(0).Find("avg_ns")->int_number(), 200);
  EXPECT_EQ(paths->at(0).Find("min_ns")->int_number(), 100);
  EXPECT_EQ(paths->at(0).Find("max_ns")->int_number(), 300);
  EXPECT_TRUE(paths->at(0).Find("delivered")->bool_value());
}

TEST(IntCollector, RecentRingKeepsTheLastPostcardsOldestFirst) {
  obs::MetricsRegistry registry;
  IntCollector collector(&registry);
  collector.Enable();
  collector.Fold(MakePostcard("", {}, /*egress=*/false, 1).View());
  for (uint64_t ns = 2; ns <= 10; ++ns) {
    collector.Fold(MakePostcard("t", {"a", "b"}, /*egress=*/true, ns).View());
  }
  // Ten folds into a ring of eight: the two oldest are gone.
  std::vector<std::string> recent = collector.RecentPostcards();
  ASSERT_EQ(recent.size(), 8u);
  EXPECT_EQ(recent.front(), "t=t vm=vm:1 unattested chain=a;b ns=3");
  EXPECT_EQ(recent.back(), "t=t vm=vm:1 unattested chain=a;b ns=10");
  collector.Clear();
  collector.Fold(MakePostcard("", {}, /*egress=*/false, 11).View());
  EXPECT_EQ(collector.RecentPostcards(),
            (std::vector<std::string>{"t=- vm=vm:1 unattributed chain=- ns=11"}));
}

// --- Graph-level in-band collection ----------------------------------------------------

TEST(GraphInt, NameTableResolvesTenantSlotsOnceAtBuild) {
  std::string error;
  auto graph = Graph::FromText(
      "FromNetfront() -> t01_x :: Counter() -> t1_y :: Counter() -> t12_z :: Counter() -> "
      "plain :: Counter() -> ToNetfront();",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  const obs::ElementNameTable& names = *graph->element_names();
  ASSERT_EQ(names.elements.size(), graph->elements().size());
  for (const auto& element : graph->elements()) {
    EXPECT_EQ(names.elements[element->id()].name, element->name());
  }
  auto entry = [&](const char* name) { return names.elements[graph->Find(name)->id()]; };
  // "t01_" names slot 1 but is not the canonical spelling canonical chains
  // strip; "t1_" and "t12_" are.
  EXPECT_EQ(entry("t01_x").tenant_slot, 1);
  EXPECT_EQ(entry("t01_x").prefix_len, 0u);
  EXPECT_EQ(entry("t1_y").tenant_slot, 1);
  EXPECT_EQ(entry("t1_y").prefix_len, 3u);
  EXPECT_EQ(entry("t12_z").tenant_slot, 12);
  EXPECT_EQ(entry("t12_z").prefix_len, 4u);
  EXPECT_EQ(entry("plain").tenant_slot, -1);
  EXPECT_FALSE(entry("plain").endpoint);
  EXPECT_TRUE(names.elements[graph->FindByClass("ToNetfront")->id()].endpoint);
  EXPECT_EQ(names.tenant_slots, (std::vector<int>{1, 12}));
}

TEST(GraphInt, SampledWalksCarryHopStacksThatAttestClean) {
  IntGuard guard;
  obs::Int().SetTenantDigest("tenant", symexec::ComputePathDigestFromText(kNamedChain));

  std::string error;
  auto graph = Graph::FromText(kNamedChain, &error);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.int_sample_n = 1;  // tag every walk
  config.int_tenant = [](int) { return std::string("tenant"); };
  graph->EnableProfiling(config);

  for (int i = 0; i < 4; ++i) {
    Packet p = Udp();
    graph->InjectAtSource(p);
  }
  // A TCP packet fails "allow udp": dropped at the filter, which is a
  // verified path prefix — conformant.
  Packet denied = Packet::MakeTcp(Ipv4Address::MustParse("10.0.0.1"),
                                  Ipv4Address::MustParse("10.0.0.2"), 1, 2, 0, 8);
  graph->InjectAtSource(denied);

  EXPECT_EQ(graph->profiler()->int_walks(), 5u);
  EXPECT_EQ(obs::Int().postcards(), 5u);
  EXPECT_EQ(obs::Int().violations(), 0u);

  obs::json::Value dump = obs::Int().ToJson();
  const obs::json::Value* tenants = dump.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->size(), 1u);
  const obs::json::Value* paths = tenants->at(0).Find("paths");
  ASSERT_NE(paths, nullptr);
  ASSERT_EQ(paths->size(), 2u);  // sorted: delivered "f;r" and the drop "f"
  EXPECT_EQ(paths->at(0).Find("chain")->string_value(), "f");
  EXPECT_FALSE(paths->at(0).Find("delivered")->bool_value());
  EXPECT_EQ(paths->at(1).Find("chain")->string_value(), "f;r");
  EXPECT_TRUE(paths->at(1).Find("delivered")->bool_value());
  EXPECT_GT(paths->at(1).Find("avg_ns")->int_number(), 0);
}

TEST(GraphInt, SamplingIsOneInNAndDeterministic) {
  IntGuard guard;
  std::string error;
  auto graph = Graph::FromText(kNamedChain, &error);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.int_sample_n = 4;
  config.seed = 7;
  config.int_tenant = [](int) { return std::string("tenant"); };
  graph->EnableProfiling(config);
  for (int i = 0; i < 16; ++i) {
    Packet p = Udp();
    graph->InjectAtSource(p);
  }
  // walks ≡ seed (mod 4): ordinals 3, 7, 11, 15 — same contract as the
  // walk-trace sampler, but independent state on the packet itself.
  EXPECT_EQ(graph->profiler()->int_walks(), 4u);
  EXPECT_EQ(obs::Int().postcards(), 4u);
}

TEST(GraphInt, ParkedPacketCompletesPostcardAfterTimedRelease) {
  IntGuard guard;
  sim::EventQueue clock;
  constexpr const char* kTimed =
      "FromNetfront() -> f :: IPFilter(allow udp) -> "
      "b :: TimedUnqueue(0.1,10) -> ToNetfront();";
  obs::Int().SetTenantDigest("tenant", symexec::ComputePathDigestFromText(kTimed));

  std::string error;
  auto graph = Graph::FromText(kTimed, &error, &clock);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.int_sample_n = 1;
  config.int_tenant = [](int) { return std::string("tenant"); };
  graph->EnableProfiling(config);

  Packet p = Udp();
  graph->InjectAtSource(p);
  // The batcher parked the packet: the walk ended, but the in-band stack
  // must stay open — no drop postcard for a packet still in flight.
  EXPECT_EQ(obs::Int().postcards(), 0u);

  clock.RunUntil(sim::FromSeconds(1));  // timer fires, packet egresses
  ASSERT_EQ(obs::Int().postcards(), 1u);
  EXPECT_EQ(obs::Int().violations(), 0u);
  obs::json::Value dump = obs::Int().ToJson();
  const obs::json::Value* paths = dump.Find("tenants")->at(0).Find("paths");
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ(paths->at(0).Find("chain")->string_value(), "f;b");
  EXPECT_TRUE(paths->at(0).Find("delivered")->bool_value());
  // Path latency includes the park time (sim clock, not just element cost).
  EXPECT_GE(static_cast<uint64_t>(paths->at(0).Find("max_ns")->int_number()),
            sim::FromMillis(50));
}

TEST(GraphInt, LiveRewireIsFlaggedAsViolation) {
  IntGuard guard;
  obs::Int().SetTenantDigest("tenant", symexec::ComputePathDigestFromText(kNamedChain));

  std::string error;
  auto graph = Graph::FromText(kNamedChain, &error);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.int_sample_n = 1;
  config.int_tenant = [](int) { return std::string("tenant"); };
  graph->EnableProfiling(config);

  Packet clean = Udp();
  graph->InjectAtSource(clean);
  EXPECT_EQ(obs::Int().violations(), 0u);

  // Rewire the filter straight to the sink: delivered packets now skip the
  // rewriter, a chain the digest has no full path for.
  click::Element* filter = graph->Find("f");
  click::Element* sink = graph->FindByClass("ToNetfront");
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(sink, nullptr);
  filter->ConnectOutput(0, sink, 0);
  Packet diverted = Udp();
  graph->InjectAtSource(diverted);
  EXPECT_EQ(obs::Int().violations(), 1u);
  EXPECT_EQ(obs::Int().TenantViolations("tenant"), 1u);
}

}  // namespace
}  // namespace innet
