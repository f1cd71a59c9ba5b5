// Byte-for-byte goldens for every rendering of a packet journey: folded
// stacks, the INT collector's JSON dump and recent-postcard lines, the
// Perfetto export of sampled walks, the live INT metrics, and a flight-recorder
// postmortem bundle. The expected files under tests/golden/journey/ were
// captured from the string-keyed implementation these renderings replaced, so
// any drift in names, ordering, tenant attribution or canonical chains fails
// here.
//
// Scenarios: a platform with a dedicated guest and a consolidated guest of
// "t<i>_"-prefixed tenants; a Tee fan-out; a TimedUnqueue whose deferred
// release charges folded chains outside any walk; a hop stack truncated past
// kMaxIntHops; and postcards rendered after the graph that stamped them is
// destroyed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/click/graph.h"
#include "src/click/profiler.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/symexec/path_digest.h"

namespace innet {
namespace {

using click::Graph;
using click::GraphProfilerConfig;
using platform::InNetPlatform;
using platform::TenantConfig;
using platform::Vm;

// Resets the process-wide tracer, INT collector and registry values around a
// scenario, so each golden is the same whether a test runs alone or after
// the others in one process.
class ObsGuard {
 public:
  ObsGuard() {
    obs::Registry().ResetValues();
    obs::Tracer().Clear();
    obs::Tracer().Enable();
    obs::Int().Clear();
    obs::Int().Enable();
  }
  ~ObsGuard() {
    obs::Int().Enable(false);
    obs::Int().Clear();
    obs::Tracer().Enable(false);
    obs::Tracer().SetTimeSource(nullptr);
    obs::Tracer().Clear();
  }
};

Packet Udp(const char* dst, uint16_t sport, uint16_t dport = 80) {
  return Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"), Ipv4Address::MustParse(dst), sport,
                         dport, 32);
}

Packet Tcp(const char* dst, uint16_t sport) {
  return Packet::MakeTcp(Ipv4Address::MustParse("10.0.0.1"), Ipv4Address::MustParse(dst), sport,
                         443, 0x10, 16);
}

// Non-zero INT instruments of the global registry, in dump order.
std::string IntMetrics() {
  std::ostringstream out;
  obs::Registry().VisitInstruments([&out](const std::string& name, const obs::Labels& labels,
                                          const obs::Counter* counter, const obs::Gauge*,
                                          const obs::Histogram* histogram) {
    if (name.rfind("innet_int_", 0) != 0 && name.rfind("innet_path_conformance", 0) != 0) {
      return;
    }
    uint64_t count = counter != nullptr ? counter->value()
                     : histogram != nullptr ? histogram->count()
                                            : 0;
    if (count == 0) {
      return;
    }
    out << name;
    for (const auto& [key, value] : labels) {
      out << ' ' << key << '=' << value;
    }
    out << ' ' << count;
    if (histogram != nullptr) {
      out << " sum=" << static_cast<uint64_t>(histogram->sum());
    }
    out << '\n';
  });
  return out.str();
}

std::string RecentLines() {
  std::string out;
  for (const std::string& line : obs::Int().RecentPostcards()) {
    out += line;
    out += '\n';
  }
  return out;
}

// Every journey rendering after a scenario, as one text block.
std::string Render(const std::string& folded) {
  return "== folded ==\n" + folded + "== int ==\n" + obs::Int().ToJson().ToString(1) +
         "\n== recent ==\n" + RecentLines() + "== metrics ==\n" + IntMetrics() +
         "== perfetto ==\n" + obs::Tracer().ToPerfettoJson().ToString(1) + "\n";
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(INNET_GOLDEN_DIR) + "/" + name + ".txt", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectGolden(const std::string& name, const std::string& actual) {
  std::string expected = ReadGolden(name);
  ASSERT_FALSE(expected.empty()) << "missing golden " << name;
  EXPECT_EQ(actual, expected) << "golden " << name << " differs";
}

constexpr const char* kDedicated =
    "FromNetfront() -> CheckIPHeader() -> IPFilter(deny dst port 7, allow udp, allow tcp) -> "
    "IPRewriter(pattern - - 10.0.9.1 - 0 0) -> DecIPTTL() -> ToNetfront();";

TEST(JourneyGolden, ConsolidatedTenantsAndDedicatedGuest) {
  ObsGuard guard;
  sim::EventQueue clock;
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
  InNetPlatform box(&clock);
  box.EnableDataplaneProfiling(/*sample_n=*/3, /*seed=*/1, /*int_sample_n=*/2);
  std::string error;
  Vm::VmId dedicated = box.Install(Ipv4Address::MustParse("172.16.3.10"), kDedicated, &error);
  ASSERT_NE(dedicated, 0u) << error;
  box.SetVmOwner(dedicated, "client-dedicated-tenant");

  std::vector<TenantConfig> tenants(3);
  tenants[0].addr = Ipv4Address::MustParse("172.16.3.20");
  tenants[0].config_text =
      "FromNetfront() -> f :: IPFilter(allow udp) -> "
      "r :: IPRewriter(pattern - - 10.0.9.1 - 0 0) -> ToNetfront();";
  tenants[1].addr = Ipv4Address::MustParse("172.16.3.21");
  tenants[1].config_text =
      "FromNetfront() -> CheckIPHeader() -> IPFilter(allow tcp) -> DecIPTTL() -> ToNetfront();";
  tenants[2].addr = Ipv4Address::MustParse("172.16.3.22");
  tenants[2].config_text = "FromNetfront() -> Counter() -> SetTTL(9) -> ToNetfront();";
  Vm::VmId shared = box.InstallConsolidated(tenants, &error);
  ASSERT_NE(shared, 0u) << error;

  obs::Int().SetTenantDigest("client-dedicated-tenant",
                             symexec::ComputePathDigestFromText(kDedicated));
  obs::Int().SetTenantDigest("172.16.3.20",
                             symexec::ComputePathDigestFromText(tenants[0].config_text));
  // The second tenant's digest is registered for a different chain, so its
  // delivered postcards are violations; the third tenant stays unattested.
  obs::Int().SetTenantDigest("172.16.3.21",
                             symexec::ComputePathDigestFromText(tenants[2].config_text));
  clock.RunUntil(sim::FromSeconds(2));

  const char* kDsts[] = {"172.16.3.10", "172.16.3.20", "172.16.3.21", "172.16.3.22"};
  for (uint16_t i = 0; i < 24; ++i) {
    const char* dst = kDsts[i % 4];
    Packet p = i % 5 == 3 ? Tcp(dst, static_cast<uint16_t>(2000 + i))
                          : Udp(dst, static_cast<uint16_t>(1000 + i), i % 7 == 6 ? 7 : 80);
    box.HandlePacket(p);
    clock.RunUntil(clock.now() + sim::kMillisecond);
  }
  std::ostringstream folded;
  box.WriteFoldedStacks(folded);
  ExpectGolden("consolidated", Render(folded.str()));
}

TEST(JourneyGolden, TeeFanOut) {
  ObsGuard guard;
  constexpr const char* kTee =
      "FromNetfront() -> t :: Tee(3); t[0] -> f :: IPFilter(allow udp) -> ToNetfront(); "
      "t[1] -> c :: Counter() -> ToNetfront(); t[2] -> Discard();";
  std::string error;
  auto graph = Graph::FromText(kTee, &error);
  ASSERT_NE(graph, nullptr) << error;
  obs::Int().SetTenantDigest("tee", symexec::ComputePathDigestFromText(kTee));
  GraphProfilerConfig config;
  config.sample_n = 2;
  config.int_sample_n = 1;
  config.walk_prefix = "vm:5";
  config.int_tenant = [](int) { return std::string("tee"); };
  graph->EnableProfiling(config);
  for (uint16_t i = 0; i < 4; ++i) {
    Packet p = i == 2 ? Tcp("10.0.0.2", 99) : Udp("10.0.0.2", static_cast<uint16_t>(1000 + i));
    graph->InjectAtSource(p);
  }
  std::ostringstream folded;
  graph->WriteFolded(folded);
  ExpectGolden("tee", Render(folded.str()));
}

TEST(JourneyGolden, TimedUnqueueChargesDeferredReleaseOutsideTheWalk) {
  ObsGuard guard;
  sim::EventQueue clock;
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
  constexpr const char* kTimed =
      "FromNetfront() -> f :: IPFilter(allow udp) -> b :: TimedUnqueue(0.1,2) -> "
      "r :: IPRewriter(pattern - - 10.0.9.1 - 0 0) -> ToNetfront();";
  std::string error;
  auto graph = Graph::FromText(kTimed, &error, &clock);
  ASSERT_NE(graph, nullptr) << error;
  obs::Int().SetTenantDigest("timed", symexec::ComputePathDigestFromText(kTimed));
  GraphProfilerConfig config;
  config.sample_n = 3;
  config.int_sample_n = 2;
  config.seed = 1;
  config.walk_prefix = "vm:9";
  config.int_tenant = [](int) { return std::string("timed"); };
  graph->EnableProfiling(config);
  for (uint16_t i = 0; i < 5; ++i) {
    Packet p = i == 3 ? Tcp("10.0.0.2", 99) : Udp("10.0.0.2", static_cast<uint16_t>(1000 + i));
    graph->InjectAtSource(p);
    clock.RunUntil(clock.now() + sim::FromMillis(30));
  }
  clock.RunUntil(sim::FromSeconds(1));
  std::ostringstream folded;
  graph->WriteFolded(folded);
  ExpectGolden("timed", Render(folded.str()));
}

TEST(JourneyGolden, HopStackTruncatedPastTheBudget) {
  ObsGuard guard;
  std::string config_text = "FromNetfront()";
  for (int i = 0; i < 30; ++i) {
    config_text += " -> c" + std::to_string(i) + " :: Counter()";
  }
  config_text += " -> ToNetfront();";
  std::string error;
  auto graph = Graph::FromText(config_text, &error);
  ASSERT_NE(graph, nullptr) << error;
  obs::Int().SetTenantDigest("long", symexec::ComputePathDigestFromText(config_text));
  GraphProfilerConfig config;
  config.sample_n = 2;
  config.int_sample_n = 1;
  config.walk_prefix = "vm:2";
  config.int_tenant = [](int) { return std::string("long"); };
  graph->EnableProfiling(config);
  for (uint16_t i = 0; i < 2; ++i) {
    Packet p = Udp("10.0.0.2", static_cast<uint16_t>(1000 + i));
    graph->InjectAtSource(p);
  }
  std::ostringstream folded;
  graph->WriteFolded(folded);
  ExpectGolden("truncated", Render(folded.str()));
}

TEST(JourneyGolden, PostcardsOutliveTheirGraph) {
  ObsGuard guard;
  sim::EventQueue clock;
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
  std::string rendered;
  {
    InNetPlatform box(&clock);
    box.EnableDataplaneProfiling(/*sample_n=*/2, /*seed=*/0, /*int_sample_n=*/1);
    std::vector<TenantConfig> tenants(2);
    tenants[0].addr = Ipv4Address::MustParse("172.16.3.30");
    tenants[0].config_text = "FromNetfront() -> gate :: IPFilter(allow udp) -> ToNetfront();";
    tenants[1].addr = Ipv4Address::MustParse("172.16.3.31");
    tenants[1].config_text = "FromNetfront() -> DecIPTTL() -> ToNetfront();";
    std::string error;
    Vm::VmId shared = box.InstallConsolidated(tenants, &error);
    ASSERT_NE(shared, 0u) << error;
    obs::Int().SetTenantDigest("172.16.3.30",
                               symexec::ComputePathDigestFromText(tenants[0].config_text));
    clock.RunUntil(sim::FromSeconds(2));
    for (uint16_t i = 0; i < 6; ++i) {
      Packet p = i == 4 ? Tcp("172.16.3.30", 77)
                        : Udp(i % 2 == 0 ? "172.16.3.30" : "172.16.3.31",
                              static_cast<uint16_t>(1000 + i));
      box.HandlePacket(p);
    }
    ASSERT_TRUE(box.UninstallVm(shared));
    ASSERT_EQ(box.vms().Find(shared), nullptr);
    // The graph is gone: postcards and the bundle render from what the
    // collector kept.
    box.TakePostmortem(obs::EventKind::kVmCrash, shared, "golden");
    rendered = Render("") + "== recent after teardown ==\n" + RecentLines() +
               "== flight ==\n" + box.flight_recorder().ToJson().ToString(1) + "\n";
  }
  rendered += "== recent after platform ==\n" + RecentLines();
  ExpectGolden("outlives_graph", rendered);
}

}  // namespace
}  // namespace innet
