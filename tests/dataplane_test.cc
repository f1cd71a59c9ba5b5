// Data-plane telemetry coverage: per-element counters and the simulated cost
// model, folded-stack attribution, the deterministic 1-in-N walk sampler and
// its span tree / Perfetto rendering, per-VM and consolidated metric export,
// and the flight recorder's ring + post-mortem bundles.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/click/graph.h"
#include "src/click/profiler.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/platform/watchdog.h"
#include "src/sim/fault_injector.h"

namespace innet {
namespace {

using click::Graph;
using click::GraphProfilerConfig;
using platform::InNetPlatform;
using platform::TenantConfig;
using platform::Vm;

constexpr const char* kChainConfig =
    "FromNetfront() -> IPFilter(allow udp) -> IPRewriter(pattern - - 10.0.9.1 - 0 0) "
    "-> ToNetfront();";

Packet Udp(const char* src, const char* dst, uint16_t sport = 1234, uint16_t dport = 80,
           size_t payload = 32) {
  return Packet::MakeUdp(Ipv4Address::MustParse(src), Ipv4Address::MustParse(dst), sport, dport,
                        payload);
}

// The global tracer is shared across tests in one process: every test that
// enables it must restore the disabled/empty state.
class TracerGuard {
 public:
  TracerGuard() {
    obs::Tracer().Clear();
    obs::Tracer().Enable();
  }
  ~TracerGuard() {
    obs::Tracer().Enable(false);
    obs::Tracer().SetTimeSource(nullptr);
    obs::Tracer().Clear();
  }
};

TEST(ElementCounters, ProcTimeAndPerPortPacketsAccumulate) {
  std::string error;
  auto graph = Graph::FromText(kChainConfig, &error);
  ASSERT_NE(graph, nullptr) << error;
  for (int i = 0; i < 5; ++i) {
    Packet p = Udp("10.0.0.1", "10.0.0.2");
    graph->InjectAtSource(p);
  }
  click::Element* filter = graph->FindByClass("IPFilter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->packets(), 5u);
  EXPECT_GT(filter->proc_ns(), 0u);
  EXPECT_EQ(filter->port_packets(0), 5u);   // all matched "allow udp"
  EXPECT_EQ(filter->port_packets(99), 0u);  // out-of-range reads as zero

  // The cost model is a pure function of (class, length): same packet, same
  // cost, so proc_ns is exactly 5x the per-packet cost.
  Packet probe = Udp("10.0.0.1", "10.0.0.2");
  EXPECT_EQ(filter->proc_ns(), 5 * filter->SimulatedCostNs(probe));
}

TEST(ElementCounters, GraphExportIncludesProcNsAndPortCounters) {
  std::string error;
  auto graph = Graph::FromText(kChainConfig, &error);
  ASSERT_NE(graph, nullptr) << error;
  Packet p = Udp("10.0.0.1", "10.0.0.2");
  graph->InjectAtSource(p);

  obs::MetricsRegistry registry;
  graph->ExportMetrics(&registry, {{"vm", "7"}});
  click::Element* filter = graph->FindByClass("IPFilter");
  ASSERT_NE(filter, nullptr);
  obs::Labels labels = {{"vm", "7"},
                        {"element", filter->name()},
                        {"class", "IPFilter"}};
  EXPECT_EQ(registry.GetCounter("innet_element_proc_ns_total", labels)->value(),
            static_cast<double>(filter->proc_ns()));
  obs::Labels port_labels = labels;
  port_labels.emplace_back("port", "0");
  EXPECT_EQ(registry.GetCounter("innet_element_port_packets_total", port_labels)->value(), 1.0);
}

TEST(FoldedStacks, DeterministicAcrossRunsAndChainShaped) {
  auto run = [] {
    std::string error;
    auto graph = Graph::FromText(kChainConfig, &error);
    EXPECT_NE(graph, nullptr) << error;
    GraphProfilerConfig config;
    config.walk_prefix = "vm:1";
    graph->EnableProfiling(config);
    for (int i = 0; i < 3; ++i) {
      Packet allowed = Udp("10.0.0.1", "10.0.0.2");
      graph->InjectAtSource(allowed);
    }
    Packet denied = Packet::MakeTcp(Ipv4Address::MustParse("10.0.0.1"),
                                    Ipv4Address::MustParse("10.0.0.2"), 1, 2, 0, 8);
    graph->InjectAtSource(denied);
    std::ostringstream out;
    graph->WriteFolded(out);
    return out.str();
  };
  std::string first = run();
  EXPECT_EQ(first, run());
  // Chains deepen one element at a time and carry the walk prefix.
  EXPECT_NE(first.find("vm:1;FromNetfront@0 "), std::string::npos) << first;
  EXPECT_NE(first.find("vm:1;FromNetfront@0;IPFilter@1;IPRewriter@2;ToNetfront@3 "),
            std::string::npos)
      << first;
}

TEST(WalkSampler, OneInNSelectionIsDeterministic) {
  TracerGuard tracer;
  std::string error;
  auto graph = Graph::FromText(kChainConfig, &error);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.sample_n = 4;
  config.seed = 7;
  config.walk_prefix = "vm:1";
  graph->EnableProfiling(config);
  for (int i = 0; i < 16; ++i) {
    Packet p = Udp("10.0.0.1", "10.0.0.2");
    graph->InjectAtSource(p);
  }
  ASSERT_NE(graph->profiler(), nullptr);
  EXPECT_EQ(graph->profiler()->walks(), 16u);
  // walks ≡ seed (mod 4): ordinals 3, 7, 11, 15.
  EXPECT_EQ(graph->profiler()->sampled_walks(), 4u);

  // A sampled walk is one connected tree: ingress span, one element span per
  // hop nested under the previous, closed by egress.
  uint64_t ingress_span = 0;
  uint64_t last_span = 0;
  int element_spans = 0;
  bool saw_egress = false;
  for (const obs::TraceEvent& event : obs::Tracer().events()) {
    if (event.target != "vm:1/packet:3") {
      continue;
    }
    if (event.kind == obs::EventKind::kPacketIngress) {
      ingress_span = event.span;
      last_span = event.span;
    } else if (event.kind == obs::EventKind::kElementProcess) {
      EXPECT_EQ(event.parent, last_span);
      last_span = event.span;
      ++element_spans;
    } else if (event.kind == obs::EventKind::kPacketEgress) {
      EXPECT_EQ(event.parent, ingress_span);
      saw_egress = true;
    }
  }
  EXPECT_NE(ingress_span, 0u);
  EXPECT_EQ(element_spans, 4);
  EXPECT_TRUE(saw_egress);
}

TEST(WalkSampler, SampledWalkRendersAsPerfettoSliceChain) {
  TracerGuard tracer;
  std::string error;
  auto graph = Graph::FromText(kChainConfig, &error);
  ASSERT_NE(graph, nullptr) << error;
  GraphProfilerConfig config;
  config.sample_n = 1;  // sample everything
  config.walk_prefix = "vm:1";
  graph->EnableProfiling(config);
  Packet p = Udp("10.0.0.1", "10.0.0.2");
  graph->InjectAtSource(p);

  obs::json::Value perfetto = obs::Tracer().ToPerfettoJson();
  const obs::json::Value* events = perfetto.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int slices = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const obs::json::Value* ph = events->at(i).Find("ph");
    const obs::json::Value* name = events->at(i).Find("name");
    if (ph == nullptr || name == nullptr || ph->string_value() != "X") {
      continue;
    }
    if (name->string_value() == "packet_ingress" ||
        name->string_value() == "element_process") {
      ++slices;
      // A complete slice must carry a duration.
      EXPECT_NE(events->at(i).Find("dur"), nullptr);
    }
  }
  // ingress + 4 elements, all as connected "X" slices (not instants).
  EXPECT_EQ(slices, 5);
}

TEST(PlatformExport, DedicatedAndConsolidatedElementAttribution) {
  sim::EventQueue clock;
  InNetPlatform box(&clock);
  box.EnableDataplaneProfiling(0, 0);
  std::string error;
  Vm::VmId dedicated =
      box.Install(Ipv4Address::MustParse("172.16.3.10"), kChainConfig, &error);
  ASSERT_NE(dedicated, 0u) << error;
  box.SetVmOwner(dedicated, "172.16.3.10");
  std::vector<TenantConfig> tenants(2);
  tenants[0].addr = Ipv4Address::MustParse("172.16.3.20");
  tenants[0].config_text = "FromNetfront() -> IPFilter(allow udp) -> ToNetfront();";
  tenants[1].addr = Ipv4Address::MustParse("172.16.3.21");
  tenants[1].config_text = "FromNetfront() -> RateLimiter(1000) -> ToNetfront();";
  Vm::VmId consolidated = box.InstallConsolidated(tenants, &error);
  ASSERT_NE(consolidated, 0u) << error;
  clock.RunUntil(sim::FromSeconds(2));

  for (const char* dst : {"172.16.3.10", "172.16.3.20", "172.16.3.21"}) {
    Packet p = Udp("9.9.9.9", dst);
    box.HandlePacket(p);
  }
  clock.RunUntil(sim::FromSeconds(3));

  obs::MetricsRegistry registry;
  box.ExportMetrics(&registry);

  // Dedicated guest: plain element names, tenant = the owner set above.
  bool saw_dedicated = false;
  bool saw_consolidated_t1 = false;
  obs::json::Value dump = registry.ToJson();
  const obs::json::Value* metrics = dump.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (size_t i = 0; i < metrics->size(); ++i) {
    const obs::json::Value& entry = metrics->at(i);
    const obs::json::Value* name = entry.Find("name");
    if (name == nullptr || name->string_value() != "innet_element_packets_total") {
      continue;
    }
    const obs::json::Value* labels = entry.Find("labels");
    ASSERT_NE(labels, nullptr);
    const obs::json::Value* tenant = labels->Find("tenant");
    const obs::json::Value* element = labels->Find("element");
    ASSERT_NE(tenant, nullptr);
    ASSERT_NE(element, nullptr);
    if (element->string_value() == "IPFilter@1" && tenant->string_value() == "172.16.3.10") {
      saw_dedicated = true;
    }
    // Consolidated guest: the t1_ prefix attributes the element to the
    // second tenant's address.
    if (element->string_value().rfind("t1_", 0) == 0) {
      EXPECT_EQ(tenant->string_value(), "172.16.3.21");
      saw_consolidated_t1 = true;
    }
  }
  EXPECT_TRUE(saw_dedicated);
  EXPECT_TRUE(saw_consolidated_t1);
}

TEST(FlightRecorder, RingIsBoundedAndOldestFirst) {
  obs::FlightRecorder recorder;
  recorder.set_depth(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(static_cast<uint64_t>(i), obs::EventKind::kPacketIngress, "vm:1", "",
                    i);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  std::vector<obs::FlightEvent> events = recorder.RecentEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().value, 6);  // 6,7,8,9 survive, oldest first
  EXPECT_EQ(events.back().value, 9);
}

TEST(FlightRecorder, PostmortemCapEvictsOldestButKeepsCount) {
  obs::FlightRecorder recorder;
  recorder.set_max_postmortems(2);
  for (int i = 0; i < 3; ++i) {
    obs::PostmortemBundle bundle;
    bundle.target = "vm:" + std::to_string(i);
    recorder.SnapshotPostmortem(std::move(bundle));
  }
  EXPECT_EQ(recorder.postmortems().size(), 2u);
  EXPECT_EQ(recorder.evicted_postmortems(), 1u);
  EXPECT_EQ(recorder.postmortems().front().target, "vm:1");
  // The evicted bundle's cached elements are gone too.
  EXPECT_EQ(recorder.LastElementsFor("vm:0"), nullptr);
}

TEST(FlightRecorder, CrashSnapshotsElementCountersBeforeGraphTeardown) {
  sim::EventQueue clock;
  InNetPlatform box(&clock);
  std::string error;
  Vm::VmId id = box.Install(Ipv4Address::MustParse("172.16.3.10"), kChainConfig, &error);
  ASSERT_NE(id, 0u) << error;
  box.SetVmOwner(id, "172.16.3.10");
  clock.RunUntil(sim::FromSeconds(1));
  for (int i = 0; i < 3; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10");
    box.HandlePacket(p);
  }
  ASSERT_TRUE(box.vms().Crash(id));

  const obs::FlightRecorder& flight = box.flight_recorder();
  ASSERT_EQ(flight.postmortems().size(), 1u);
  const obs::PostmortemBundle& bundle = flight.postmortems().front();
  EXPECT_EQ(bundle.trigger, obs::EventKind::kVmCrash);
  EXPECT_EQ(bundle.target, "vm:" + std::to_string(id));
  EXPECT_EQ(bundle.tenant, "172.16.3.10");
  ASSERT_EQ(bundle.elements.size(), 4u);  // the chain's four elements
  EXPECT_EQ(bundle.elements[1].element_class, "IPFilter");
  EXPECT_EQ(bundle.elements[1].packets, 3u);
  EXPECT_GT(bundle.elements[1].proc_ns, 0u);
  // The ring ends with the trigger itself, preceded by the packet ingresses.
  ASSERT_FALSE(bundle.events.empty());
  EXPECT_EQ(bundle.events.back().kind, obs::EventKind::kVmCrash);
}

TEST(FlightRecorder, WatchdogGiveUpReusesLastSnapshotAfterGraphIsGone) {
  sim::EventQueue clock;
  InNetPlatform box(&clock);
  box.EnableWatchdog();
  std::string error;
  Vm::VmId id = box.Install(Ipv4Address::MustParse("172.16.3.10"), kChainConfig, &error);
  ASSERT_NE(id, 0u) << error;
  clock.RunUntil(sim::FromSeconds(1));
  Packet p = Udp("9.9.9.9", "172.16.3.10");
  box.HandlePacket(p);

  // Every restart fails from here: crash -> retries exhausted -> give-up.
  sim::FaultPlan plan;
  plan.boot_failure_p = 1.0;
  sim::FaultInjector injector(plan);
  box.SetFaultInjector(&injector);
  ASSERT_TRUE(box.vms().Crash(id));
  clock.RunUntil(sim::FromSeconds(30));
  ASSERT_EQ(box.vms().Find(id), nullptr);  // retired

  const obs::FlightRecorder& flight = box.flight_recorder();
  ASSERT_GE(flight.postmortems().size(), 2u);
  const obs::PostmortemBundle& give_up = flight.postmortems().back();
  EXPECT_EQ(give_up.trigger, obs::EventKind::kWatchdogGiveUp);
  // The graph died with the crash, but the give-up bundle still carries the
  // element counters cached from the crash snapshot.
  EXPECT_EQ(give_up.elements.size(), 4u);
  EXPECT_EQ(give_up.events.back().kind, obs::EventKind::kWatchdogGiveUp);
}

TEST(FlightRecorder, PeriodicCaptureBackfillsTargetsWithoutBundles) {
  obs::FlightRecorder recorder;
  EXPECT_EQ(recorder.LastElementsFor("vm:7"), nullptr);

  // An empty capture is ignored — it would shadow nothing useful.
  recorder.NotePeriodicElements("vm:7", {});
  EXPECT_EQ(recorder.LastElementsFor("vm:7"), nullptr);

  obs::ElementCounterDelta delta;
  delta.element = "IPFilter@1";
  delta.element_class = "IPFilter";
  delta.packets = 5;
  recorder.NotePeriodicElements("vm:7", {delta});
  const std::vector<obs::ElementCounterDelta>* periodic = recorder.LastElementsFor("vm:7");
  ASSERT_NE(periodic, nullptr);
  EXPECT_EQ(periodic->at(0).packets, 5u);

  // A bundle that actually captured elements takes precedence over the
  // periodic store; a newer capture replaces the old one for other targets.
  obs::PostmortemBundle bundle;
  bundle.target = "vm:7";
  delta.packets = 9;
  bundle.elements.push_back(delta);
  recorder.SnapshotPostmortem(std::move(bundle));
  ASSERT_NE(recorder.LastElementsFor("vm:7"), nullptr);
  EXPECT_EQ(recorder.LastElementsFor("vm:7")->at(0).packets, 9u);

  recorder.Clear();
  EXPECT_EQ(recorder.LastElementsFor("vm:7"), nullptr);
}

// The regression this guards: a postmortem taken after the graph is torn down
// AND after the guest's crash bundle was evicted (crash storm) used to report
// zero elements. The watchdog sweep now captures every live graph's counters
// periodically, and TakePostmortem falls back to that capture.
TEST(FlightRecorder, PostmortemAfterTeardownServesPeriodicSweepCounters) {
  sim::EventQueue clock;
  InNetPlatform box(&clock);
  box.EnableWatchdog();  // sweeps every 25ms -> periodic captures
  std::string error;
  Vm::VmId id = box.Install(Ipv4Address::MustParse("172.16.3.10"), kChainConfig, &error);
  ASSERT_NE(id, 0u) << error;
  box.SetVmOwner(id, "172.16.3.10");
  clock.RunUntil(sim::FromSeconds(1));
  for (int i = 0; i < 3; ++i) {
    Packet p = Udp("9.9.9.9", "172.16.3.10");
    box.HandlePacket(p);
  }
  // Let at least one watchdog sweep observe the post-traffic counters.
  clock.RunUntil(sim::FromSeconds(2));

  // Keep exactly one bundle so the crash storm below evicts this guest's
  // crash-time snapshot, as a real storm would.
  box.flight_recorder().set_max_postmortems(1);
  ASSERT_TRUE(box.vms().Crash(id));  // graph torn down after the crash bundle
  box.TakePostmortem(obs::EventKind::kVmCrash, 999, "unrelated guest in the storm");
  ASSERT_EQ(box.flight_recorder().postmortems().size(), 1u);
  ASSERT_EQ(box.flight_recorder().postmortems().front().target, "vm:999")
      << "precondition: the crash bundle must be evicted for this test to bite";

  box.TakePostmortem(obs::EventKind::kWatchdogGiveUp, id, "gave up after storm");
  const obs::PostmortemBundle& give_up = box.flight_recorder().postmortems().back();
  EXPECT_EQ(give_up.trigger, obs::EventKind::kWatchdogGiveUp);
  ASSERT_EQ(give_up.elements.size(), 4u)
      << "give-up bundle must serve counters from the last periodic sweep, not empty";
  EXPECT_EQ(give_up.elements[1].element_class, "IPFilter");
  EXPECT_EQ(give_up.elements[1].packets, 3u);
}

TEST(FlightRecorder, JsonRoundTripCarriesBundles) {
  obs::FlightRecorder recorder;
  recorder.Record(5, obs::EventKind::kPacketIngress, "vm:1", "", 64);
  obs::PostmortemBundle bundle;
  bundle.time_ns = 9;
  bundle.trigger = obs::EventKind::kVmCrash;
  bundle.target = "vm:1";
  bundle.tenant = "172.16.3.10";
  obs::ElementCounterDelta delta;
  delta.element = "IPFilter@1";
  delta.element_class = "IPFilter";
  delta.packets = 3;
  bundle.elements.push_back(delta);
  recorder.SnapshotPostmortem(std::move(bundle));

  obs::json::Value json = recorder.ToJson();
  const obs::json::Value* postmortems = json.Find("postmortems");
  ASSERT_NE(postmortems, nullptr);
  ASSERT_EQ(postmortems->size(), 1u);
  const obs::json::Value& entry = postmortems->at(0);
  EXPECT_EQ(entry.Find("trigger")->string_value(), "vm_crash");
  EXPECT_EQ(entry.Find("tenant")->string_value(), "172.16.3.10");
  ASSERT_EQ(entry.Find("elements")->size(), 1u);
  EXPECT_EQ(entry.Find("elements")->at(0).Find("class")->string_value(), "IPFilter");
  ASSERT_EQ(entry.Find("events")->size(), 1u);
  EXPECT_EQ(entry.Find("events")->at(0).Find("kind")->string_value(), "packet_ingress");
}

}  // namespace
}  // namespace innet
