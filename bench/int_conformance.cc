// In-band telemetry + path-conformance attestation, end to end.
//
// Phase 1 (clean): a full orchestrated deploy registers the tenant's
// verify-time path digest with the INT collector; a steady packet drip with
// every walk INT-tagged must produce zero conformance violations — the data
// plane walks exactly the element sequences SymNet explored at verify time.
//
// Phase 2 (mutated): mid-run, the live guest graph is rewired so the filter
// bypasses the rewriter — the kind of silent data-plane divergence (bad
// config push, memory corruption, compromised guest) attestation exists to
// catch. Every delivered packet now follows a chain the digest has no full
// path for: the bench asserts violations are counted, the path_violation
// trace events fire, and the tenant's health state leaves kOk — all within
// one time-series sampling window of the mutation.
//
// Emits BENCH_int_conformance.json: clean/violation phase counters, per-hop
// latency series, the collector dump, the health report, and the windowed
// time series. Byte-deterministic: everything rides the sim clock.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/controller/orchestrator.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/topology/network.h"

namespace {

using namespace innet;

constexpr uint64_t kSeed = 11;
constexpr uint32_t kIntSampleN = 2;  // attest every other walk
constexpr double kTrafficStartSec = 3.0;
constexpr double kMutateSec = 6.0;
constexpr double kHorizonSec = 9.0;
constexpr uint64_t kWindowNs = 500'000'000;  // 500 ms sampling window

// The Queue keeps occupancy state, so the deploy lands on a dedicated guest
// whose graph the bench can reach and mutate.
constexpr const char* kConfig =
    "FromNetfront() -> filter :: IPFilter(allow udp) -> "
    "rewriter :: IPRewriter(pattern - - 10.0.9.1 - 0 0) -> q :: Queue(64) -> ToNetfront();";

}  // namespace

int main() {
  sim::EventQueue clock;
  obs::Tracer().Enable();
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
  obs::Health().Enable();
  obs::Int().Enable();

  obs::TimeSeriesSampler sampler;
  sampler.set_window_ns(kWindowNs);

  bench::PrintHeader("INT path-conformance attestation: clean phase, then a mid-run rewire");

  controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  controller::ClientRequest request;
  request.client_id = "intbench";
  request.requester = controller::RequesterClass::kOperator;
  request.click_config = kConfig;
  controller::OrchestratedDeploy deployed = orch.Deploy(request);
  if (!deployed.outcome.accepted) {
    std::fprintf(stderr, "deploy rejected: %s\n", deployed.outcome.reason.c_str());
    return 1;
  }
  if (deployed.consolidated) {
    std::fprintf(stderr, "expected a dedicated guest (stateful config), got consolidated\n");
    return 1;
  }
  if (!obs::Int().HasTenantDigest(request.client_id)) {
    std::fprintf(stderr, "deploy did not register a path digest for %s\n",
                 request.client_id.c_str());
    return 1;
  }
  clock.RunUntil(clock.now() + sim::FromSeconds(2));

  platform::InNetPlatform* box = orch.platform(deployed.outcome.platform);
  box->EnableDataplaneProfiling(/*sample_n=*/0, kSeed, kIntSampleN);
  std::printf("deployed %s on %s (vm %llu), digest registered, INT 1/%u\n",
              deployed.outcome.module_id.c_str(), deployed.outcome.platform.c_str(),
              static_cast<unsigned long long>(deployed.vm_id), kIntSampleN);

  // Steady drip, 1 packet/ms, from traffic start to the horizon. The walk
  // parity (and with it which packets carry INT state) is fixed by the seed.
  const int packets = static_cast<int>((kHorizonSec - kTrafficStartSec) * 1000);
  Ipv4Address module_addr = deployed.outcome.module_addr;
  for (int tick = 0; tick < packets; ++tick) {
    clock.ScheduleAt(sim::FromSeconds(kTrafficStartSec) + sim::FromMillis(tick),
                     [&box, module_addr, tick] {
                       Packet p = Packet::MakeUdp(Ipv4Address::MustParse("9.9.9.9"), module_addr,
                                                  static_cast<uint16_t>(7000 + tick % 64), 80, 64);
                       box->HandlePacket(p);
                     });
  }

  // Sampler tick riding the sim clock, as in innet_run.
  std::function<void()> schedule_window = [&] {
    clock.ScheduleAfter(sampler.window_ns(), [&] {
      sampler.SampleWindow(clock.now());
      schedule_window();
    });
  };
  schedule_window();

  // --- Phase 1: clean ---------------------------------------------------------------
  clock.RunUntil(sim::FromSeconds(kMutateSec));
  uint64_t clean_postcards = obs::Int().postcards();
  uint64_t clean_violations = obs::Int().violations();
  std::printf("clean phase:    %llu postcards, %llu violations\n",
              static_cast<unsigned long long>(clean_postcards),
              static_cast<unsigned long long>(clean_violations));
  if (clean_postcards == 0) {
    std::fprintf(stderr, "clean phase produced no postcards — INT sampling is dead\n");
    return 1;
  }
  if (clean_violations != 0) {
    std::fprintf(stderr, "clean phase must be violation-free (false positives)\n");
    return 1;
  }

  // --- Mutation: rewire the live graph past the rewriter ----------------------------
  platform::Vm* vm = box->vms().Find(deployed.vm_id);
  if (vm == nullptr || vm->graph() == nullptr) {
    std::fprintf(stderr, "deployed guest has no live graph\n");
    return 1;
  }
  click::Element* filter = vm->graph()->Find("filter");
  click::Element* sink = vm->graph()->FindByClass("ToNetfront");
  if (filter == nullptr || sink == nullptr) {
    std::fprintf(stderr, "mutation targets missing from the guest graph\n");
    return 1;
  }
  filter->ConnectOutput(0, sink, 0);
  uint64_t mutate_ns = clock.now();
  std::printf("t=%.1fs mutated: filter now bypasses the rewriter\n",
              sim::ToSeconds(mutate_ns));

  // --- Phase 2: every delivered walk is now off the verified path set ---------------
  clock.RunUntil(sim::FromSeconds(kHorizonSec));
  sampler.SampleWindow(clock.now());  // flush the tail window
  uint64_t total_violations = obs::Int().violations();
  uint64_t tenant_violations = obs::Int().TenantViolations(request.client_id);
  std::printf("mutated phase:  %llu postcards, %llu violations (%llu for %s)\n",
              static_cast<unsigned long long>(obs::Int().postcards() - clean_postcards),
              static_cast<unsigned long long>(total_violations),
              static_cast<unsigned long long>(tenant_violations), request.client_id.c_str());
  if (total_violations == 0 || tenant_violations == 0) {
    std::fprintf(stderr, "mutation went undetected: no conformance violations counted\n");
    return 1;
  }

  // Detection latency: sim time from the rewire to the first path_violation
  // trace event. Must land inside one sampling window.
  uint64_t first_violation_ns = 0;
  uint64_t violation_events = 0;
  for (const obs::TraceEvent& event : obs::Tracer().events()) {
    if (event.kind == obs::EventKind::kPathViolation) {
      ++violation_events;
      if (first_violation_ns == 0) {
        first_violation_ns = event.time_ns;
      }
    }
  }
  if (violation_events == 0 || first_violation_ns < mutate_ns) {
    std::fprintf(stderr, "expected path_violation trace events after the mutation\n");
    return 1;
  }
  uint64_t detect_ns = first_violation_ns - mutate_ns;
  std::printf("detection:      first path_violation %.1f ms after the rewire "
              "(%llu trace events)\n",
              static_cast<double>(detect_ns) / 1e6,
              static_cast<unsigned long long>(violation_events));
  if (detect_ns > kWindowNs) {
    std::fprintf(stderr, "detection took longer than one sampling window\n");
    return 1;
  }

  obs::Health().EvaluateAll();
  obs::HealthState tenant_state = obs::Health().CurrentState(request.client_id);
  std::printf("health:         tenant %s is %s\n", request.client_id.c_str(),
              obs::HealthStateName(tenant_state));
  if (tenant_state == obs::HealthState::kOk) {
    std::fprintf(stderr, "path violations must push the tenant out of kOk\n");
    return 1;
  }

  box->ExportMetrics(&obs::Registry());
  obs::Tracer().ExportMetrics(&obs::Registry());

  // Per-hop latency totals for the two tenant elements, straight from the
  // counters the collector folds — the snapshot pins them exactly.
  uint64_t filter_hop_ns =
      obs::Registry().GetCounter("innet_int_hop_ns_total", {{"element", "filter"}})->value();
  uint64_t rewriter_hop_ns =
      obs::Registry().GetCounter("innet_int_hop_ns_total", {{"element", "rewriter"}})->value();
  std::printf("hop latency:    filter %llu ns total, rewriter %llu ns total\n",
              static_cast<unsigned long long>(filter_hop_ns),
              static_cast<unsigned long long>(rewriter_hop_ns));

  bench::BenchSeries series;
  series.Add("clean_postcards", static_cast<double>(clean_postcards), "postcards");
  series.Add("clean_violations", static_cast<double>(clean_violations), "violations");
  series.Add("violations_detected", static_cast<double>(total_violations), "violations");
  series.Add("detect_ms", static_cast<double>(detect_ns) / 1e6, "ms");
  series.Add("filter_hop_ns", static_cast<double>(filter_hop_ns), "ns");
  series.Add("rewriter_hop_ns", static_cast<double>(rewriter_hop_ns), "ns");

  obs::json::Value results = obs::json::Value::Object();
  results.Set("series", series.ToJson());
  results.Set("clean_postcards", clean_postcards);
  results.Set("clean_violations", clean_violations);
  results.Set("total_postcards", obs::Int().postcards());
  results.Set("total_violations", total_violations);
  results.Set("tenant_violations", tenant_violations);
  results.Set("violation_events", violation_events);
  results.Set("mutate_ns", mutate_ns);
  results.Set("first_violation_ns", first_violation_ns);
  results.Set("detect_ns", detect_ns);
  results.Set("tenant_health", obs::HealthStateName(tenant_state));
  results.Set("int", obs::Int().ToJson());
  results.Set("health", obs::Health().ToJson());
  results.Set("timeseries", sampler.ToJson());
  results.Set("metrics", obs::Registry().ToJson());
  if (!bench::WriteBenchJson("int_conformance", std::move(results))) {
    return 1;
  }
  return 0;
}
