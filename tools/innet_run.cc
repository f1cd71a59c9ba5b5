// innet_run: run a Click configuration and trace packets through it — the
// developer-facing debugging loop for writing In-Net modules.
//
// Usage:
//   innet_run --config FILE [--packets FILE] [--clock-until SECONDS]
//             [--metrics-out FILE] [--trace-out FILE] [--perfetto-out FILE]
//             [--health-out FILE]
//             [--timeseries-out FILE] [--timeseries-window-ms W]
//             [--placement-policy first_fit|least_loaded|bin_pack]
//             [--dataplane-sample-n N] [--dataplane-seed S]
//             [--int-sample-n N] [--int-out FILE]
//             [--folded-out FILE] [--flight-recorder-depth K] [--flight-out FILE]
//             [--control-loss P] [--control-dup P] [--control-reorder P]
//             [--control-delay-ms D] [--control-seed S]
//
// The packets file has one packet per line:
//   udp  SRC[:SPORT] DST[:DPORT] [payload "TEXT"] [at SECONDS]
//   tcp  SRC[:SPORT] DST[:DPORT] [syn] [payload "TEXT"] [at SECONDS]
//   icmp SRC DST [at SECONDS]
// Without --packets, a single UDP probe to the first ToNetfront is sent.
//
// With any of the dump flags, the config additionally goes through the full
// stack: the orchestrator admits the request, the placement engine ranks the
// Figure 3 platforms (--placement-policy, default first_fit), the controller
// verifies the candidates in order, and a ClickOS guest boots on the chosen
// platform — so the dump contains admission/verification/boot telemetry next
// to the per-element packet counters, and the trace contains one connected
// deploy span tree (deploy_request → admission → verify → boot → cutover).
// Everything derives from the simulated clock and deterministic work counts:
// two runs produce byte-identical files.
//
// --trace-out writes the native event dump; --perfetto-out writes the same
// events as Chrome/Perfetto trace_event JSON (load in ui.perfetto.dev).
// --health-out writes the per-tenant SLO health report.
//
// Data-plane telemetry: --dataplane-sample-n N turns on per-element profiling
// (folded-stack attribution for every packet, plus a full element-by-element
// walk trace for 1 in N packets, chosen deterministically from
// --dataplane-seed). --folded-out writes the folded chains
// ("prefix;a;b;c weight") for flamegraph.pl / speedscope. The platform's
// flight recorder is always on; --flight-recorder-depth sizes its ring and
// --flight-out dumps the ring + any post-mortem bundles as JSON
// (render with innet_top --postmortem).
//
// In-band telemetry: --int-sample-n N tags 1 in N packet walks
// (deterministic, seeded from --dataplane-seed) with an in-band hop stack;
// each tagged packet carries per-element hop records to its egress or drop
// point, where the collector folds them into per-tenant path latency and —
// once the full-stack deploy has registered the verify-time path digest —
// attests the observed element sequence against the SymNet-verified path
// set, counting innet_path_conformance_violations_total on mismatch.
// --int-out dumps the collector (render with innet_top --int).
//
// Time-series telemetry: --timeseries-out samples every registry instrument
// on a fixed sim-clock cadence (--timeseries-window-ms, default 100) into
// bounded per-metric rings — counters become per-window rates, histograms
// windowed p50/p99 — and dumps them with any anomaly flags the EWMA detector
// raised (drop-rate spikes, verify-latency inflation, control retry storms).
// Like every other dump, the file is byte-identical across repeat seeded
// runs. Render with innet_top --timeseries.
//
// Control-plane chaos: any of --control-loss/--control-dup/--control-reorder/
// --control-delay-ms routes the install over the lossy control channel
// (seeded from --control-seed, default 42) instead of the fault-exempt direct
// path, so the orchestrator's idempotent retries and deploy journal do the
// converging; a channel counter summary is printed after the deploy.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/controller/controller.h"
#include "src/controller/orchestrator.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace {

using namespace innet;

struct PacketSpec {
  Packet packet;
  double at_sec = 0;
};

bool ParseEndpoint(const std::string& text, Ipv4Address* addr, uint16_t* port) {
  size_t colon = text.find(':');
  std::string addr_text = colon == std::string::npos ? text : text.substr(0, colon);
  auto parsed = Ipv4Address::Parse(addr_text);
  if (!parsed) {
    return false;
  }
  *addr = *parsed;
  if (colon != std::string::npos) {
    *port = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
  }
  return true;
}

bool ParsePacketLine(const std::string& line, PacketSpec* spec, std::string* error) {
  std::istringstream in(line);
  std::string proto;
  std::string src_text;
  std::string dst_text;
  if (!(in >> proto >> src_text >> dst_text)) {
    *error = "expected: PROTO SRC DST ...";
    return false;
  }
  Ipv4Address src;
  Ipv4Address dst;
  uint16_t sport = 1234;
  uint16_t dport = 80;
  if (!ParseEndpoint(src_text, &src, &sport) || !ParseEndpoint(dst_text, &dst, &dport)) {
    *error = "bad address in '" + line + "'";
    return false;
  }

  bool syn = false;
  std::string payload;
  std::string word;
  double at = 0;
  while (in >> word) {
    if (word == "syn") {
      syn = true;
    } else if (word == "payload") {
      std::string rest;
      std::getline(in, rest);
      size_t open = rest.find('"');
      size_t close = rest.rfind('"');
      if (open == std::string::npos || close <= open) {
        *error = "payload needs \"quotes\"";
        return false;
      }
      payload = rest.substr(open + 1, close - open - 1);
      std::istringstream tail(rest.substr(close + 1));
      std::string t;
      while (tail >> t) {
        if (t == "at") {
          tail >> at;
        }
      }
      break;
    } else if (word == "at") {
      in >> at;
    } else {
      *error = "unknown token '" + word + "'";
      return false;
    }
  }

  size_t payload_len = payload.empty() ? 32 : payload.size();
  if (proto == "udp") {
    spec->packet = Packet::MakeUdp(src, dst, sport, dport, payload_len);
  } else if (proto == "tcp") {
    spec->packet = Packet::MakeTcp(src, dst, sport, dport, syn ? kTcpSyn : 0, payload_len);
  } else if (proto == "icmp") {
    spec->packet = Packet::MakeIcmpEcho(src, dst, sport, dport);
  } else {
    *error = "unknown protocol '" + proto + "'";
    return false;
  }
  if (!payload.empty()) {
    spec->packet.SetPayload(payload);
  }
  spec->at_sec = at;
  return true;
}

// Recurring sampling tick: each firing closes the current window and
// schedules the next. Stack-allocated in main; events only run inside
// RunUntil windows, so the self-reschedule cannot spin.
struct SamplerTicker {
  sim::EventQueue* clock = nullptr;
  obs::TimeSeriesSampler* sampler = nullptr;
  void Schedule() {
    clock->ScheduleAfter(sampler->window_ns(), [this] {
      sampler->SampleWindow(clock->now());
      Schedule();
    });
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string packets_path;
  std::string metrics_out;
  std::string trace_out;
  std::string perfetto_out;
  std::string health_out;
  std::string placement_policy;
  std::string folded_out;
  std::string flight_out;
  std::string timeseries_out;
  double timeseries_window_ms = 100;
  double clock_until = 1.0;
  uint32_t sample_n = 0;
  uint32_t int_sample_n = 0;
  std::string int_out;
  uint64_t dataplane_seed = 0;
  size_t flight_depth = 0;  // 0 = keep the recorder's default
  double control_loss = 0;
  double control_dup = 0;
  double control_reorder = 0;
  double control_delay_ms = 0;
  uint64_t control_seed = 42;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--packets" && i + 1 < argc) {
      packets_path = argv[++i];
    } else if (arg == "--clock-until" && i + 1 < argc) {
      clock_until = std::atof(argv[++i]);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--perfetto-out" && i + 1 < argc) {
      perfetto_out = argv[++i];
    } else if (arg == "--health-out" && i + 1 < argc) {
      health_out = argv[++i];
    } else if (arg == "--timeseries-out" && i + 1 < argc) {
      timeseries_out = argv[++i];
    } else if (arg == "--timeseries-window-ms" && i + 1 < argc) {
      timeseries_window_ms = std::atof(argv[++i]);
    } else if (arg == "--placement-policy" && i + 1 < argc) {
      placement_policy = argv[++i];
    } else if (arg == "--dataplane-sample-n" && i + 1 < argc) {
      sample_n = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--dataplane-seed" && i + 1 < argc) {
      dataplane_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--int-sample-n" && i + 1 < argc) {
      int_sample_n = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--int-out" && i + 1 < argc) {
      int_out = argv[++i];
    } else if (arg == "--folded-out" && i + 1 < argc) {
      folded_out = argv[++i];
    } else if (arg == "--flight-recorder-depth" && i + 1 < argc) {
      flight_depth = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--flight-out" && i + 1 < argc) {
      flight_out = argv[++i];
    } else if (arg == "--control-loss" && i + 1 < argc) {
      control_loss = std::atof(argv[++i]);
    } else if (arg == "--control-dup" && i + 1 < argc) {
      control_dup = std::atof(argv[++i]);
    } else if (arg == "--control-reorder" && i + 1 < argc) {
      control_reorder = std::atof(argv[++i]);
    } else if (arg == "--control-delay-ms" && i + 1 < argc) {
      control_delay_ms = std::atof(argv[++i]);
    } else if (arg == "--control-seed" && i + 1 < argc) {
      control_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s --config FILE [--packets FILE] [--clock-until SECONDS]\n"
                   "          [--metrics-out FILE] [--trace-out FILE] [--perfetto-out FILE]\n"
                   "          [--health-out FILE]\n"
                   "          [--timeseries-out FILE] [--timeseries-window-ms W]\n"
                   "          [--placement-policy first_fit|least_loaded|bin_pack]\n"
                   "          [--dataplane-sample-n N] [--dataplane-seed S]\n"
                   "          [--int-sample-n N] [--int-out FILE]\n"
                   "          [--folded-out FILE] [--flight-recorder-depth K] "
                   "[--flight-out FILE]\n"
                   "          [--control-loss P] [--control-dup P] [--control-reorder P]\n"
                   "          [--control-delay-ms D] [--control-seed S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config_path.empty()) {
    std::fprintf(stderr, "--config is required\n");
    return 2;
  }

  std::ifstream config_in(config_path);
  if (!config_in) {
    std::fprintf(stderr, "cannot read %s\n", config_path.c_str());
    return 1;
  }
  std::ostringstream config_buf;
  config_buf << config_in.rdbuf();

  scheduler::PlacementPolicyKind policy_kind = scheduler::PlacementPolicyKind::kFirstFit;
  if (!placement_policy.empty() &&
      !scheduler::ParsePlacementPolicy(placement_policy, &policy_kind)) {
    std::fprintf(stderr, "unknown placement policy '%s' (want first_fit|least_loaded|bin_pack)\n",
                 placement_policy.c_str());
    return 2;
  }
  const bool want_int = int_sample_n > 0 || !int_out.empty();
  if (want_int) {
    if (int_sample_n == 0) {
      int_sample_n = 1;  // --int-out alone means "tag every walk"
    }
    obs::Int().Enable();
  }
  const bool want_profiling = sample_n > 0 || !folded_out.empty() || want_int;
  const bool want_timeseries = !timeseries_out.empty();
  const bool want_obs = !metrics_out.empty() || !trace_out.empty() || !perfetto_out.empty() ||
                        !health_out.empty() || want_timeseries;
  const bool want_control_faults =
      control_loss > 0 || control_dup > 0 || control_reorder > 0 || control_delay_ms > 0;
  const bool want_stack = want_obs || !placement_policy.empty() || want_profiling ||
                          !flight_out.empty() || want_control_faults;
  sim::EventQueue clock;
  if (want_obs) {
    obs::Tracer().Enable();
    obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
    obs::Health().Enable();
  }
  // The sampler rides the sim clock: one tick per window, rescheduled from
  // inside each tick, plus a final flush before the dump so the tail of the
  // run (after the last whole window) still lands in the series.
  obs::TimeSeriesSampler sampler;
  obs::AnomalyDetector detector;
  SamplerTicker ticker{&clock, &sampler};
  if (want_timeseries) {
    if (timeseries_window_ms <= 0) {
      std::fprintf(stderr, "--timeseries-window-ms must be > 0\n");
      return 2;
    }
    sampler.set_window_ns(static_cast<uint64_t>(timeseries_window_ms * 1e6));
    detector.UseDefaultRules();
    sampler.AttachDetector(&detector);
    ticker.Schedule();
  }
  std::string error;
  auto graph = click::Graph::FromText(config_buf.str(), &error, &clock);
  if (graph == nullptr) {
    std::fprintf(stderr, "configuration error: %s\n", error.c_str());
    return 1;
  }
  std::printf("loaded %zu elements from %s\n", graph->elements().size(), config_path.c_str());
  if (want_profiling) {
    click::GraphProfilerConfig profile_config;
    profile_config.sample_n = sample_n;
    profile_config.int_sample_n = int_sample_n;
    profile_config.seed = dataplane_seed;
    profile_config.walk_prefix = "run";
    // The standalone graph belongs wholly to the "run" client — the same key
    // the full-stack deploy below registers its path digest under.
    profile_config.int_tenant = [](int) { return std::string("run"); };
    graph->EnableProfiling(profile_config);
  }

  std::vector<PacketSpec> specs;
  if (!packets_path.empty()) {
    std::ifstream packets_in(packets_path);
    if (!packets_in) {
      std::fprintf(stderr, "cannot read %s\n", packets_path.c_str());
      return 1;
    }
    std::string line;
    int line_no = 0;
    while (std::getline(packets_in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      PacketSpec spec;
      if (!ParsePacketLine(line, &spec, &error)) {
        std::fprintf(stderr, "%s:%d: %s\n", packets_path.c_str(), line_no, error.c_str());
        return 1;
      }
      specs.push_back(std::move(spec));
    }
  } else {
    PacketSpec spec;
    spec.packet = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                                  Ipv4Address::MustParse("172.16.3.10"), 1234, 80, 32);
    specs.push_back(std::move(spec));
  }

  // Hop-by-hop trace of every forward, plus delivery/drop accounting.
  auto print_hop = [](const click::Element& from, int out_port, const Packet& packet) {
    std::printf("    %s[%d] -> %s\n", from.name().c_str(), out_port, packet.Describe().c_str());
  };
  graph->SetPacketTrace(print_hop);
  for (const auto& element : graph->elements()) {
    if (auto* sink = dynamic_cast<click::ToNetfront*>(element.get())) {
      sink->set_handler([name = element->name()](Packet& packet) {
        std::printf("    => delivered at %s: %s\n", name.c_str(),
                    packet.Describe().c_str());
      });
    }
  }

  for (PacketSpec& spec : specs) {
    clock.ScheduleAt(sim::FromSeconds(spec.at_sec), [&graph, &spec, &clock] {
      std::printf("t=%.3f s inject: %s\n", sim::ToSeconds(clock.now()),
                  spec.packet.Describe().c_str());
      Packet p = spec.packet;
      graph->InjectAtSource(p);
    });
  }
  clock.RunUntil(sim::FromSeconds(clock_until));

  std::printf("\nelement drop counters:\n");
  for (const auto& element : graph->elements()) {
    if (element->drops() > 0) {
      std::printf("  %-24s %llu dropped\n", element->name().c_str(),
                  static_cast<unsigned long long>(element->drops()));
    }
  }

  platform::InNetPlatform* box = nullptr;
  if (want_stack) {
    // Full-stack pass: the orchestrator admits the request, the placement
    // engine ranks the Figure 3 platforms by the chosen policy, the
    // controller verifies the candidates in order, and the module boots as a
    // ClickOS guest on the chosen platform — one connected deploy span tree.
    controller::OrchestratorOptions options;
    options.policy = policy_kind;
    controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);
    // With control faults requested, the install travels over the lossy
    // channel (seeded, so a given flag set replays identically) and the
    // orchestrator's retry/journal machinery does the converging.
    std::optional<sim::FaultInjector> control_faults;
    if (want_control_faults) {
      sim::FaultPlan plan;
      plan.seed = control_seed;
      plan.control_loss_p = control_loss;
      plan.control_dup_p = control_dup;
      plan.control_reorder_p = control_reorder;
      plan.control_delay_mean_ms = control_delay_ms;
      control_faults.emplace(plan);
      orch.SetControlFaults(&*control_faults);
    }
    controller::ClientRequest request;
    request.client_id = "run";
    request.requester = controller::RequesterClass::kOperator;
    request.click_config = config_buf.str();
    controller::OrchestratedDeploy deployed;
    if (want_control_faults) {
      bool deploy_done = false;
      orch.DeployViaChannel(request, [&](const controller::OrchestratedDeploy& result) {
        deploy_done = true;
        deployed = result;
      });
      // Pump the clock until the retry machinery settles (converges or gives
      // up — either way the callback fires exactly once).
      for (int spins = 0; !deploy_done && spins < 600; ++spins) {
        clock.RunUntil(clock.now() + sim::FromMillis(100));
      }
      std::printf("\ncontrol channel: sent=%llu delivered=%llu dropped=%llu duplicated=%llu "
                  "deduped=%llu retries=%llu timeouts=%llu giveups=%llu\n",
                  static_cast<unsigned long long>(orch.channel().sent()),
                  static_cast<unsigned long long>(orch.channel().delivered()),
                  static_cast<unsigned long long>(orch.channel().dropped()),
                  static_cast<unsigned long long>(orch.channel().duplicated()),
                  static_cast<unsigned long long>(orch.channel().deduped()),
                  static_cast<unsigned long long>(orch.control_client().retries()),
                  static_cast<unsigned long long>(orch.control_client().timeouts()),
                  static_cast<unsigned long long>(orch.control_client().giveups()));
      if (!deploy_done) {
        std::fprintf(stderr, "control-channel deploy never completed\n");
        return 1;
      }
    } else {
      deployed = orch.Deploy(request);
    }
    if (!deployed.outcome.accepted) {
      std::printf("\nplacement: policy=%s rejected: %s\n",
                  scheduler::PlacementPolicyName(policy_kind),
                  deployed.outcome.reason.c_str());
    } else {
      std::printf("\nplacement: policy=%s -> %s at %s (%s, vm %llu)\n",
                  scheduler::PlacementPolicyName(policy_kind),
                  deployed.outcome.platform.c_str(),
                  deployed.outcome.module_addr.ToString().c_str(),
                  deployed.consolidated ? "consolidated" : "dedicated",
                  static_cast<unsigned long long>(deployed.vm_id));
      clock.RunUntil(clock.now() + sim::FromSeconds(2));
      box = orch.platform(deployed.outcome.platform);
      if (platform::Vm* guest = box->vms().Find(deployed.vm_id);
          guest != nullptr && guest->graph() != nullptr) {
        guest->graph()->SetPacketTrace(print_hop);
      }
      if (flight_depth > 0) {
        box->flight_recorder().set_depth(flight_depth);
      }
      if (want_profiling) {
        box->EnableDataplaneProfiling(sample_n, dataplane_seed, int_sample_n);
      }
      for (const PacketSpec& spec : specs) {
        Packet p = spec.packet;
        p.set_ip_dst(deployed.outcome.module_addr);
        box->HandlePacket(p);
      }
      clock.RunUntil(clock.now() + sim::FromSeconds(1));
      box->ExportMetrics(&obs::Registry());
      orch.engine().ledger().ExportHeadroomGauges();
    }
    obs::Health().EvaluateAll();

    // These dumps read the orchestrator's platforms, so they happen before
    // the orchestrator goes out of scope.
    if (!folded_out.empty()) {
      std::ofstream out(folded_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", folded_out.c_str());
        return 1;
      }
      graph->WriteFolded(out);
      if (box != nullptr) {
        box->WriteFoldedStacks(out);
      }
      std::printf("folded stacks -> %s\n", folded_out.c_str());
    }
    if (!flight_out.empty()) {
      obs::FlightRecorder none;
      obs::FlightRecorder& flight = box != nullptr ? box->flight_recorder() : none;
      if (!flight.WriteJsonFile(flight_out)) {
        std::fprintf(stderr, "cannot write %s\n", flight_out.c_str());
        return 1;
      }
      std::printf("flight recorder: %llu events, %zu postmortems -> %s\n",
                  static_cast<unsigned long long>(flight.recorded()),
                  flight.postmortems().size(), flight_out.c_str());
    }
  }
  graph->ExportMetrics(&obs::Registry());
  obs::Tracer().ExportMetrics(&obs::Registry());

  if (!metrics_out.empty()) {
    if (!obs::Registry().WriteJsonFile(metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics: %zu instruments -> %s\n", obs::Registry().MetricNames().size(),
                metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer().WriteJsonFile(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu events -> %s\n", obs::Tracer().events().size(), trace_out.c_str());
  }
  if (!perfetto_out.empty()) {
    if (!obs::Tracer().WritePerfettoFile(perfetto_out)) {
      std::fprintf(stderr, "cannot write %s\n", perfetto_out.c_str());
      return 1;
    }
    std::printf("perfetto: %zu events -> %s\n", obs::Tracer().events().size(),
                perfetto_out.c_str());
  }
  if (!health_out.empty()) {
    if (!obs::Health().WriteJsonFile(health_out)) {
      std::fprintf(stderr, "cannot write %s\n", health_out.c_str());
      return 1;
    }
    std::printf("health: %zu tenants -> %s\n", obs::Health().tenant_count(),
                health_out.c_str());
  }
  if (!int_out.empty()) {
    if (!obs::Int().WriteJsonFile(int_out)) {
      std::fprintf(stderr, "cannot write %s\n", int_out.c_str());
      return 1;
    }
    std::printf("int: %llu postcards, %llu violations -> %s\n",
                static_cast<unsigned long long>(obs::Int().postcards()),
                static_cast<unsigned long long>(obs::Int().violations()), int_out.c_str());
  }
  if (want_timeseries) {
    sampler.SampleWindow(clock.now());  // flush the partial tail window
    if (!sampler.WriteJsonFile(timeseries_out)) {
      std::fprintf(stderr, "cannot write %s\n", timeseries_out.c_str());
      return 1;
    }
    std::printf("timeseries: %zu series over %llu windows, %zu anomalies -> %s\n",
                sampler.series_count(),
                static_cast<unsigned long long>(sampler.windows_sampled()),
                detector.flags().size(), timeseries_out.c_str());
  }
  return 0;
}
