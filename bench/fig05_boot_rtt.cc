// Reproduces Figure 5: "ClickOS reaction time for the first 15 packets of
// 100 concurrent flows" — plus the §6 memory-capacity prelude (10,000
// ClickOS guests vs ~200 Linux VMs on a 128 GB box) and the Linux-VM
// comparison (~700 ms first-packet RTT, "unacceptable for interactive
// traffic").
//
// Setup mirrors the paper's: three hosts in a row (pinger, In-Net platform,
// responder); each ping flow's first packet triggers an on-the-fly ClickOS
// boot running a stateless firewall; later probes ride the installed flow
// rule.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/sim/stats.h"

namespace {

using namespace innet;
using platform::InNetPlatform;
using platform::VmKind;

constexpr const char* kFirewallConfig =
    "FromNetfront() -> IPFilter(allow icmp, allow udp, allow tcp) -> ToNetfront();";

struct PingExperiment {
  static constexpr int kFlows = 100;
  static constexpr int kProbes = 15;
  // Per-probe RTT samples indexed by probe id, and first-probe RTT per flow.
  std::vector<sim::Samples> per_probe{kProbes};
  std::vector<double> first_rtt_ms{std::vector<double>(kFlows, 0.0)};
};

// Runs the three-host ping experiment with the given guest kind.
PingExperiment RunPings(VmKind kind) {
  PingExperiment result;
  sim::EventQueue clock;
  InNetPlatform platform(&clock, 128ull << 30);
  const Ipv4Address service = Ipv4Address::MustParse("172.16.3.10");
  platform.RegisterOnDemand(service, kFirewallConfig, kind, /*per_flow=*/true);

  const sim::TimeNs link_latency = sim::FromMillis(0.1);  // per hop, per direction

  struct Probe {
    int flow;
    int seq;
    sim::TimeNs sent;
  };
  // The responder echoes; total RTT = 4 link hops + platform processing
  // (which, for the first packet, includes the VM boot).
  std::vector<Probe> inflight;
  platform.SetEgressHandler([&](Packet& packet) {
    int flow = static_cast<int>(packet.src_port());  // ICMP id rides here
    int seq = static_cast<int>(packet.dst_port());
    for (size_t i = 0; i < inflight.size(); ++i) {
      if (inflight[i].flow == flow && inflight[i].seq == seq) {
        sim::TimeNs sent = inflight[i].sent;
        inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(i));
        // Remaining path: platform->responder->platform->pinger ~ 3 hops,
        // return direction skips middlebox processing (already-open flow).
        clock.ScheduleAfter(3 * link_latency, [&result, flow, seq, sent, &clock] {
          double rtt_ms = sim::ToMillis(clock.now() - sent);
          result.per_probe[static_cast<size_t>(seq)].Add(rtt_ms);
          if (seq == 0) {
            result.first_rtt_ms[static_cast<size_t>(flow)] = rtt_ms;
          }
        });
        return;
      }
    }
  });

  for (int flow = 0; flow < PingExperiment::kFlows; ++flow) {
    for (int seq = 0; seq < PingExperiment::kProbes; ++seq) {
      // Flows start (nearly) simultaneously; probes are 1 s apart.
      sim::TimeNs when = sim::FromMillis(0.01 * flow) + sim::FromSeconds(seq);
      clock.ScheduleAt(when, [&, flow, seq] {
        Packet probe = Packet::MakeIcmpEcho(Ipv4Address::MustParse("10.10.0.5"),
                                            Ipv4Address::MustParse("172.16.3.10"),
                                            static_cast<uint16_t>(flow),
                                            static_cast<uint16_t>(seq));
        inflight.push_back({flow, seq, clock.now()});
        clock.ScheduleAfter(link_latency, [&platform, probe]() mutable {
          Packet p = probe;
          platform.HandlePacket(p);
        });
      });
    }
  }
  clock.RunUntil(sim::FromSeconds(30));
  return result;
}

}  // namespace

int main() {
  bench::PrintHeader("Sec 6 prelude: guests per 128 GB server (memory bound)");
  {
    uint64_t box = 128ull << 30;
    std::printf("ClickOS (%llu MB/guest): %llu guests    Linux (%llu MB/guest): %llu guests\n",
                static_cast<unsigned long long>(platform::MemoryBytes(VmKind::kClickOs) >> 20),
                static_cast<unsigned long long>(box / platform::MemoryBytes(VmKind::kClickOs)),
                static_cast<unsigned long long>(platform::MemoryBytes(VmKind::kLinux) >> 20),
                static_cast<unsigned long long>(box / platform::MemoryBytes(VmKind::kLinux)));
    std::printf("(paper: 10,000 ClickOS instances vs ~200 stripped-down Linux VMs)\n");
  }

  bench::PrintHeader("Figure 5: ping RTT by probe id (100 concurrent flows, ClickOS)");
  PingExperiment clickos = RunPings(VmKind::kClickOs);
  std::printf("%-8s %-12s %-12s %-12s\n", "probe", "mean (ms)", "p5 (ms)", "p95 (ms)");
  bench::PrintRule();
  for (int seq = 0; seq < PingExperiment::kProbes; ++seq) {
    const sim::Samples& s = clickos.per_probe[static_cast<size_t>(seq)];
    std::printf("%-8d %-12.2f %-12.2f %-12.2f\n", seq + 1, s.Mean(), s.Percentile(5),
                s.Percentile(95));
  }

  std::printf("\nFirst-packet RTT vs flow id (boot cost grows with existing VMs):\n");
  for (int flow : {0, 24, 49, 74, 99}) {
    std::printf("  flow %3d: %.1f ms\n", flow + 1,
                clickos.first_rtt_ms[static_cast<size_t>(flow)]);
  }
  {
    sim::Samples firsts;
    for (double v : clickos.first_rtt_ms) {
      firsts.Add(v);
    }
    std::printf("  mean first-packet RTT: %.1f ms (paper: ~50 ms, ~100 ms at flow 100)\n",
                firsts.Mean());
  }

  bench::PrintHeader("Linux-VM comparison (same experiment, x86 Linux guests)");
  PingExperiment linux_vms = RunPings(VmKind::kLinux);
  sim::Samples linux_firsts;
  for (double v : linux_vms.first_rtt_ms) {
    linux_firsts.Add(v);
  }
  std::printf("mean first-packet RTT: %.0f ms (paper: ~700 ms — an order of magnitude "
              "worse,\nunacceptable for interactive traffic)\n",
              linux_firsts.Mean());
  std::printf("later probes (both guest kinds): %.2f ms mean\n",
              clickos.per_probe[5].Mean());

  // Telemetry snapshot: per-probe RTT summaries, first-packet RTTs, and the
  // registry's boot-latency histograms (both guest kinds ran above).
  obs::json::Value results = obs::json::Value::Object();
  obs::json::Value per_probe = obs::json::Value::Array();
  for (int seq = 0; seq < PingExperiment::kProbes; ++seq) {
    obs::json::Value row = obs::json::Value::Object();
    row.Set("probe", seq + 1);
    row.Set("rtt_ms", clickos.per_probe[static_cast<size_t>(seq)].SummaryJson());
    per_probe.Push(std::move(row));
  }
  results.Set("clickos_per_probe", std::move(per_probe));
  {
    sim::Samples firsts;
    obs::json::Value first_rtts = obs::json::Value::Array();
    for (double v : clickos.first_rtt_ms) {
      firsts.Add(v);
      first_rtts.Push(v);
    }
    results.Set("clickos_first_rtt_ms", std::move(first_rtts));
    results.Set("clickos_first_rtt_summary", firsts.SummaryJson());
    results.Set("linux_first_rtt_summary", linux_firsts.SummaryJson());
  }
  results.Set("metrics", obs::Registry().ToJson());
  bench::WriteBenchJson("fig05_boot_rtt", std::move(results));
  return 0;
}
