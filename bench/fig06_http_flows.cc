// Reproduces Figure 6: "100 concurrent HTTP clients retrieving a 50 MB file
// through an In-Net platform at 25 Mb/s each." Connection setup includes the
// on-the-fly VM boot (triggered by the SYN); the transfer is rate-capped by
// the per-client shaper, so total time lands around the paper's 16.6-17.8 s.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/platform/platform.h"
#include "src/sim/stats.h"

namespace {

using namespace innet;
using platform::InNetPlatform;

constexpr const char* kForwarderConfig =
    "FromNetfront() -> IPFilter(allow tcp) -> ToNetfront();";
constexpr int kClients = 100;
constexpr double kFileBytes = 50e6;
constexpr double kRateBps = 25e6;

}  // namespace

int main() {
  sim::EventQueue clock;
  InNetPlatform platform(&clock, 16ull << 30);
  const Ipv4Address service = Ipv4Address::MustParse("172.16.3.10");
  platform.RegisterOnDemand(service, kForwarderConfig, platform::VmKind::kClickOs,
                            /*per_flow=*/true);

  const sim::TimeNs link_latency = sim::FromMillis(0.2);
  struct FlowState {
    sim::TimeNs syn_sent = 0;
    sim::TimeNs connected_at = 0;
    sim::TimeNs done_at = 0;
  };
  std::vector<FlowState> flows(kClients);

  // The platform egress means the SYN made it through (VM booted + rules
  // installed): the server answers, the client connects, and the fixed-rate
  // transfer runs. Subsequent data packets are modeled fluidly.
  platform.SetEgressHandler([&](Packet& packet) {
    if ((packet.tcp_flags() & kTcpSyn) == 0) {
      return;
    }
    int flow = packet.src_port() - 10000;
    if (flow < 0 || flow >= kClients || flows[static_cast<size_t>(flow)].connected_at != 0) {
      return;
    }
    clock.ScheduleAfter(3 * link_latency, [&flows, flow, &clock] {  // SYN-ACK + ACK
      FlowState& state = flows[static_cast<size_t>(flow)];
      state.connected_at = clock.now();
      sim::TimeNs transfer = sim::FromSeconds(kFileBytes * 8 / kRateBps);
      clock.ScheduleAfter(transfer, [&state, &clock] { state.done_at = clock.now(); });
    });
  });

  for (int flow = 0; flow < kClients; ++flow) {
    clock.ScheduleAt(sim::FromMillis(0.05 * flow), [&, flow] {
      flows[static_cast<size_t>(flow)].syn_sent = clock.now();
      Packet syn = Packet::MakeTcp(Ipv4Address::MustParse("10.10.0.5"), service,
                                   static_cast<uint16_t>(10000 + flow), 80, kTcpSyn);
      clock.ScheduleAfter(link_latency, [&platform, syn]() mutable {
        Packet p = syn;
        platform.HandlePacket(p);
      });
    });
  }
  clock.RunUntil(sim::FromSeconds(60));

  bench::PrintHeader("Figure 6: 100 HTTP clients, 50 MB @ 25 Mb/s through the platform");
  std::printf("%-8s %-20s %-20s %-20s\n", "flow", "connect (ms)", "transfer (s)",
              "total (s)");
  bench::PrintRule();
  sim::Samples connects;
  sim::Samples totals;
  for (int flow = 0; flow < kClients; ++flow) {
    const FlowState& state = flows[static_cast<size_t>(flow)];
    if (state.done_at == 0) {
      std::printf("%-8d did not finish\n", flow);
      continue;
    }
    double connect_ms = sim::ToMillis(state.connected_at - state.syn_sent);
    double transfer_s = sim::ToSeconds(state.done_at - state.connected_at);
    double total_s = sim::ToSeconds(state.done_at - state.syn_sent);
    connects.Add(connect_ms);
    totals.Add(total_s);
    if (flow % 10 == 0 || flow == kClients - 1) {
      std::printf("%-8d %-20.1f %-20.2f %-20.2f\n", flow, connect_ms, transfer_s, total_s);
    }
  }
  bench::PrintRule();
  std::printf("connection time: mean %.1f ms, min %.1f, max %.1f "
              "(paper: grows ~50 -> ~350 ms with flow id)\n",
              connects.Mean(), connects.Min(), connects.Max());
  std::printf("total transfer time: %.2f - %.2f s (paper: 16.6 - 17.8 s)\n", totals.Min(),
              totals.Max());
  return 0;
}
