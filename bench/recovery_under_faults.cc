// Robustness experiment: recovery under injected faults. Not a paper figure —
// this harness quantifies the failure model added on top of the §5/§6
// prototype: boot failures, VM crashes, and switch packet loss, with the
// watchdog restarting guests under exponential backoff.
//
// Part 1 sweeps the crash rate over a 50-tenant on-demand platform (boot
// failure p=0.2 throughout, the acceptance scenario) and reports
// time-to-full-recovery after the fault window closes plus the packet-loss
// breakdown (switch drops vs bounded-buffer overflow vs misses).
//
// Part 2 times orchestrator failover: a platform node dies and every stranded
// tenant is re-verified and re-placed on the survivors.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/controller/orchestrator.h"
#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/platform/watchdog.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using platform::InNetPlatform;
using platform::VmKind;

constexpr const char* kFirewallConfig =
    "FromNetfront() -> IPFilter(allow udp, allow tcp) -> ToNetfront();";
constexpr int kTenants = 50;
constexpr double kFaultWindowSec = 10.0;
constexpr double kSettleHorizonSec = 40.0;

struct RecoveryResult {
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t fault_dropped = 0;   // switch-level injected loss
  uint64_t buffer_dropped = 0;  // bounded buffers overflowed during outages
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t restart_failures = 0;
  uint64_t gave_up = 0;
  double recovery_sec = -1.0;  // time from fault-window close to all-clear
};

std::string TenantAddr(int tenant) {
  return "172.16." + std::to_string(3 + tenant / 200) + "." +
         std::to_string(10 + tenant % 200);
}

RecoveryResult RunScenario(double crash_mean_uptime_s, double boot_failure_p) {
  RecoveryResult result;
  sim::EventQueue clock;
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.boot_failure_p = boot_failure_p;
  plan.crash_mean_uptime_s = crash_mean_uptime_s;
  sim::FaultInjector injector(plan);

  InNetPlatform platform(&clock, 8ull << 30);
  platform.SetFaultInjector(&injector);
  platform.EnableWatchdog();
  platform.SetEgressHandler([&](Packet&) { ++result.delivered; });
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    platform.RegisterOnDemand(Ipv4Address::MustParse(TenantAddr(tenant)), kFirewallConfig,
                              VmKind::kClickOs, /*per_flow=*/false);
  }

  // A steady drip: one packet per millisecond, round-robin across tenants,
  // for the whole fault window.
  const int packets = static_cast<int>(kFaultWindowSec * 1000);
  for (int tick = 0; tick < packets; ++tick) {
    clock.ScheduleAt(sim::FromMillis(tick), [&platform, &result, tick] {
      Packet p = Packet::MakeUdp(Ipv4Address::MustParse("9.9.9.9"),
                                 Ipv4Address::MustParse(TenantAddr(tick % kTenants)),
                                 static_cast<uint16_t>(7000 + tick % 64), 80, 64);
      ++result.sent;
      platform.HandlePacket(p);
    });
  }

  // Close the fault window: new boots and deliveries run fault-free, but
  // crash timers armed before the close still fire — recovery must absorb
  // them too.
  const sim::TimeNs fault_end = sim::FromSeconds(kFaultWindowSec);
  clock.ScheduleAt(fault_end, [&platform] { platform.SetFaultInjector(nullptr); });

  // Probe for all-clear every 10 ms after the window closes.
  std::vector<std::pair<sim::TimeNs, size_t>> probes;
  for (double t = kFaultWindowSec; t < kSettleHorizonSec; t += 0.01) {
    clock.ScheduleAt(sim::FromSeconds(t),
                     [&platform, &probes, &clock] {
                       probes.emplace_back(clock.now(), platform.vms().crashed_count());
                     });
  }
  clock.RunUntil(sim::FromSeconds(kSettleHorizonSec));

  auto stats = platform.watchdog()->stats();
  result.fault_dropped = platform.software_switch().fault_dropped_count();
  result.buffer_dropped = platform.buffer_drops();
  result.crashes = stats.crashes_observed;
  result.restarts = stats.restarts;
  result.restart_failures = stats.restart_failures;
  result.gave_up = stats.gave_up;
  // Recovery time: the last probe that still saw a crashed guest bounds the
  // all-clear from below.
  sim::TimeNs last_down = fault_end;
  bool ever_down = false;
  for (const auto& [when, crashed] : probes) {
    if (crashed > 0) {
      last_down = when;
      ever_down = true;
    }
  }
  if (!ever_down) {
    result.recovery_sec = 0.0;
  } else if (last_down + sim::FromMillis(10) < sim::FromSeconds(kSettleHorizonSec)) {
    result.recovery_sec = sim::ToMillis(last_down - fault_end) / 1e3 + 0.01;
  }  // else never settled: stays -1
  return result;
}

obs::json::Value ScenarioJson(const char* rate, const RecoveryResult& r) {
  obs::json::Value row = obs::json::Value::Object();
  row.Set("crash_rate", rate);
  row.Set("sent", r.sent);
  row.Set("delivered", r.delivered);
  row.Set("crashes", r.crashes);
  row.Set("restarts", r.restarts);
  row.Set("restart_failures", r.restart_failures);
  row.Set("gave_up", r.gave_up);
  row.Set("switch_fault_drops", r.fault_dropped);
  row.Set("buffer_drops", r.buffer_dropped);
  row.Set("recovery_sec", r.recovery_sec);
  return row;
}

obs::json::Value RunFailoverTiming() {
  obs::json::Value failover = obs::json::Value::Object();
  sim::EventQueue clock;
  controller::Orchestrator orchestrator(topology::Network::MakeFigure3(), &clock);
  const int tenants = 20;
  std::string victim;
  for (int i = 0; i < tenants; ++i) {
    controller::ClientRequest request;
    request.client_id = "tenant" + std::to_string(i);
    request.requester = controller::RequesterClass::kClient;
    std::string addr = "10.10.0." + std::to_string(5 + i);
    request.click_config = "FromNetfront() -> IPFilter(allow udp dst port " +
                           std::to_string(1500 + i) + ") -> IPRewriter(pattern - - " + addr +
                           " - 0 0) -> ToNetfront();";
    request.whitelist = {Ipv4Address::MustParse(addr)};
    request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    auto deploy = orchestrator.Deploy(request);
    if (!deploy.outcome.accepted) {
      std::printf("deploy %d rejected: %s\n", i, deploy.outcome.reason.c_str());
      failover.Set("error", "deploy rejected: " + deploy.outcome.reason);
      return failover;
    }
    victim = deploy.outcome.platform;
  }
  clock.RunUntil(sim::FromSeconds(5));  // let the shared VM finish booting

  bench::WallTimer timer;
  auto report = orchestrator.MarkPlatformFailed(victim);
  double total_ms = timer.ElapsedMs();
  std::printf("failed platform:        %s\n", report.failed_platform.c_str());
  std::printf("tenants stranded:       %zu\n", report.tenants_affected);
  std::printf("recovered / lost:       %zu / %zu\n", report.recovered, report.lost);
  std::printf("re-verification time:   %.2f ms (%.2f ms per tenant)\n", report.reverify_ms,
              report.tenants_affected > 0
                  ? report.reverify_ms / static_cast<double>(report.tenants_affected)
                  : 0.0);
  std::printf("total failover time:    %.2f ms wall clock\n", total_ms);
  failover.Set("failed_platform", report.failed_platform);
  failover.Set("tenants_affected", static_cast<uint64_t>(report.tenants_affected));
  failover.Set("recovered", static_cast<uint64_t>(report.recovered));
  failover.Set("lost", static_cast<uint64_t>(report.lost));
  failover.Set("reverify_ms", report.reverify_ms);
  failover.Set("total_ms", total_ms);
  return failover;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Recovery under faults: 50 on-demand tenants, boot failure p=0.2, 10 s fault window");
  std::printf("%-14s %-9s %-9s %-9s %-10s %-10s %-10s %-10s\n", "crash rate", "crashes",
              "restarts", "gave_up", "sw drops", "buf drops", "loss %", "recov (s)");
  bench::PrintRule();
  obs::json::Value scenarios = obs::json::Value::Array();
  for (double mean_uptime : {0.0, 4.0, 2.0, 1.0, 0.5}) {
    RecoveryResult r = RunScenario(mean_uptime, mean_uptime == 0.0 ? 0.0 : 0.2);
    double loss_pct =
        r.sent > 0 ? 100.0 * static_cast<double>(r.sent - r.delivered) / r.sent : 0.0;
    char rate[32];
    if (mean_uptime == 0.0) {
      std::snprintf(rate, sizeof(rate), "none");
    } else {
      std::snprintf(rate, sizeof(rate), "1/%.1fs", mean_uptime);
    }
    scenarios.Push(ScenarioJson(rate, r));
    char recov[32];
    if (r.recovery_sec < 0) {
      std::snprintf(recov, sizeof(recov), ">30");
    } else {
      std::snprintf(recov, sizeof(recov), "%.2f", r.recovery_sec);
    }
    std::printf("%-14s %-9llu %-9llu %-9llu %-10llu %-10llu %-10.2f %-10s\n", rate,
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.restarts),
                static_cast<unsigned long long>(r.gave_up),
                static_cast<unsigned long long>(r.fault_dropped),
                static_cast<unsigned long long>(r.buffer_dropped), loss_pct, recov);
  }
  std::printf("(fault-free row doubles as the regression baseline: zero crashes, zero loss)\n");

  bench::PrintHeader("Orchestrator failover: node death, re-verify + re-place on survivors");
  obs::json::Value failover = RunFailoverTiming();

  obs::json::Value results = obs::json::Value::Object();
  results.Set("scenarios", std::move(scenarios));
  results.Set("failover", std::move(failover));
  results.Set("metrics", obs::Registry().ToJson());
  bench::WriteBenchJson("recovery_under_faults", std::move(results));
  return 0;
}
