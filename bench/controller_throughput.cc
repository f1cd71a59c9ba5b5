// Beyond-the-paper experiment for §4.3's "Scaling the controller"
// discussion: per-request verification cost as the installed base grows.
// Every new deployment is checked against a snapshot containing every
// already-running module, so request latency creeps up with tenant count —
// the quantitative footing for the paper's conjecture that operators will
// shard controllers (per-client ordering preserved, cross-request conflicts
// limited to platform capacity).
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/controller/controller.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using namespace innet::controller;

// Cycles per row; the row reports the fastest, so a row reads the cost of
// the deploy itself rather than a cold cache or a busy moment of the host.
constexpr int kCycles = 25;

// Tenant `index`'s request: UDP to its own port, rewritten to a client.
ClientRequest TenantRequest(const std::string& client_id, int index) {
  ClientRequest request;
  request.client_id = client_id;
  request.requester = RequesterClass::kClient;
  request.click_config = "FromNetfront() -> IPFilter(allow udp dst port " +
                         std::to_string(2000 + index) +
                         ") -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.requirements = "reach from internet udp -> client dst port " +
                         std::to_string(2000 + index);
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

}  // namespace

int main() {
  bench::PrintHeader("Sec 4.3: request latency vs installed tenant base (single controller)");
  std::printf("%-18s %-20s %-18s %-22s\n", "installed tenants", "deploy latency (ms)",
              "kill latency (ms)", "base deploys/sec");
  bench::PrintRule();

  Controller ctrl(topology::Network::MakeFigure3());
  ctrl.AddOperatorPolicy("reach from internet tcp src port 80 -> http_optimizer -> client");
  // One probe tenant, deployed and killed kCycles times at each installed
  // base; its port is above every base tenant's.
  const ClientRequest probe = TenantRequest("probe", 1000);

  int installed = 0;
  for (int checkpoint : {1, 10, 25, 50, 100, 150, 200}) {
    bench::WallTimer timer;
    int batch = 0;
    while (installed < checkpoint) {
      DeployOutcome outcome =
          ctrl.Deploy(TenantRequest("tenant" + std::to_string(installed), installed));
      if (!outcome.accepted) {
        std::printf("%-18d deployment failed: %s\n", installed, outcome.reason.c_str());
        return 1;
      }
      ++installed;
      ++batch;
    }
    double rate = batch / (timer.ElapsedSec() + 1e-9);

    double deploy_ms = 1e300;
    double kill_ms = 1e300;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      bench::WallTimer deploy;
      DeployOutcome outcome = ctrl.Deploy(probe);
      deploy_ms = std::min(deploy_ms, deploy.ElapsedMs());
      if (!outcome.accepted) {
        std::printf("%-18d probe deployment failed: %s\n", installed, outcome.reason.c_str());
        return 1;
      }
      bench::WallTimer kill;
      ctrl.Kill(outcome.module_id);
      kill_ms = std::min(kill_ms, kill.ElapsedMs());
    }
    std::printf("%-18d %-20.3f %-18.4f %-22.1f\n", installed, deploy_ms, kill_ms, rate);
  }
  std::printf("\n(each row: the fastest of %d deploy+kill cycles of one probe tenant; each\n"
              " deploy re-verifies the snapshot with every installed module attached; the\n"
              " paper's answer to this growth is parallel controllers per client shard)\n",
              kCycles);
  return 0;
}
