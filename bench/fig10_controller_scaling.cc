// Reproduces Figure 10 ("Static analysis checking scales linearly with the
// size of the operator's network") and the §6.1 single-request timing:
// the paper reports ~101 ms to compile the rules and ~5 ms to run the
// analysis on the Figure 3 topology, and ~1.3 s checking at ~1,000 boxes.
//
// Substitution note: the paper's "compilation" is GHC compiling the Haskell
// rules SymNet executes; ours is parsing the request plus building the
// symbolic models for the whole topology snapshot. Both are the
// per-request fixed cost that dominates until the network gets large, so the
// compilation-vs-checking split keeps its meaning.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/controller/controller.h"
#include "src/obs/metrics.h"
#include "src/controller/stock_modules.h"
#include "src/policy/reach_checker.h"
#include "src/topology/network.h"

namespace {

using namespace innet;
using controller::ClientRequest;
using controller::Controller;
using controller::DeployOutcome;
using controller::RequesterClass;

ClientRequest BatcherRequest() {
  // The Figure 4 request.
  ClientRequest request;
  request.client_id = "mobile1";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() ->"
      "IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0)"
      "-> TimedUnqueue(120,100)"
      "-> dst :: ToNetfront();";
  request.requirements =
      "reach from internet udp -> client dst port 1500 const proto && dst port && payload";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  return request;
}

}  // namespace

int main() {
  bench::PrintHeader("Sec 6.1 prelude: one request on the Figure 3 topology");
  {
    Controller controller(topology::Network::MakeFigure3());
    DeployOutcome outcome = controller.Deploy(BatcherRequest());
    std::printf("accepted=%s platform=%s  model-build(\"compile\")=%.2f ms  checking=%.2f ms"
                "  engine-steps=%llu\n",
                outcome.accepted ? "yes" : "no", outcome.platform.c_str(),
                outcome.model_build_ms, outcome.check_ms,
                static_cast<unsigned long long>(outcome.engine_steps));
  }

  bench::PrintHeader("Figure 10: checking time vs operator network size");
  std::printf("%-12s %-16s %-16s %-14s\n", "middleboxes", "compile (ms)", "checking (ms)",
              "engine steps");
  bench::PrintRule();

  obs::json::Value rows = obs::json::Value::Array();
  for (int n : {1, 3, 7, 15, 31, 63, 127, 255, 511, 1023}) {
    // Fresh controller per size: the snapshot is the whole network.
    bench::WallTimer compile_timer;
    topology::Network network = topology::Network::MakeScalingTopology(n);
    Controller controller(std::move(network));
    double compile_ms = compile_timer.ElapsedMs();

    DeployOutcome outcome = controller.Deploy(BatcherRequest());
    if (!outcome.accepted) {
      std::printf("%-12d deployment failed: %s\n", n, outcome.reason.c_str());
      continue;
    }
    // The deploy path itself splits model building from checking.
    compile_ms += outcome.model_build_ms;
    std::printf("%-12d %-16.2f %-16.2f %-14llu\n", n, compile_ms, outcome.check_ms,
                static_cast<unsigned long long>(outcome.engine_steps));
    obs::json::Value row = obs::json::Value::Object();
    row.Set("middleboxes", n);
    row.Set("engine_steps", outcome.engine_steps);
    row.Set("sim_verify_ns", outcome.sim_verify_ns);
    rows.Push(std::move(row));
  }

  std::printf("\nShape check: both columns should grow roughly linearly in the\n"
              "middlebox count, with checking staying around a second at ~1,000 boxes\n"
              "(paper: SymNet checks a 1,000-box network in ~1.3 s).\n");

  // The snapshot keeps only the deterministic engine-step and
  // simulated-latency columns: the wall-clock ms columns printed above vary
  // from run to run, and the committed snapshot is compared byte for byte.
  bench::BenchSeries series;
  uint64_t total_steps = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    total_steps += static_cast<uint64_t>(rows.at(i).Find("engine_steps")->int_number());
  }
  series.Add("total_engine_steps", static_cast<double>(total_steps), "steps");
  if (rows.size() > 0) {
    const obs::json::Value& largest = rows.at(rows.size() - 1);
    series.Add("largest_engine_steps", largest.Find("engine_steps")->number(), "steps");
    series.Add("largest_sim_verify_ms", largest.Find("sim_verify_ns")->number() / 1e6, "ms");
  }

  obs::json::Value results = obs::json::Value::Object();
  results.Set("scaling", std::move(rows));
  results.Set("series", series.ToJson());
  results.Set("metrics", obs::Registry().ToJson());
  bench::WriteBenchJson("fig10_controller_scaling", std::move(results));
  return 0;
}
