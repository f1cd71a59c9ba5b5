// perfbench_driver: the In-Net wall-clock benchmark.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <spans.json>]
//
// Workloads: deploy_churn and verify_deep (control plane, driven through
// controller::Orchestrator), dp_bare and dp_observed (data plane, driven
// through platform::InNetPlatform::HandlePacket). With --trace 0 the run
// reports the end-to-end metrics; with --trace 1 it reports the per-layer
// metrics of a separate traced run. Every metric is printed by name with its
// unit, and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The run exits non-zero when any correctness oracle or exact-count check
// fails. See perfbench/NOTES.md for the workloads and the estimator.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/common.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <deploy_churn|verify_deep|dp_bare|"
                 "dp_observed> --seed N --seconds S --trace 0|1\n");
    return 2;
  }

  // Keep freed memory in the process. By default glibc hands large blocks
  // and the top of the heap back to the kernel and faults them in again on
  // the next deploy; in a virtual machine those faults cost a fifth of a
  // control-plane run and their price swings with the load on the host.
  // Allocation counts are unaffected; peak_rss_mb reports the high-water
  // mark the heap then keeps.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Report report(options.trace);
  int status = 0;
  if (options.workload == "deploy_churn" || options.workload == "verify_deep") {
    status = perfbench::RunControl(options, &report);
  } else if (options.workload == "dp_bare" || options.workload == "dp_observed") {
    status = perfbench::RunDataplane(options, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (status != 0) {
    return status;  // set-up failed: nothing was measured
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
