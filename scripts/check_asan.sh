#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the test suite plus the control-plane chaos bench. The fault-injection
# tests (watchdog_test, failure_test, control_channel_test) exercise
# crash/restart races, so a clean run here is the "zero use-after-destroy"
# acceptance check for the failure model; the chaos bench adds the
# lossy-channel + controller-crash recovery paths, whose stale-continuation
# teardown is exactly where a dangling quota guard would fire. The suite's
# fuzz_test feeds a few thousand seeded mutations of tenant input (Click
# configs, flow specs, reach statements) through the parsers and the
# security check, so the sanitizers see hostile input too.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-asan"

cmake -B "${BUILD}" -S "${ROOT}" -DINNET_SANITIZE=ON "$@"
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"
# ctest already ran bench_control_chaos as a fixture; run it once more
# directly so a filtered ctest invocation can never silently skip it.
(cd "${BUILD}/bench" && ./control_chaos >/dev/null)
# Same for the federation failover bench: rolling partitions + heal-time
# reconciles are dense in scheduled continuations that must not outlive
# their coordinator/region objects. It must also emit its fleet
# observability dump — tracing + fleet aggregation run inside this bench,
# so a missing artifact means that code path silently died.
(cd "${BUILD}/bench" && ./federation_failover >/dev/null)
[ -s "${BUILD}/bench/BENCH_federation_failover_fleet.json" ] || {
  echo "check_asan: federation_failover did not write its fleet dump" >&2
  exit 1
}
# And the INT conformance bench: packets carrying in-band hop stacks survive
# queueing and deferred TimedUnqueue releases, so a stale-postcard completion
# after graph mutation/teardown is exactly an ASan-shaped bug.
(cd "${BUILD}/bench" && ./int_conformance >/dev/null)
echo "check_asan: control_chaos + federation_failover + int_conformance clean under ASan+UBSan"
