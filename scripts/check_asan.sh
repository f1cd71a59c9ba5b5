#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the test suite. The fault-injection tests (watchdog_test, failure_test,
# control_channel_test) exercise crash/restart races, so a clean run here is
# the "zero use-after-destroy" acceptance check for the failure model. The
# suite's snapshot cases (bench_control_chaos, bench_federation_failover,
# bench_int_conformance) run those benches twice each: lossy-channel and
# controller-crash recovery, rolling partitions with heal-time reconciles,
# and in-band hop stacks surviving deferred TimedUnqueue releases, all dense
# in scheduled continuations that must not outlive their owners. The fleet
# dump's cases (json_lint_federation_fleet, innet_top_fleet_smoke) fail when
# federation_failover stops writing it. The suite's fuzz_test feeds a few
# thousand seeded mutations of tenant input (Click configs, flow specs,
# reach statements) through the parsers and the security check, so the
# sanitizers see hostile input too.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-asan"

cmake -B "${BUILD}" -S "${ROOT}" -DINNET_SANITIZE=ON "$@"
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"
