#!/usr/bin/env bash
# One-stop CI gate: tier-1 build + tests, the sanitizer suite, the
# metrics-documentation lint, the perf-regression gate (innet_benchdiff vs
# the committed BENCH_*.json baselines), the timeseries determinism check,
# and a JSON lint over every committed BENCH_*.json telemetry file. Any
# failure fails the whole run.
#
# Usage: scripts/ci.sh [--skip-asan]
#   --skip-asan   skip the (slow) AddressSanitizer build + test pass
set -u
cd "$(dirname "$0")/.."

skip_asan=0
for arg in "$@"; do
  case "$arg" in
    --skip-asan) skip_asan=1 ;;
    *) echo "ci.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

fail=0
step() {
  echo
  echo "==== ci: $1 ===="
}

step "tier-1 build"
cmake -B build -S . || fail=1
cmake --build build -j "$(nproc)" || fail=1

step "tier-1 tests"
ctest --test-dir build --output-on-failure -j "$(nproc)" || fail=1

if [ "$skip_asan" -eq 0 ]; then
  step "sanitizer suite (check_asan.sh)"
  scripts/check_asan.sh || fail=1
else
  step "sanitizer suite skipped (--skip-asan)"
fi

step "metrics documentation lint (check_metrics_docs.sh)"
scripts/check_metrics_docs.sh || fail=1

step "perf-regression diff tool self-test (innet_benchdiff --self-test)"
if [ ! -x build/tools/innet_benchdiff ]; then
  echo "ERROR: build/tools/innet_benchdiff missing — build step failed?" >&2
  fail=1
else
  ./build/tools/innet_benchdiff --self-test || fail=1
fi

step "perf-regression gate (check_bench_regression.sh vs committed baselines)"
scripts/check_bench_regression.sh || fail=1

step "timeseries determinism (two seeded innet_run dumps must be byte-identical)"
if [ ! -x build/tools/innet_run ]; then
  echo "ERROR: build/tools/innet_run missing — build step failed?" >&2
  fail=1
else
  ts_ok=1
  ./build/tools/innet_run --config examples/batcher.click \
      --timeseries-out build/ts_run1.json >/dev/null || ts_ok=0
  ./build/tools/innet_run --config examples/batcher.click \
      --timeseries-out build/ts_run2.json >/dev/null || ts_ok=0
  if [ "$ts_ok" -ne 1 ]; then
    echo "ERROR: innet_run --timeseries-out failed" >&2
    fail=1
  elif ! cmp -s build/ts_run1.json build/ts_run2.json; then
    echo "ERROR: timeseries dumps differ between two runs of the same config" >&2
    fail=1
  else
    echo "ok: timeseries dump byte-identical across repeat runs"
  fi
fi

step "bench telemetry lint (json_lint over committed BENCH_*.json)"
if [ ! -x build/tools/json_lint ]; then
  echo "ERROR: build/tools/json_lint missing — build step failed?" >&2
  fail=1
else
  found=0
  for f in BENCH_*.json; do
    [ -f "$f" ] || continue
    found=1
    if ./build/tools/json_lint "$f"; then
      echo "ok: $f"
    else
      echo "ERROR: malformed bench telemetry $f" >&2
      fail=1
    fi
  done
  if [ "$found" -eq 0 ]; then
    echo "ERROR: no committed BENCH_*.json found at the repo root" >&2
    fail=1
  fi
fi

step "inspector smoke test (innet_top over a committed bench snapshot)"
if [ ! -x build/tools/innet_top ]; then
  echo "ERROR: build/tools/innet_top missing — build step failed?" >&2
  fail=1
elif ./build/tools/innet_top --metrics BENCH_placement_scaling.json; then
  echo "ok: innet_top rendered BENCH_placement_scaling.json"
else
  echo "ERROR: innet_top failed on BENCH_placement_scaling.json" >&2
  fail=1
fi

step "dataplane profiling pipeline (bench + innet_top --postmortem)"
if [ ! -x build/bench/dataplane_profile ] || [ ! -x build/tools/innet_top ]; then
  echo "ERROR: build/bench/dataplane_profile or build/tools/innet_top missing — build step failed?" >&2
  fail=1
elif (cd build/bench && ./dataplane_profile >/dev/null) \
    && ./build/tools/innet_top --postmortem build/bench/BENCH_dataplane_profile_postmortem.json; then
  echo "ok: dataplane_profile produced a postmortem bundle and innet_top rendered it"
else
  echo "ERROR: dataplane profiling pipeline failed" >&2
  fail=1
fi

step "control-plane chaos bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/control_chaos ]; then
  echo "ERROR: build/bench/control_chaos missing — build step failed?" >&2
  fail=1
else
  chaos_ok=1
  (cd build/bench && ./control_chaos >/dev/null) || chaos_ok=0
  cp build/bench/BENCH_control_chaos.json build/bench/BENCH_control_chaos.run1.json 2>/dev/null
  (cd build/bench && ./control_chaos >/dev/null) || chaos_ok=0
  if [ "$chaos_ok" -ne 1 ]; then
    echo "ERROR: control_chaos reported a convergence failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_control_chaos.json build/bench/BENCH_control_chaos.run1.json; then
    echo "ERROR: BENCH_control_chaos.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_control_chaos.json BENCH_control_chaos.json; then
    echo "ERROR: regenerated BENCH_control_chaos.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_control_chaos.json .)" >&2
    fail=1
  else
    echo "ok: control_chaos converged, byte-identical across runs, snapshot current"
  fi
fi

step "dataplane profile bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/dataplane_profile ]; then
  echo "ERROR: build/bench/dataplane_profile missing — build step failed?" >&2
  fail=1
else
  dp_ok=1
  (cd build/bench && ./dataplane_profile >/dev/null) || dp_ok=0
  cp build/bench/BENCH_dataplane_profile.json build/bench/BENCH_dataplane_profile.run1.json 2>/dev/null
  (cd build/bench && ./dataplane_profile >/dev/null) || dp_ok=0
  if [ "$dp_ok" -ne 1 ]; then
    echo "ERROR: dataplane_profile failed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_dataplane_profile.json build/bench/BENCH_dataplane_profile.run1.json; then
    echo "ERROR: BENCH_dataplane_profile.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_dataplane_profile.json BENCH_dataplane_profile.json; then
    echo "ERROR: regenerated BENCH_dataplane_profile.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_dataplane_profile.json .)" >&2
    fail=1
  else
    echo "ok: dataplane_profile byte-identical across runs, snapshot current"
  fi
fi

step "placement scaling bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/placement_scaling ]; then
  echo "ERROR: build/bench/placement_scaling missing — build step failed?" >&2
  fail=1
else
  ps_ok=1
  (cd build/bench && ./placement_scaling >/dev/null) || ps_ok=0
  cp build/bench/BENCH_placement_scaling.json build/bench/BENCH_placement_scaling.run1.json 2>/dev/null
  (cd build/bench && ./placement_scaling >/dev/null) || ps_ok=0
  if [ "$ps_ok" -ne 1 ]; then
    echo "ERROR: placement_scaling failed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_placement_scaling.json build/bench/BENCH_placement_scaling.run1.json; then
    echo "ERROR: BENCH_placement_scaling.json differs between two runs" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_placement_scaling.json BENCH_placement_scaling.json; then
    echo "ERROR: regenerated BENCH_placement_scaling.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_placement_scaling.json .)" >&2
    fail=1
  else
    echo "ok: placement_scaling byte-identical across runs, snapshot current"
  fi
fi

step "INT conformance bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/int_conformance ]; then
  echo "ERROR: build/bench/int_conformance missing — build step failed?" >&2
  fail=1
else
  int_ok=1
  (cd build/bench && ./int_conformance >/dev/null) || int_ok=0
  cp build/bench/BENCH_int_conformance.json build/bench/BENCH_int_conformance.run1.json 2>/dev/null
  (cd build/bench && ./int_conformance >/dev/null) || int_ok=0
  if [ "$int_ok" -ne 1 ]; then
    echo "ERROR: int_conformance reported an attestation failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_int_conformance.json build/bench/BENCH_int_conformance.run1.json; then
    echo "ERROR: BENCH_int_conformance.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_int_conformance.json BENCH_int_conformance.json; then
    echo "ERROR: regenerated BENCH_int_conformance.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_int_conformance.json .)" >&2
    fail=1
  else
    echo "ok: int_conformance attested clean/violated phases, byte-identical across runs, snapshot current"
  fi
fi

step "federation failover bench (determinism: two runs must be byte-identical)"
if [ ! -x build/bench/federation_failover ]; then
  echo "ERROR: build/bench/federation_failover missing — build step failed?" >&2
  fail=1
else
  fed_ok=1
  (cd build/bench && ./federation_failover >/dev/null) || fed_ok=0
  cp build/bench/BENCH_federation_failover.json build/bench/BENCH_federation_failover.run1.json 2>/dev/null
  cp build/bench/BENCH_federation_failover_fleet.json build/bench/BENCH_federation_failover_fleet.run1.json 2>/dev/null
  (cd build/bench && ./federation_failover >/dev/null) || fed_ok=0
  if [ "$fed_ok" -ne 1 ]; then
    echo "ERROR: federation_failover reported a convergence failure" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover.json build/bench/BENCH_federation_failover.run1.json; then
    echo "ERROR: BENCH_federation_failover.json differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover_fleet.json build/bench/BENCH_federation_failover_fleet.run1.json; then
    echo "ERROR: BENCH_federation_failover_fleet.json (fleet observability dump) differs between two runs at the same seed" >&2
    fail=1
  elif ! cmp -s build/bench/BENCH_federation_failover.json BENCH_federation_failover.json; then
    echo "ERROR: regenerated BENCH_federation_failover.json differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/BENCH_federation_failover.json .)" >&2
    fail=1
  else
    echo "ok: federation_failover converged, byte-identical across runs (snapshot + fleet dump), snapshot current"
  fi
fi

echo
if [ "$fail" -ne 0 ]; then
  echo "ci: FAILED" >&2
  exit 1
fi
echo "ci: all checks passed"
