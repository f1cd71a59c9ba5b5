#!/usr/bin/env bash
# One-stop CI gate: tier-1 build + tests, the sanitizer suite, the
# metrics-documentation lint, the perf-regression gate (innet_benchdiff vs
# the committed BENCH_*.json baselines), the timeseries and journey-dump
# determinism checks, and a JSON lint over every committed BENCH_*.json
# telemetry file. Any failure fails the whole run.
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

# Runs build/bench/<bench> twice, then checks that BENCH_<bench>.json and every
# extra dump is byte-identical across the two runs and that BENCH_<bench>.json
# matches the committed snapshot.
# Usage: bench_snapshot <bench> <title> <run-failure text> <run-diff qualifier>
#                       <ok text> ["<extra dump file> (<what it is>)" ...]
bench_snapshot() {
  local bench="$1" title="$2" run_failure="$3" qualifier="$4" ok_text="$5"
  shift 5
  local snapshot="BENCH_$bench.json"
  local dumps=("$snapshot" "$@")
  local dump file run_ok=1
  step "$title (determinism: two runs must be byte-identical)"
  if [ ! -x "build/bench/$bench" ]; then
    echo "ERROR: build/bench/$bench missing — build step failed?" >&2
    fail=1
    return
  fi
  (cd build/bench && "./$bench" >/dev/null) || run_ok=0
  for dump in "${dumps[@]}"; do
    file="${dump%% *}"
    cp "build/bench/$file" "build/bench/${file%.json}.run1.json" 2>/dev/null
  done
  (cd build/bench && "./$bench" >/dev/null) || run_ok=0
  if [ "$run_ok" -ne 1 ]; then
    echo "ERROR: $bench $run_failure" >&2
    fail=1
    return
  fi
  for dump in "${dumps[@]}"; do
    file="${dump%% *}"
    if ! cmp -s "build/bench/$file" "build/bench/${file%.json}.run1.json"; then
      echo "ERROR: $dump differs between two runs$qualifier" >&2
      fail=1
      return
    fi
  done
  if ! cmp -s "build/bench/$snapshot" "$snapshot"; then
    echo "ERROR: regenerated $snapshot differs from the committed snapshot" >&2
    echo "       (if the change is intentional: cp build/bench/$snapshot .)" >&2
    fail=1
  else
    echo "ok: $ok_text"
  fi
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
  # The sampled-walk trace, its Perfetto export and the flight recorder
  # share event text between records; each dump must still repeat exactly.
  journey_ok=1
  for run in 1 2; do
    ./build/tools/innet_run --config examples/batcher.click \
        --dataplane-sample-n 4 --int-sample-n 2 \
        --trace-out "build/journey_trace_run$run.json" \
        --perfetto-out "build/journey_perfetto_run$run.json" \
        --flight-out "build/journey_flight_run$run.json" >/dev/null || journey_ok=0
  done
  if [ "$journey_ok" -ne 1 ]; then
    echo "ERROR: innet_run with sampled walks and dumps failed" >&2
    fail=1
  else
    for dump in trace perfetto flight; do
      if ! cmp -s "build/journey_${dump}_run1.json" "build/journey_${dump}_run2.json"; then
        echo "ERROR: $dump dumps differ between two runs of the same config" >&2
        fail=1
      else
        echo "ok: $dump dump byte-identical across repeat runs"
      fi
    done
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

bench_snapshot control_chaos "control-plane chaos bench" \
  "reported a convergence failure" " at the same seed" \
  "control_chaos converged, byte-identical across runs, snapshot current"
bench_snapshot dataplane_profile "dataplane profile bench" "failed" " at the same seed" \
  "dataplane_profile byte-identical across runs, snapshot current"
bench_snapshot placement_scaling "placement scaling bench" "failed" "" \
  "placement_scaling byte-identical across runs, snapshot current"
bench_snapshot int_conformance "INT conformance bench" \
  "reported an attestation failure" " at the same seed" \
  "int_conformance attested clean/violated phases, byte-identical across runs, snapshot current"
bench_snapshot federation_failover "federation failover bench" \
  "reported a convergence failure" " at the same seed" \
  "federation_failover converged, byte-identical across runs (snapshot + fleet dump), snapshot current" \
  "BENCH_federation_failover_fleet.json (fleet observability dump)"

echo
if [ "$fail" -ne 0 ]; then
  echo "ci: FAILED" >&2
  exit 1
fi
echo "ci: all checks passed"
