#!/usr/bin/env bash
# One-stop CI gate: tier-1 build + tests (which include the committed
# BENCH_*.json snapshot cases), the sanitizer suite, the
# metrics-documentation lint, the wall-clock benchmark's own correctness
# checks on its control and data-plane workloads, and the timeseries and
# journey-dump determinism checks. Any failure fails the whole run.
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

step "wall-clock benchmark checks (perfbench control + data-plane workloads, traced, 1 s each)"
# The benchmark fails a control run when a request's verdict or final
# placement is wrong, and a data-plane run when a packet count is off or INT
# flags a violation; either fails when its exact counts differ between
# passes. Its build tree lives under build/; the counts file is removed first
# so a run never compares against counts an older build recorded.
perf_target=build/perfbench-ci
for workload in deploy_churn verify_deep dp_bare dp_observed; do
  rm -f "$perf_target/perfbench/exact_counts.json"
  perf_log="build/perfbench_$workload.log"
  if CARGO_TARGET_DIR="$perf_target" python3 perfbench/run.py --workload "$workload" \
      --seed 1001 --seconds 1 --trace 1 >"$perf_log" 2>&1; then
    echo "ok: perfbench $workload passed its checks"
  else
    tail -n 20 "$perf_log" >&2
    echo "ERROR: perfbench $workload failed its checks (log: $perf_log)" >&2
    fail=1
  fi
done

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

echo
if [ "$fail" -ne 0 ]; then
  echo "ci: FAILED" >&2
  exit 1
fi
echo "ci: all checks passed"
