#!/usr/bin/env python3
"""Builds and runs the In-Net wall-clock benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The driver (perfbench/src, built with perfbench/CMakeLists.txt against the
libraries in src/) is compiled on first use into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset. The driver checks its
own outputs; this script adds one check across runs: the exact counts of a
run (allocations, engine steps, packets delivered, sampled walks) must match
those of any earlier run with the same workload, seed and trace flag in the
same build directory. The last line of stdout is the driver's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as error:
                fail(f"cannot run {step[0]}: {error}")
            if result.returncode != 0:
                log.flush()
                with open(log_path) as written:
                    sys.stderr.write("".join(written.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_driver")


def check_digest(build_dir, key, digest):
    """Returns an error when an earlier run of `key` saw other exact counts."""
    path = os.path.join(build_dir, "exact_counts.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known and known[key] != digest:
        return (f"exact counts of {key} differ from an earlier run "
                f"({digest} now, {known[key]} before)")
    known[key] = digest
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    driver = build(source_dir, build_dir)

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail(f"driver exited with status {result.returncode}")
    try:
        verdict = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(result.stdout)
        fail("driver's last line is not a JSON result")

    digest = next((line.split(":", 1)[1].strip() for line in lines
                   if line.startswith("exact-count digest:")), None)
    error = check_digest(build_dir, f"{args.workload}/seed{args.seed}/trace{args.trace}",
                         digest)
    if error is not None:
        verdict["correct"] = False
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print("\n".join(lines[:-1]))
    print(json.dumps(verdict))
    sys.exit(0 if verdict["correct"] else 1)


if __name__ == "__main__":
    main()
