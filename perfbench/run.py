#!/usr/bin/env python3
"""Build the BiScatter benchmark from source and run one workload.

    python3 perfbench/run.py --workload link_server|inventory|ber_sweep \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to the directory
named by CARGO_TARGET_DIR (default .bench_build), relative to the checkout
root. Each run rebuilds if needed, runs the self-tests, then the workload;
a traced run also writes its spans to <build dir>/spans/. The last line of
standard output is the result JSON. Any build, self-test or harness failure
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("link_server", "inventory", "ber_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Run cmd with its output in log_path; on failure show the log's tail."""
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"failed: {' '.join(cmd)}")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = os.path.join(build_dir, "cmake")
    configure = ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    run_logged(configure, os.path.join(build_dir, "configure.log"),
               BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", cmake_dir, "-j", "4"],
               os.path.join(build_dir, "build.log"), BUILD_TIMEOUT_S)
    return cmake_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmake_dir = build(build_dir)

    env = dict(os.environ)
    env.pop("BIS_TRACE", None)  # the workloads run with telemetry off
    selftest = subprocess.run([os.path.join(cmake_dir, "perfbench_selftest")],
                              capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-tests failed")

    cmd = [os.path.join(cmake_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")

    metrics = json.loads(lines[-1])["metrics"]
    if list(metrics) != expected_metrics(args.trace):
        fail(f"metrics {list(metrics)} do not match BENCHMARK.json")
    for name, metric in metrics.items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"metric {name} has no numeric value")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
