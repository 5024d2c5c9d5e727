#!/usr/bin/env python3
"""Build and run the end-to-end control-plane benchmark.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload churn_qos --seed 1 --seconds 10 --trace 0
    python3 e2e_bench/run.py --self-test

The first call configures and compiles the library and the replay driver
(e2e_bench/CMakeLists.txt) into .bench_build/e2e_bench; later calls only
re-check that build. The driver's lines are passed through, and the last
line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A failed correctness check, a failed build or
a result that does not match BENCHMARK.json exits non-zero and prints no
JSON. --self-test builds and runs the driver's unit tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; stdout stays clean."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2e_bench/", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                     BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed", 2)
    if run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        fail("build of " + target + " failed", 2)
    return os.path.join(out, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns a problem with the driver's JSON line, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed",
                                                          "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    if result["correct"] is not True:
        return "result is not correct"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the driver's unit tests")
    args = parser.parse_args()

    if args.self_test:
        test = build("e2e_driver_test")
        if not os.path.isfile(test):
            fail("GoogleTest not found; unit tests were not built", 2)
        sys.exit(subprocess.run([test], cwd=ROOT, check=False).returncode)
    if not args.workload:
        fail("--workload is required", 2)

    driver = build("e2e_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S, 3)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        for line in lines:
            print(line)
        fail("driver exited with %d (a correctness check failed)" % proc.returncode, 1)
    if not lines:
        fail("driver printed nothing", 1)
    problem = check_result(lines[-1], args.trace == 1)
    for line in lines[:-1]:
        print(line)
    if problem:
        fail(problem, 1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
