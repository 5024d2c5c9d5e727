#!/usr/bin/env python3
"""Steadiness self-check of the end-to-end benchmark.

Runs each workload --runs times (seeds --first-seed, --first-seed + 1, ...)
through run.py and prints, for every end-to-end metric of BENCHMARK.json,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread: (q3 - q1) / median, set against the metric's bound. With --sets 2
the same seeds run a second time and the second median's drift in the
metric's worse direction is set against the bound as well; that is the
"two sets of runs of the same code agree" check.

    python3 e2e_bench/steadiness.py --runs 10
    python3 e2e_bench/steadiness.py --workloads fault_storm --runs 5 --sets 2

A spread (setup_s excepted) or a drift above its bound fails the check
(exit 1); one above a third of its bound is flagged "wide".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("steadiness: %s seed %d failed (exit %d)" % (workload, seed,
                                                                       proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    if args.runs < 2:
        raise SystemExit("steadiness: --runs must be at least 2")

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + i
                runs.append(run_once(workload, seed, seconds))
                print("%s set %d seed %d: %s" % (workload, s + 1, seed, json.dumps(runs[-1])),
                      flush=True)
            sets.append(runs)
        print("\n%s: %d runs x %d set(s), %d s each" % (workload, args.runs, args.sets, seconds))
        print("  %-22s %14s %14s %14s %8s %7s  %s" % ("metric", "median", "q1", "q3", "spread",
                                                     "bound", "status"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3, spread = summarize([r[name] for r in runs])
                medians.append(median)
                status = "ok"
                if name == "setup_s":
                    status = "ok (spread not gated)"
                elif spread > bound:
                    status, ok = "FAIL", False
                elif spread > bound / 3:
                    status = "wide (> bound/3)"
                print("  %-22s %14.6g %14.6g %14.6g %7.2f%% %6.0f%%  set %d %s" % (
                    name, median, q1, q3, 100 * spread, 100 * bound, s + 1, status))
            if len(medians) == 2:
                sign = 1 if metric["better"] == "lower" else -1
                drift = sign * (medians[1] - medians[0]) / medians[0]
                status = "ok"
                if drift > bound:
                    status, ok = "FAIL", False
                elif drift > bound / 3:
                    status = "wide (> bound/3)"
                print("  %-22s second median worse by %.2f%% (bound %.0f%%) %s" % (
                    name, 100 * drift, 100 * bound, status))
        print(flush=True)
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
