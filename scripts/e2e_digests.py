#!/usr/bin/env python3
"""Golden end-state digest gate for the end-to-end benchmark.

Usage (from the repository root):

    python3 scripts/e2e_digests.py --check   # compare with the golden file
    python3 scripts/e2e_digests.py --write   # regenerate the golden file

Runs `python3 e2e_bench/run.py --seconds 2 --trace 0` for every workload and
seed below, parses every round's `schedule_digest` and `end_state_digest`,
and compares them with tests/golden/e2e_digests.json (or writes that file).
A digest is a pure function of the seed and the control-plane logic, so any
mismatch means behaviour changed. A change that alters behaviour on purpose
regenerates the file with --write and says why in CHANGES.md.

Exit status: 0 when every digest matches (or the file was written), 1 on a
mismatch, 2 when a run failed or produced no digests.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "e2e_digests.json")
WORKLOADS = ("churn_qos", "fault_storm", "elastic_mixed")
SEEDS = (1, 2, 5, 11)
SECONDS = 2
SCHEMA = "alvc-e2e-digests-v1"

ROUND_RE = re.compile(r"^round (\d+) seed=(\d+) .*schedule_digest=(0x[0-9a-f]+)")
END_RE = re.compile(r"end_state_digest=(0x[0-9a-f]+)")


def run_digests(workload, seed):
    """Every round's digests of one run, in round order."""
    cmd = [sys.executable, os.path.join("e2e_bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print(proc.stdout, end="")
        print("e2e_digests: %s seed %d: run.py exited with %d" %
              (workload, seed, proc.returncode), file=sys.stderr)
        sys.exit(2)
    rounds = []
    for line in proc.stdout.splitlines():
        head = ROUND_RE.match(line)
        if head:
            rounds.append({"round": int(head.group(1)), "round_seed": int(head.group(2)),
                           "schedule_digest": head.group(3)})
            continue
        tail = END_RE.search(line)
        if tail and rounds and "end_state_digest" not in rounds[-1]:
            rounds[-1]["end_state_digest"] = tail.group(1)
    if not rounds or any("end_state_digest" not in r for r in rounds):
        print("e2e_digests: %s seed %d: no complete round digests in the output" %
              (workload, seed), file=sys.stderr)
        sys.exit(2)
    return rounds


def collect():
    runs = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            print("e2e_digests: %s seed %d" % (workload, seed), file=sys.stderr, flush=True)
            runs.setdefault(workload, {})[str(seed)] = run_digests(workload, seed)
    return {"schema": SCHEMA, "seconds": SECONDS, "seeds": list(SEEDS), "runs": runs}


def compare(golden, fresh):
    """Human-readable differences between two digest tables."""
    problems = []
    if golden.get("schema") != SCHEMA:
        problems.append("golden schema is %r, expected %r" % (golden.get("schema"), SCHEMA))
        return problems
    if golden.get("seconds") != fresh["seconds"] or golden.get("seeds") != fresh["seeds"]:
        problems.append("golden was written for seconds=%r seeds=%r; this run used %r %r" %
                        (golden.get("seconds"), golden.get("seeds"), fresh["seconds"],
                         fresh["seeds"]))
    for workload, seeds in fresh["runs"].items():
        for seed, rounds in seeds.items():
            want = golden.get("runs", {}).get(workload, {}).get(seed)
            if want is None:
                problems.append("%s seed %s: not in the golden file" % (workload, seed))
                continue
            if len(want) != len(rounds):
                problems.append("%s seed %s: %d rounds, golden has %d" %
                                (workload, seed, len(rounds), len(want)))
            for got, exp in zip(rounds, want):
                for key in ("schedule_digest", "end_state_digest"):
                    if got[key] != exp.get(key):
                        problems.append("%s seed %s round %d: %s %s, golden %s" %
                                        (workload, seed, got["round"], key, got[key],
                                         exp.get(key)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the golden file")
    mode.add_argument("--check", action="store_true", help="compare with the golden file")
    args = parser.parse_args()

    fresh = collect()
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(fresh, f, indent=1, sort_keys=True)
            f.write("\n")
        print("e2e_digests: wrote %s" % GOLDEN)
        return 0
    if not os.path.isfile(GOLDEN):
        print("e2e_digests: no golden file at %s (run with --write)" % GOLDEN,
              file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    problems = compare(golden, fresh)
    for problem in problems:
        print("e2e_digests: MISMATCH " + problem)
    if problems:
        return 1
    total = sum(len(r) for seeds in fresh["runs"].values() for r in seeds.values())
    print("e2e_digests: all %d round digests match %s" % (total, GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
