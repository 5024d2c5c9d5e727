#!/usr/bin/env python3
"""Bench regression gate over alvc-bench-trajectory-v1 files.

usage: bench_gate.py <fresh.json> [<baseline.json>]

Compares the fresh run's after_cpu_time_us per (bench, name) row against
the baseline's. Without an explicit baseline the newest committed
BENCH_PR<N>.json in the current directory (the repo root in CI) is used,
newest meaning the largest N as a number (BENCH_PR10 is newer than
BENCH_PR9); with no committed trajectory at all the row comparison is
skipped and the gate passes vacuously (ratio gates aside) so the first PR
that introduces benchmarks can land.

A row is a regression when fresh > baseline * (1 + tolerance). The
tolerance defaults to 0.25 and can be widened for a noisy host via
ALVC_BENCH_TOLERANCE (a fraction, e.g. ALVC_BENCH_TOLERANCE=0.60).
Rows present on only one side are reported but never fatal: new
benchmarks must not need a baseline edit to land, and retired ones must
not wedge the gate.

Ratio gates bound one row against another within the fresh run alone, so
host speed cancels out:
  * BM_OpsCycleVsFabric/100000 (an OPS fail/recover cycle on a 100k-group
    fabric) may cost at most FABRIC_RATIO_BOUND times
    BM_OpsCycleVsFabric/400. A cycle touches one cluster, so its cost must
    not grow with the fabric.
  * BM_FaultStormLinkCycleManyDegraded (a link fail/recover cycle with 64
    clusters held degraded) may cost at most DEGRADED_RATIO_BOUND times
    BM_FaultStormLinkCycle (the same cycle with 4). The flipped link is in
    no degraded cluster's footprint, so the restore pass has nothing to
    check either way and the cycle must not grow with the degraded set.
A ratio gate whose rows are missing is reported and skipped.

Exit codes: 0 clean, 1 regression, 2 usage or malformed input.
"""

import glob
import json
import os
import re
import sys

_TRAJECTORY_NAME = re.compile(r"BENCH_PR(\d+)\.json")

# The 100k/400 cpu-time ratio read 0.7-1.4 with owner-held traversal
# scratch and 44-60 before it, when per-call whole-fabric scratch made the
# cycle O(fabric) (4 runs against 3, interleaved, on a 4-vCPU host).
FABRIC_RATIO_BOUND = 3.0
# The 64/4-degraded ratio read 3.8 (5.26 / 1.38 us in the trajectory) while
# every recovery checked every degraded cluster's rebuild memo.
DEGRADED_RATIO_BOUND = 1.5
RATIO_GATES = [("bench_sharded_control_plane", "BM_OpsCycleVsFabric/100000",
                "BM_OpsCycleVsFabric/400", FABRIC_RATIO_BOUND),
               ("bench_failure_recovery", "BM_FaultStormLinkCycleManyDegraded",
                "BM_FaultStormLinkCycle", DEGRADED_RATIO_BOUND)]


def newest_committed_baseline(directory="."):
    """Path of the BENCH_PR<N>.json in `directory` with the largest N, or
    None. Sorting the names as strings would rank BENCH_PR9 above
    BENCH_PR10; scripts/check.sh resolves its baseline through here too."""
    numbered = []
    for path in glob.glob(os.path.join(directory, "BENCH_PR*.json")):
        match = _TRAJECTORY_NAME.fullmatch(os.path.basename(path))
        if match:
            numbered.append((int(match.group(1)), path))
    return os.path.normpath(max(numbered)[1]) if numbered else None


def round_sig(value, digits=4):
    """`value` rounded to `digits` significant digits. The trajectory keeps
    microseconds, so a fixed number of decimals would store a
    nanosecond-scale row with one or two digits, and the gate would read
    rounding steps (0.002 -> 0.003 us) as a 1.5x regression.
    scripts/check.sh rounds its rows through here."""
    return float(f"{value:.{digits}g}")


def fail_usage(message):
    print(f"bench_gate: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        fail_usage(f"cannot read {path}: {err.strerror}")
    except json.JSONDecodeError as err:
        fail_usage(f"{path} is not valid JSON: {err}")
    if data.get("schema") != "alvc-bench-trajectory-v1":
        fail_usage(f"{path}: expected schema alvc-bench-trajectory-v1, "
                   f"got {data.get('schema')!r}")
    return {(row["bench"], row["name"]): row["after_cpu_time_us"]
            for row in data.get("benchmarks", [])
            if row.get("after_cpu_time_us") is not None}


def ratio_violations(fresh):
    """Checks RATIO_GATES on one run's rows; returns the violated gates."""
    violations = []
    for bench, top, bottom, bound in RATIO_GATES:
        num, den = fresh.get((bench, top)), fresh.get((bench, bottom))
        if num is None or den is None or den <= 0:
            print(f"  [skip] {bench}/{top} over {bottom}: rows missing")
            continue
        ratio = num / den
        verdict = "ok" if ratio <= bound else "REGRESSED"
        print(f"  [{verdict}] {bench}/{top} over {bottom}: "
              f"{ratio:.2f}x (bound {bound:.2f}x)")
        if verdict == "REGRESSED":
            violations.append((bench, top, ratio))
    return violations


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        fail_usage("usage: bench_gate.py <fresh.json> [<baseline.json>]")
    fresh_path = argv[1]
    baseline_path = argv[2] if len(argv) == 3 else newest_committed_baseline()

    try:
        tolerance = float(os.environ.get("ALVC_BENCH_TOLERANCE", "0.25"))
    except ValueError:
        fail_usage("ALVC_BENCH_TOLERANCE must be a number (a fraction, e.g. 0.25)")
    if tolerance < 0:
        fail_usage("ALVC_BENCH_TOLERANCE must be >= 0")

    fresh = load(fresh_path)
    regressions = []
    if baseline_path is None:
        print("bench_gate: no committed BENCH_PR*.json baseline; "
              "row comparison skipped")
    else:
        baseline = load(baseline_path)
        print(f"bench_gate: {fresh_path} vs {baseline_path} "
              f"(tolerance {tolerance:.0%})")
        for key in sorted(baseline):
            bench, name = key
            if key not in fresh:
                print(f"  [gone] {bench}/{name}: not in the fresh run")
                continue
            before, after = baseline[key], fresh[key]
            if before <= 0:
                print(f"  [skip] {bench}/{name}: non-positive baseline {before}")
                continue
            ratio = after / before
            verdict = "ok" if ratio <= 1 + tolerance else "REGRESSED"
            print(f"  [{verdict}] {bench}/{name}: "
                  f"{before:.4g}us -> {after:.4g}us ({ratio:.2f}x)")
            if verdict == "REGRESSED":
                regressions.append((bench, name, ratio))
        for bench, name in sorted(set(fresh) - set(baseline)):
            print(f"  [new] {bench}/{name}: {fresh[(bench, name)]:.4g}us, no baseline")

    ratio_failures = ratio_violations(fresh)
    if regressions:
        print(f"bench_gate: {len(regressions)} benchmark(s) regressed beyond "
              f"{tolerance:.0%}; widen with ALVC_BENCH_TOLERANCE if the host "
              f"is noisy", file=sys.stderr)
    if ratio_failures:
        print(f"bench_gate: {len(ratio_failures)} ratio gate(s) exceeded; a row "
              f"meant to be independent of fabric size or of the degraded set "
              f"grew with it", file=sys.stderr)
    if regressions or ratio_failures:
        return 1
    if baseline_path is None:
        print("bench_gate: no ratio gate exceeded; gate passes vacuously")
    else:
        print("bench_gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
