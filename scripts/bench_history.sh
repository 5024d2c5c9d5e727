#!/usr/bin/env bash
# Replays one Google Benchmark row across past commits on this host, so
# slow drift shows up without trusting numbers recorded on other hosts.
#
# Usage:
#   scripts/bench_history.sh <row> <commit>...
#   scripts/bench_history.sh BM_ElasticTick/60 aadf0b2 7cf63e8 6bb958b
#
# First, for each commit: exports the commit's tree with `git archive` into
# a throwaway directory under one temp dir (nothing is checked out or
# registered in this repository, and the temp dir is removed on exit),
# configures a Release build and builds only the bench binary whose source
# registers the row's benchmark. Then runs the row 5 rounds, each round
# visiting every commit in turn with --benchmark_repetitions=3, so a change
# in the host's load over the run hits every commit alike. Prints one line
# per commit: the median cpu time of its 15 samples and their coefficient
# of variation.
#
# <row> is a benchmark name as the binary prints it, without any
# `/iterations:N` suffix (BM_ElasticTick/60, BM_FaultStormLinkCycle). Uses
# local git only. ALVC_JOBS overrides the build parallelism, as in
# scripts/check.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <row> <commit>..." >&2
  exit 2
fi
row="$1"
shift
family="${row%%/*}"
jobs="${ALVC_JOBS:-$(nproc 2>/dev/null || echo 2)}"
rounds=5
repetitions=3

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/out"

shas=()
for commit in "$@"; do
  sha="$(git rev-parse --short "$commit^{commit}")"
  shas+=("$sha")
  src="$tmp/$sha/src"
  build="$tmp/$sha/build"
  mkdir -p "$src"
  git archive "$sha" | tar -x -C "$src"
  bench_source="$(grep -l "BENCHMARK($family)" "$src"/bench/*.cpp | head -n 1 || true)"
  if [[ -z "$bench_source" ]]; then
    echo "== $sha: no bench source registers $family; skipped ==" >&2
  else
    target="$(basename "$bench_source" .cpp)"
    echo "== $sha: building $target (Release) ==" >&2
    cmake -B "$build" -S "$src" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$build" -j "$jobs" --target "$target" >/dev/null
    cp "$build/bench/$target" "$tmp/bin/$sha"
  fi
  rm -rf "${tmp:?}/$sha"
done

for round in $(seq 1 "$rounds"); do
  echo "== round $round of $rounds: $row x $repetitions per commit ==" >&2
  for sha in "${shas[@]}"; do
    [[ -x "$tmp/bin/$sha" ]] || continue
    if ! "$tmp/bin/$sha" \
      --benchmark_filter="^$row(/iterations:[0-9]+)?\$" \
      --benchmark_min_time=0.05 \
      --benchmark_repetitions="$repetitions" \
      --benchmark_out="$tmp/out/$sha.$round.json" \
      --benchmark_out_format=json >"$tmp/out/$sha.log" 2>&1; then
      cat "$tmp/out/$sha.log" >&2
      echo "== $sha: bench binary failed ==" >&2
      exit 1
    fi
  done
done

echo "$row: cpu time, $rounds interleaved rounds x $repetitions repetitions per commit"
python3 - "$tmp/out" "$rounds" "${shas[@]}" <<'PY'
import json, os, statistics, subprocess, sys

out, rounds, shas = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
print(f"{'commit':<10} {'median_us':>12} {'cv':>7}  subject")
for sha in shas:
    times = []
    for r in range(1, rounds + 1):
        path = os.path.join(out, f"{sha}.{r}.json")
        if not os.path.exists(path):
            continue
        with open(path) as f:
            data = json.load(f)
        times += [b["cpu_time"] * scale[b.get("time_unit", "ns")]
                  for b in data.get("benchmarks", [])
                  if b.get("run_type", "iteration") == "iteration"]
    subject = subprocess.run(["git", "log", "-1", "--format=%s", sha], capture_output=True,
                             text=True, check=True).stdout.strip()
    if len(subject) > 60:
        subject = subject[:57] + "..."
    if times:
        cv = statistics.pstdev(times) / statistics.mean(times)
        print(f"{sha:<10} {statistics.median(times):>12.3f} {100 * cv:>6.1f}%  {subject}")
    else:
        print(f"{sha:<10} {'-':>12} {'-':>7}  {subject}")
PY
