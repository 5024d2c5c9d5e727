#!/usr/bin/env bash
# One-command gate: static analysis first, then configure + build + ctest,
# then the thread-safety suites again under ThreadSanitizer, the
# failure/recovery suites under AddressSanitizer, the telemetry subsystem
# with hooks compiled OFF (plus an ON-vs-OFF bit-identical seeded sim diff
# and a bench smoke), the full suite under UndefinedBehaviorSanitizer, and
# a benchmark smoke that writes machine-readable JSON.
#
# The same legs back the CI pipeline (.github/workflows/ci.yml): each CI
# job runs `scripts/check.sh --ci <leg>`, so the workflow and the local
# gate cannot drift apart.
#
# The static stage runs BEFORE any test and has four parts:
#   1. alvc_lint        — project rules (determinism, id arithmetic, naked
#                         discards, layering); always runs, failure is fatal.
#   2. alvc_analyze     — whole-program passes (lock-order cycles, blocking
#                         calls under locks, unordered-container iteration
#                         escaping in hash order, call-level layering);
#                         always runs against tools/alvc_analyze/baseline.txt
#                         and writes a run-stats JSON next to the bench
#                         artifacts. Failure is fatal.
#   3. -Wthread-safety  — clang thread-safety analysis of the ALVC_GUARDED_BY
#                         annotations, built with -DALVC_STATIC_ANALYSIS=ON.
#                         clang++ is REQUIRED: a silent skip here once meant
#                         the annotations went unchecked until CI. On a
#                         clang-less host, opt out explicitly with
#                         ALVC_SKIP_CLANG_STATIC=1 (the annotations still
#                         compile away under the host compiler).
#   4. clang-tidy       — .clang-tidy checks over src/; best-effort, runs
#                         when a clang-tidy binary is on PATH, never fatal
#                         on absence.
#
# The TSan and ASan legs additionally build with -DALVC_LOCK_ORDER_CHECK=ON,
# so every mutex acquisition in those soaks asserts the static lock-order
# ranks (src/util/lock_rank.h) at runtime.
#
# Usage:
#   scripts/check.sh                    # static gate + full ctest + sanitizer legs
#   scripts/check.sh --static-only      # static gate only (fast pre-commit loop)
#   scripts/check.sh --ci <leg>         # exactly one CI leg: static, analyze,
#                                       #   tier1, tsan, asan, ubsan,
#                                       #   telemetry, overload-soak,
#                                       #   elastic-soak, bench-smoke,
#                                       #   scale-soak, e2e-digests
#   scripts/check.sh --bench-json <out> # run the tracked benchmarks
#                                       #   (bench_route_cache,
#                                       #   bench_fig4_al_construction,
#                                       #   bench_sharded_control_plane,
#                                       #   bench_overload_downgrade,
#                                       #   bench_elastic_scaling,
#                                       #   bench_fig2_topology,
#                                       #   bench_failure_recovery) and
#                                       #   write alvc-bench-trajectory-v1
#                                       #   JSON; see emit_bench_json for
#                                       #   baseline resolution
#                                       #   (ALVC_BENCH_SCALE=full adds the
#                                       #   million-VM rows, Release build)
#   ALVC_SKIP_CLANG_STATIC=1 scripts/check.sh  # clang-less host: skip TSA build
#   ALVC_SKIP_TSAN=1 scripts/check.sh   # skip the TSan pass (e.g. unsupported host)
#   ALVC_SKIP_ASAN=1 scripts/check.sh   # skip the ASan pass
#   ALVC_SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan pass
#   ALVC_SKIP_TELEMETRY=1 scripts/check.sh  # skip the telemetry ON/OFF leg
#   ALVC_JOBS=8 scripts/check.sh        # override parallelism
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="${ALVC_JOBS:-$(nproc 2>/dev/null || echo 2)}"

leg_lint() {
  echo "== static: alvc_lint =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target alvc_lint
  ./build/tools/alvc_lint --exclude tests/tools/fixtures src tests tools
}

leg_analyze() {
  echo "== static: alvc_analyze (whole-program lock order & determinism) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target alvc_analyze
  mkdir -p build/analyze
  ./build/tools/alvc_analyze \
    --exclude tests/tools/fixtures --exclude tests/tools/analyze_fixtures \
    --baseline tools/alvc_analyze/baseline.txt \
    --stats-json build/analyze/alvc-analyze-stats.json \
    src tests tools
}

leg_clang_static() {
  if ! command -v clang++ >/dev/null 2>&1; then
    if [[ "${ALVC_SKIP_CLANG_STATIC:-0}" == "1" ]]; then
      echo "== static: clang++ not found; thread-safety analysis SKIPPED (ALVC_SKIP_CLANG_STATIC=1) =="
      echo "   (annotations still compile away cleanly under the host compiler)"
      return 0
    fi
    echo "error: clang++ not found, but the -Wthread-safety static gate requires it." >&2
    echo "       Install clang, or run with ALVC_SKIP_CLANG_STATIC=1 to skip this" >&2
    echo "       leg explicitly (CI still enforces it)." >&2
    exit 1
  fi
  echo "== static: clang -Wthread-safety (-DALVC_STATIC_ANALYSIS=ON) =="
  cmake -B build-static -S . -DALVC_STATIC_ANALYSIS=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-static -j "$jobs"
}

leg_clang_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== static: clang-tidy (best effort) =="
    # compile_commands.json is exported by the plain configure above.
    mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  else
    echo "== static: clang-tidy not found; tidy stage skipped (non-fatal) =="
  fi
}

leg_tier1() {
  # The gcc build is warning-free, so warnings fail it. The clang build's
  # warnings have not been shown clean yet, so it keeps them as warnings.
  local werror=ON
  case "${CXX:-}" in *clang*) werror=OFF ;; esac
  echo "== configure + build (plain, ALVC_WERROR=$werror) =="
  cmake -B build -S . -DALVC_WERROR="$werror" >/dev/null
  cmake --build build -j "$jobs"

  echo "== ctest (full suite) =="
  ctest --test-dir build --output-on-failure -j "$jobs"
}

leg_tsan() {
  echo "== configure + build (ThreadSanitizer) =="
  cmake -B build-tsan -S . -DALVC_SANITIZE=thread -DALVC_LOCK_ORDER_CHECK=ON >/dev/null
  cmake --build build-tsan -j "$jobs" --target \
    util_executor_test cluster_degraded_cluster_test telemetry_metric_registry_test

  echo "== ctest -L sanitize (under TSan) =="
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L sanitize
}

leg_asan() {
  echo "== configure + build (AddressSanitizer) =="
  cmake -B build-asan -S . -DALVC_SANITIZE=address -DALVC_LOCK_ORDER_CHECK=ON >/dev/null
  # alvc_tests_failures (tests/CMakeLists.txt) collects every test binary
  # labelled `failures`, so the build and `ctest -L failures` cannot drift.
  cmake --build build-asan -j "$jobs" --target alvc_tests_failures

  echo "== ctest -L failures (under ASan) =="
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -L failures
}

leg_telemetry() {
  echo "== configure + build (-DALVC_TELEMETRY=OFF) =="
  # elastic_scaling_test rides along so the elastic control loop's gauge and
  # counter hooks are proven to compile away with telemetry off.
  cmake -B build-notelemetry -S . -DALVC_TELEMETRY=OFF >/dev/null
  cmake --build build-notelemetry -j "$jobs" --target \
    datacenter_sim telemetry_determinism_test bench_telemetry_overhead elastic_scaling_test

  echo "== telemetry: hooks compile to no-ops and determinism holds when OFF =="
  ctest --test-dir build-notelemetry --output-on-failure -j "$jobs" \
    -R 'Telemetry(Determinism|Export)Test|ScalingFixture'

  echo "== telemetry: seeded sim output is bit-identical ON vs OFF =="
  # datacenter_sim is fully seeded; instrumentation must never perturb the
  # simulation itself, so the two builds' stdout must match byte-for-byte.
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target datacenter_sim bench_telemetry_overhead
  ./build/examples/datacenter_sim > build/telemetry-on.out
  ./build-notelemetry/examples/datacenter_sim > build-notelemetry/telemetry-off.out
  diff build/telemetry-on.out build-notelemetry/telemetry-off.out
  ./build/examples/datacenter_sim > build/telemetry-on2.out
  diff build/telemetry-on.out build/telemetry-on2.out

  echo "== telemetry: overhead bench smoke (ON and OFF builds) =="
  ./build/bench/bench_telemetry_overhead \
    --benchmark_min_time=0.01 --benchmark_filter='BM_(CounterAdd|HookMacro)' >/dev/null
  ./build-notelemetry/bench/bench_telemetry_overhead \
    --benchmark_min_time=0.01 --benchmark_filter='BM_(CounterAdd|HookMacro)' >/dev/null
}

leg_ubsan() {
  echo "== configure + build (UndefinedBehaviorSanitizer) =="
  cmake -B build-ubsan -S . -DALVC_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$jobs"

  echo "== ctest (full suite, under UBSan) =="
  ctest --test-dir build-ubsan --output-on-failure -j "$jobs"
}

leg_overload_soak() {
  echo "== overload soak: QoS allocator under flash crowds, churn, and faults =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target \
    orchestrator_bandwidth_allocator_test orchestrator_strict_ladder_differential_test \
    faults_overload_soak_test bench_overload_downgrade

  echo "== ctest: water-filling properties, strict-ladder differential, 20-seed soak =="
  ctest --test-dir build --output-on-failure -j "$jobs" \
    -R '(WaterFill|Ladder|AllocationPlan|StrictLadderDifferential|OverloadSoak|QosRetryBackoff)'

  echo "== overload downgrade bench smoke (experiment table asserts audits clean) =="
  ./build/bench/bench_overload_downgrade \
    --benchmark_min_time=0.01 --benchmark_filter='BM_(WaterFillPlan|RebalancePass)' >/dev/null
}

leg_elastic_soak() {
  echo "== elastic soak: demand-driven scaling + live migration under faults =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target \
    nfv_lifecycle_scale_test elastic_demand_model_test elastic_scaling_test \
    elastic_migration_test elastic_elastic_soak_test bench_elastic_scaling

  echo "== ctest: demand model, scaling/migration branches, 20-seed elastic soak =="
  ctest --test-dir build --output-on-failure -j "$jobs" \
    -R '(DemandModel|SharedWaveform|ScalingFixture|ScalingQos|MigrationFixture|ElasticSoak|LifecycleScale|CloudScale)'

  echo "== elastic bench smoke (experiment table asserts the 3x AL-update ratio) =="
  ./build/bench/bench_elastic_scaling \
    --benchmark_min_time=0.01 --benchmark_filter='BM_ElasticTick' >/dev/null
}

leg_bench_smoke() {
  echo "== bench smoke: route cache + elastic + sharded (tiny sizes, JSON out) =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target \
    bench_route_cache bench_elastic_scaling bench_sharded_control_plane
  mkdir -p build/bench-smoke
  ./build/bench/bench_route_cache \
    --benchmark_min_time=0.01 \
    --benchmark_out=build/bench-smoke/route_cache.json \
    --benchmark_out_format=json
  ./build/bench/bench_elastic_scaling \
    --benchmark_min_time=0.01 \
    --benchmark_out=build/bench-smoke/elastic_scaling.json \
    --benchmark_out_format=json
  ./build/bench/bench_sharded_control_plane \
    --benchmark_min_time=0.01 \
    --benchmark_out=build/bench-smoke/sharded_control_plane.json \
    --benchmark_out_format=json
  emit_bench_json build/bench-smoke/BENCH_fresh.json
  echo "== bench regression gate: fresh trajectory vs newest committed BENCH_PR*.json =="
  # >25% slower on any tracked row fails the job; a noisy host can widen
  # the band with ALVC_BENCH_TOLERANCE (a fraction, e.g. 0.60).
  python3 scripts/bench_gate.py build/bench-smoke/BENCH_fresh.json
  echo "== bench smoke artifacts in build/bench-smoke/ =="
}

leg_e2e_digests() {
  echo "== e2e digests: every round's schedule/end-state digest vs tests/golden =="
  # Builds e2e_bench's replay binary (Release, .bench_build/) and replays all
  # three workloads on a fixed seed set; any digest drift is a behaviour
  # change and fails the leg. Regenerate with --write only on purpose.
  python3 scripts/e2e_digests.py --check
}

leg_scale_soak() {
  echo "== scale soak: shard-count differential + million-VM smoke (Release) =="
  cmake -B build-scale -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-scale -j "$jobs" --target \
    orchestrator_sharded_differential_test faults_scale_soak_test

  echo "== shard-count differential, {2,4,8} vs 1 shard (reduced seed set) =="
  # CI runs fewer seeds than the local default (20) to bound wall clock;
  # override with ALVC_SHARD_DIFF_SEEDS.
  ALVC_SHARD_DIFF_SEEDS="${ALVC_SHARD_DIFF_SEEDS:-6}" ctest --test-dir build-scale \
    --output-on-failure -R 'ShardedDifferentialTest'

  echo "== million-VM smoke: 100k chains over 1M VMs under mixed faults =="
  ALVC_SCALE_SOAK=1 ctest --test-dir build-scale --output-on-failure \
    --timeout 3000 -R 'ScaleSoakTest'
}

# emit_bench_json <out.json> — runs the tracked benchmarks
# (bench_route_cache, bench_fig4_al_construction, the mid-scale
# bench_sharded_control_plane 1/2/4/8-shard cycles and its
# BM_OpsCycleVsFabric sweep over 400/4k/40k/100k groups, whose 100k/400
# ratio bench_gate.py bounds, the
# bench_overload_downgrade rebalance rows, the bench_elastic_scaling
# tick rows at two history lengths and after a warm-up (BM_ElasticTick*),
# the bench_fig2_topology switch-graph
# link-flip rows and the bench_failure_recovery fault_storm link cycles,
# BM_FaultStormLinkCycle with 4 clusters held degraded,
# BM_FaultStormLinkCycleManyDegraded with 64, whose ratio to the 4-degraded
# row bench_gate.py bounds, and
# BM_FaultStormLinkCycleOffLayer, which flips an uplink no AL at its ToR
# uses; the filter's prefix matches all three)
# and writes an
# alvc-bench-trajectory-v1 JSON: per benchmark name, the median cpu time
# in microseconds over five repetitions (after_cpu_time_us, four
# significant digits through bench_gate.round_sig) and its coefficient of
# variation (after_cpu_time_cv), next to a "before" baseline and the
# resulting speedup.
# With ALVC_BENCH_SCALE=full, the million-VM sharded benchmark also runs
# (from the Release build-scale tree — Debug at that size is minutes of
# topology build alone) and its rows are merged in; CI runs without the
# env, so those rows show up as [gone] in the gate, which is non-fatal.
# Baseline resolution, in order:
#   1. $ALVC_BENCH_BASELINE_DIR/{route_cache,fig4,sharded,overload,elastic,fig2,
#      failure_recovery}.json — raw
#      google-benchmark JSON captured on the pre-change tree (medians when
#      it holds aggregates, else its single samples);
#   2. the newest committed BENCH_PR<N>.json at the repo root, by PR
#      number (bench_gate.newest_committed_baseline; its `before` values
#      carry forward, so CI tracks drift against the trajectory);
#   3. null (no baseline available; speedup omitted).
emit_bench_json() {
  local out="$1"
  echo "== bench json: tracked benchmarks -> $out =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs" --target \
    bench_route_cache bench_fig4_al_construction bench_sharded_control_plane \
    bench_overload_downgrade bench_elastic_scaling bench_fig2_topology \
    bench_failure_recovery
  local tmpdir
  tmpdir="$(mktemp -d)"
  # Five repetitions per row; the JSON keeps only their aggregates, and
  # each row records the median, so one noisy sample cannot move a row.
  local reps=(--benchmark_repetitions=5 --benchmark_report_aggregates_only=true)
  ./build/bench/bench_route_cache \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_out="$tmpdir/route_cache.json" \
    --benchmark_out_format=json
  ./build/bench/bench_fig4_al_construction \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_filter='/512$' \
    --benchmark_out="$tmpdir/fig4.json" \
    --benchmark_out_format=json
  ALVC_BENCH_SCALE= ./build/bench/bench_sharded_control_plane \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_out="$tmpdir/sharded.json" \
    --benchmark_out_format=json
  ./build/bench/bench_overload_downgrade \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_filter='^BM_Rebalance' \
    --benchmark_out="$tmpdir/overload.json" \
    --benchmark_out_format=json
  ./build/bench/bench_elastic_scaling \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_filter='^BM_ElasticTick' \
    --benchmark_out="$tmpdir/elastic.json" \
    --benchmark_out_format=json
  ./build/bench/bench_fig2_topology \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_filter='^BM_SwitchGraphLinkFlip' \
    --benchmark_out="$tmpdir/fig2.json" \
    --benchmark_out_format=json
  ./build/bench/bench_failure_recovery \
    --benchmark_min_time=0.05 "${reps[@]}" \
    --benchmark_filter='^BM_FaultStormLinkCycle' \
    --benchmark_out="$tmpdir/failure_recovery.json" \
    --benchmark_out_format=json
  if [[ "${ALVC_BENCH_SCALE:-}" == "full" ]]; then
    echo "== bench json: million-VM sharded rows (Release build-scale) =="
    cmake -B build-scale -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-scale -j "$jobs" --target bench_sharded_control_plane
    ALVC_BENCH_SCALE=full ./build-scale/bench/bench_sharded_control_plane \
      --benchmark_filter='MillionVm' "${reps[@]}" \
      --benchmark_out="$tmpdir/sharded_full.json" \
      --benchmark_out_format=json
  fi
  python3 - "$tmpdir" "$out" <<'PY'
import json, os, sys

sys.path.insert(0, "scripts")
from bench_gate import newest_committed_baseline, round_sig

tmpdir, out = sys.argv[1], sys.argv[2]
baseline_dir = os.environ.get("ALVC_BENCH_BASELINE_DIR", "")

def load_cpu_us(path):
    """Row name -> (cpu time in us, cv or None).

    A run with repetitions reports aggregates: the row takes the median's
    cpu time under its plain run_name, with the cv aggregate beside it. A
    file without aggregates (one sample per row) loads each sample as is.
    """
    with open(path) as f:
        data = json.load(f)
    result, cvs = {}, {}
    for b in data.get("benchmarks", []):
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}[unit]
        if b.get("run_type") != "aggregate":
            result[b["name"]] = b["cpu_time"] * scale
        elif b.get("aggregate_name") == "median":
            result[b["run_name"]] = b["cpu_time"] * scale
        elif b.get("aggregate_name") == "cv":
            cvs[b["run_name"]] = b["cpu_time"]  # a ratio, not a time
    return {name: (cpu, cvs.get(name)) for name, cpu in result.items()}

after = {"bench_route_cache": load_cpu_us(f"{tmpdir}/route_cache.json"),
         "bench_fig4_al_construction": load_cpu_us(f"{tmpdir}/fig4.json"),
         "bench_sharded_control_plane": load_cpu_us(f"{tmpdir}/sharded.json"),
         "bench_overload_downgrade": load_cpu_us(f"{tmpdir}/overload.json"),
         "bench_elastic_scaling": load_cpu_us(f"{tmpdir}/elastic.json"),
         "bench_fig2_topology": load_cpu_us(f"{tmpdir}/fig2.json"),
         "bench_failure_recovery": load_cpu_us(f"{tmpdir}/failure_recovery.json")}
full_path = os.path.join(tmpdir, "sharded_full.json")
if os.path.exists(full_path):
    after["bench_sharded_control_plane"].update(load_cpu_us(full_path))

before = {}
if baseline_dir:
    for bench, raw in (("bench_route_cache", "route_cache.json"),
                       ("bench_fig4_al_construction", "fig4.json"),
                       ("bench_sharded_control_plane", "sharded.json"),
                       ("bench_overload_downgrade", "overload.json"),
                       ("bench_elastic_scaling", "elastic.json"),
                       ("bench_fig2_topology", "fig2.json"),
                       ("bench_failure_recovery", "failure_recovery.json")):
        path = os.path.join(baseline_dir, raw)
        if os.path.exists(path):
            before[bench] = {name: cpu for name, (cpu, _) in load_cpu_us(path).items()}
else:
    committed_path = newest_committed_baseline()
    if committed_path:
        with open(committed_path) as f:
            committed = json.load(f)
        for row in committed.get("benchmarks", []):
            if row.get("before_cpu_time_us") is not None:
                before.setdefault(row["bench"], {})[row["name"]] = row["before_cpu_time_us"]

rows = []
for bench in sorted(after):
    for name, (cpu, cv) in after[bench].items():
        b = before.get(bench, {}).get(name)
        row = {"bench": bench, "name": name,
               "before_cpu_time_us": round_sig(b) if b is not None else None,
               "after_cpu_time_us": round_sig(cpu),
               "after_cpu_time_cv": round(cv, 4) if cv is not None else None,
               "speedup": round(b / cpu, 2) if b else None}
        rows.append(row)

with open(out, "w") as f:
    json.dump({"schema": "alvc-bench-trajectory-v1",
               "generated_by": "scripts/check.sh --bench-json",
               "benchmarks": rows}, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(rows)} benchmarks)")
PY
  rm -rf "$tmpdir"
}

static_only=0
ci_leg=""
bench_json_out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --static-only) static_only=1; shift ;;
    --ci)
      # An empty leg name must fail loudly: before this check, `--ci ""`
      # parsed fine and silently ran the FULL local gate instead of one leg.
      [[ $# -ge 2 && -n "$2" ]] || { echo "--ci requires a non-empty leg name" >&2; exit 2; }
      ci_leg="$2"; shift 2 ;;
    --bench-json)
      [[ $# -ge 2 ]] || { echo "--bench-json requires an output path" >&2; exit 2; }
      bench_json_out="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$bench_json_out" ]]; then
  emit_bench_json "$bench_json_out"
  exit 0
fi

if [[ -n "$ci_leg" ]]; then
  case "$ci_leg" in
    static) leg_lint; leg_analyze; leg_clang_static; leg_clang_tidy ;;
    analyze) leg_analyze ;;
    tier1) leg_tier1 ;;
    tsan) leg_tsan ;;
    asan) leg_asan ;;
    ubsan) leg_ubsan ;;
    telemetry) leg_telemetry ;;
    overload-soak) leg_overload_soak ;;
    elastic-soak) leg_elastic_soak ;;
    bench-smoke) leg_bench_smoke ;;
    scale-soak) leg_scale_soak ;;
    e2e-digests) leg_e2e_digests ;;
    *) echo "unknown CI leg: $ci_leg (expected static, analyze, tier1, tsan, asan, ubsan, telemetry, overload-soak, elastic-soak, bench-smoke, scale-soak, e2e-digests)" >&2
       exit 2 ;;
  esac
  echo "== CI leg '$ci_leg' passed =="
  exit 0
fi

leg_lint
leg_analyze
leg_clang_static
leg_clang_tidy

if [[ "$static_only" == "1" ]]; then
  echo "== static gate passed (--static-only) =="
  exit 0
fi

leg_tier1

if [[ "${ALVC_SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSan pass skipped (ALVC_SKIP_TSAN=1) =="
else
  leg_tsan
fi

if [[ "${ALVC_SKIP_ASAN:-0}" == "1" ]]; then
  echo "== ASan pass skipped (ALVC_SKIP_ASAN=1) =="
else
  leg_asan
fi

if [[ "${ALVC_SKIP_TELEMETRY:-0}" == "1" ]]; then
  echo "== telemetry pass skipped (ALVC_SKIP_TELEMETRY=1) =="
else
  leg_telemetry
fi

if [[ "${ALVC_SKIP_UBSAN:-0}" == "1" ]]; then
  echo "== UBSan pass skipped (ALVC_SKIP_UBSAN=1) =="
else
  leg_ubsan
fi

leg_overload_soak
leg_elastic_soak
leg_bench_smoke

echo "== all checks passed =="
