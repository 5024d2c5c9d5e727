// CLI coverage for the check.sh driver and the bench regression gate:
// argument handling that must fail fast (an empty --ci leg once silently
// ran the FULL local gate on CI) and the gate's slowdown/tolerance
// behavior on synthetic trajectories. Paths are injected by CMake as
// ALVC_CHECK_SH and ALVC_BENCH_GATE_PY; every covered branch exits before
// any build work, so the tests stay fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run_command(const std::string& cmd, const fs::path& capture) {
  const int raw = std::system((cmd + " > " + capture.string() + " 2>&1").c_str());
  RunResult result;
  result.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(capture);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  result.output = buffer.str();
  return result;
}

struct CliFixture : ::testing::Test {
  fs::path dir;

  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("check_sh_cli_" +
           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  RunResult run_check(const std::string& args) {
    return run_command(std::string("bash ") + ALVC_CHECK_SH + " " + args, dir / "out.txt");
  }

  RunResult run_gate(const std::string& args, const std::string& env = "") {
    return run_command(env + " python3 " + ALVC_BENCH_GATE_PY + " " + args, dir / "out.txt");
  }

  /// Writes a minimal alvc-bench-trajectory-v1 file with one tracked row.
  fs::path write_trajectory(const std::string& name, double after_us) const {
    const fs::path path = dir / name;
    std::ofstream out(path);
    out << "{\n  \"schema\": \"alvc-bench-trajectory-v1\",\n  \"benchmarks\": [\n"
        << "    {\"bench\": \"bench_route_cache\", \"name\": \"BM_Churn/0\",\n"
        << "     \"before_cpu_time_us\": null, \"after_cpu_time_us\": " << after_us
        << ", \"speedup\": null}\n  ]\n}\n";
    return path;
  }

  /// Writes a trajectory holding only the fabric sweep's end rows.
  fs::path write_fabric_sweep(const std::string& name, double small_us, double large_us) const {
    const fs::path path = dir / name;
    std::ofstream out(path);
    out << "{\n  \"schema\": \"alvc-bench-trajectory-v1\",\n  \"benchmarks\": [\n";
    const auto row = [&](const char* arg, double us, const char* sep) {
      out << "    {\"bench\": \"bench_sharded_control_plane\", "
          << "\"name\": \"BM_OpsCycleVsFabric/" << arg << "\",\n"
          << "     \"before_cpu_time_us\": null, \"after_cpu_time_us\": " << us
          << ", \"speedup\": null}" << sep << "\n";
    };
    row("400", small_us, ",");
    row("100000", large_us, "");
    out << "  ]\n}\n";
    return path;
  }

  /// Writes a trajectory holding only the two degraded-set link-cycle rows.
  fs::path write_degraded_cycles(const std::string& name, double few_us, double many_us) const {
    const fs::path path = dir / name;
    std::ofstream out(path);
    out << "{\n  \"schema\": \"alvc-bench-trajectory-v1\",\n  \"benchmarks\": [\n";
    const auto row = [&](const char* bench_name, double us, const char* sep) {
      out << "    {\"bench\": \"bench_failure_recovery\", \"name\": \"" << bench_name
          << "\",\n     \"before_cpu_time_us\": null, \"after_cpu_time_us\": " << us
          << ", \"speedup\": null}" << sep << "\n";
    };
    row("BM_FaultStormLinkCycle", few_us, ",");
    row("BM_FaultStormLinkCycleManyDegraded", many_us, "");
    out << "  ]\n}\n";
    return path;
  }
};

TEST_F(CliFixture, EmptyCiLegFailsFastInsteadOfRunningTheFullGate) {
  const auto result = run_check("--ci \"\"");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("non-empty leg name"), std::string::npos);
  EXPECT_EQ(result.output.find("configure"), std::string::npos)
      << "an empty leg must not fall through to the full local gate";
}

TEST_F(CliFixture, MissingCiLegIsAUsageError) {
  const auto result = run_check("--ci");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("non-empty leg name"), std::string::npos);
}

TEST_F(CliFixture, UnknownCiLegIsAUsageErrorListingTheLegs) {
  const auto result = run_check("--ci no-such-leg");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown CI leg"), std::string::npos);
  EXPECT_NE(result.output.find("scale-soak"), std::string::npos);
}

TEST_F(CliFixture, UnknownArgumentIsAUsageError) {
  EXPECT_EQ(run_check("--no-such-flag").exit_code, 2);
}

TEST_F(CliFixture, BenchGateFailsOnInjectedSlowdown) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 140.0);  // 1.40x > 1.25x
  const auto result = run_gate(fresh.string() + " " + baseline.string());
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("REGRESSED"), std::string::npos);
}

TEST_F(CliFixture, BenchGateToleranceEnvWidensTheBand) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 140.0);
  const auto result =
      run_gate(fresh.string() + " " + baseline.string(), "ALVC_BENCH_TOLERANCE=0.60");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("no regressions"), std::string::npos);
}

TEST_F(CliFixture, BenchGatePassesWithinTolerance) {
  const auto baseline = write_trajectory("baseline.json", 100.0);
  const auto fresh = write_trajectory("fresh.json", 110.0);  // 1.10x <= 1.25x
  EXPECT_EQ(run_gate(fresh.string() + " " + baseline.string()).exit_code, 0);
}

TEST_F(CliFixture, BenchGatePassesVacuouslyWithoutACommittedBaseline) {
  const auto fresh = write_trajectory("fresh.json", 100.0);
  // cwd has no BENCH_PR*.json, so implicit baseline resolution finds none.
  const auto result = run_command("cd " + dir.string() + " && python3 " + ALVC_BENCH_GATE_PY +
                                      " " + fresh.string(),
                                  dir / "out.txt");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("vacuously"), std::string::npos);
}

// Regression: the implicit baseline was the first of the BENCH_PR*.json
// names sorted as strings, descending, which ranks BENCH_PR9 above
// BENCH_PR10 and silently gated against an older trajectory.
TEST_F(CliFixture, BenchGateBaselineIsTheHighestPrNumberNotTheLastString) {
  write_trajectory("BENCH_PR9.json", 100.0);
  write_trajectory("BENCH_PR10.json", 200.0);
  // 1.5x of BENCH_PR9's row (a regression there) but 0.75x of BENCH_PR10's.
  const auto fresh = write_trajectory("fresh.json", 150.0);
  const auto result = run_command("cd " + dir.string() + " && python3 " + ALVC_BENCH_GATE_PY +
                                      " " + fresh.string(),
                                  dir / "out.txt");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("vs BENCH_PR10.json"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("BENCH_PR9.json"), std::string::npos) << result.output;

  // check.sh's emit_bench_json resolves its baseline through the same
  // helper; ask it directly.
  const fs::path gate_dir = fs::path(ALVC_BENCH_GATE_PY).parent_path();
  const auto helper = run_command(
      "cd " + dir.string() + " && python3 -c \"import sys; sys.path.insert(0, '" +
          gate_dir.string() +
          "'); from bench_gate import newest_committed_baseline as n; print(n())\"",
      dir / "helper.txt");
  EXPECT_EQ(helper.exit_code, 0) << helper.output;
  EXPECT_EQ(helper.output, "BENCH_PR10.json\n");
}

// check.sh stores every row through bench_gate.round_sig: four
// significant digits. Three decimals of a microsecond stored a 2.4 ns row
// as 0.002 and a 2.6 ns one as 0.003, which the gate read as a 1.5x
// regression. The gate prints rows with four significant digits too.
TEST_F(CliFixture, BenchGateRoundsRowsToFourSignificantDigits) {
  const fs::path gate_dir = fs::path(ALVC_BENCH_GATE_PY).parent_path();
  const auto helper = run_command(
      "cd " + dir.string() + " && python3 -c \"import sys; sys.path.insert(0, '" +
          gate_dir.string() +
          "'); from bench_gate import round_sig as r; "
          "print(r(0.0024567), r(0.0026), r(1234.5678), r(0))\"",
      dir / "helper.txt");
  EXPECT_EQ(helper.exit_code, 0) << helper.output;
  EXPECT_EQ(helper.output, "0.002457 0.0026 1235.0 0.0\n");

  const auto baseline = write_trajectory("baseline.json", 0.002457);
  const auto fresh = write_trajectory("fresh.json", 0.0026);
  const auto result = run_gate(fresh.string() + " " + baseline.string());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("0.002457us -> 0.0026us (1.06x)"), std::string::npos)
      << result.output;
}

// The fabric sweep is gated on its own 100k/400 ratio, within one run and
// with or without a baseline: per-call whole-fabric scratch made the
// 100k-group cycle tens of times the 400-group one.
TEST_F(CliFixture, BenchGateFailsWhenTheFabricSweepGrowsWithTheFabric) {
  const auto fresh = write_fabric_sweep("fresh.json", 2.0, 60.0);
  const auto result = run_gate(fresh.string() + " " + fresh.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("30.00x (bound"), std::string::npos) << result.output;
  const auto alone = run_command("cd " + dir.string() + " && python3 " + ALVC_BENCH_GATE_PY +
                                     " " + fresh.string(),
                                 dir / "out.txt");
  EXPECT_EQ(alone.exit_code, 1) << alone.output;
  EXPECT_EQ(alone.output.find("vacuously"), std::string::npos) << alone.output;
}

TEST_F(CliFixture, BenchGatePassesAFlatFabricSweep) {
  const auto fresh = write_fabric_sweep("fresh.json", 2.0, 3.0);
  const auto result = run_gate(fresh.string() + " " + fresh.string());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("[ok] bench_sharded_control_plane/BM_OpsCycleVsFabric/100000"),
            std::string::npos)
      << result.output;
}

// A link cycle with 64 clusters held degraded is gated on its ratio to
// the same cycle with 4: while every recovery checked every degraded
// cluster's memo, the ratio read 3.8.
TEST_F(CliFixture, BenchGateFailsWhenTheLinkCycleGrowsWithTheDegradedSet) {
  const auto fresh = write_degraded_cycles("fresh.json", 1.38, 5.26);
  const auto result = run_gate(fresh.string() + " " + fresh.string());
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("[REGRESSED] bench_failure_recovery/"
                               "BM_FaultStormLinkCycleManyDegraded over BM_FaultStormLinkCycle"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("3.81x (bound 1.50x)"), std::string::npos) << result.output;
}

TEST_F(CliFixture, BenchGatePassesALinkCycleFlatInTheDegradedSet) {
  const auto fresh = write_degraded_cycles("fresh.json", 1.0, 1.2);
  const auto result = run_gate(fresh.string() + " " + fresh.string());
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("[ok] bench_failure_recovery/BM_FaultStormLinkCycleManyDegraded"),
            std::string::npos)
      << result.output;
}

TEST_F(CliFixture, BenchGateRejectsMalformedInput) {
  const fs::path bad = dir / "bad.json";
  std::ofstream(bad) << "{\"schema\": \"wrong\"}\n";
  const auto baseline = write_trajectory("baseline.json", 100.0);
  EXPECT_EQ(run_gate(bad.string() + " " + baseline.string()).exit_code, 2);
  EXPECT_EQ(run_gate("").exit_code, 2);
}

}  // namespace
