// Drives the alvc_lint rule engine over the seeded fixtures: every rule
// must flag its fixture (at the expected lines) and pass the clean one.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.h"

namespace {

using alvc::lint::Finding;
using alvc::lint::lint_source;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(ALVC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::multiset<std::pair<std::string, std::size_t>> rules_and_lines(
    const std::vector<Finding>& findings) {
  std::multiset<std::pair<std::string, std::size_t>> out;
  for (const auto& f : findings) out.insert({f.rule, f.line});
  return out;
}

TEST(AlvcLintTest, FlagsNondeterministicRng) {
  const auto findings = lint_source("tests/sim/bad.cc", read_fixture("nondeterministic_rng.cc"));
  EXPECT_EQ(rules_and_lines(findings),
            (std::multiset<std::pair<std::string, std::size_t>>{
                {"nondeterministic-rng", 7},
                {"nondeterministic-rng", 8},
                {"nondeterministic-rng", 9}}));
}

TEST(AlvcLintTest, FlagsIndexArithmeticOutsideTopology) {
  const auto content = read_fixture("index_arithmetic.cc");
  const auto outside = lint_source("src/orchestrator/bad.cc", content);
  EXPECT_EQ(rules_and_lines(outside),
            (std::multiset<std::pair<std::string, std::size_t>>{{"index-arithmetic", 9}}));
  // The same code is legal where the layout contract lives.
  EXPECT_TRUE(lint_source("src/topology/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("src/graph/fine.cc", content).empty());
}

TEST(AlvcLintTest, FlagsNakedVoidDiscards) {
  const auto findings = lint_source("src/sdn/bad.cc", read_fixture("naked_void.cc"));
  EXPECT_EQ(rules_and_lines(findings),
            (std::multiset<std::pair<std::string, std::size_t>>{{"naked-void", 10},
                                                                {"naked-void", 11}}));
}

TEST(AlvcLintTest, FlagsLayeringIncludeFromLowerLayers) {
  const auto content = read_fixture("layering_include.cc");
  const auto lower = lint_source("src/cluster/layering_include.cc", content);
  EXPECT_EQ(rules_and_lines(lower),
            (std::multiset<std::pair<std::string, std::size_t>>{{"layering-include", 4}}));
  // The orchestrator itself — and layers above it (io, sim, faults, core) —
  // may include orchestrator headers.
  EXPECT_TRUE(lint_source("src/orchestrator/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("src/io/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("src/faults/fine.cc", content).empty());
}

TEST(AlvcLintTest, FlagsRawChronoClockOutsideTelemetry) {
  const auto content = read_fixture("raw_steady_clock.cc");
  const auto outside = lint_source("src/sim/bad.cc", content);
  EXPECT_EQ(rules_and_lines(outside),
            (std::multiset<std::pair<std::string, std::size_t>>{{"raw-chrono-clock", 7},
                                                                {"raw-chrono-clock", 8}}));
  // The telemetry layer owns the clocks, and core/experiment.h wraps them
  // for benches; both read them legally.
  EXPECT_TRUE(lint_source("src/telemetry/span.cc", content).empty());
  EXPECT_TRUE(lint_source("src/core/experiment.h", content).empty());
}

TEST(AlvcLintTest, FlagsMapAdjacencyInGraphAndTopology) {
  const auto content = read_fixture("map_adjacency.cc");
  const auto in_graph = lint_source("src/graph/bad.cc", content);
  EXPECT_EQ(rules_and_lines(in_graph),
            (std::multiset<std::pair<std::string, std::size_t>>{{"map-adjacency", 10},
                                                                {"map-adjacency", 11}}));
  // The allow() comment on line 16 suppresses; other layers keep their maps
  // (cold-path registries, caches keyed by ids — not per-neighbor probes).
  EXPECT_EQ(rules_and_lines(lint_source("src/topology/bad.cc", content)),
            rules_and_lines(in_graph));
  EXPECT_TRUE(lint_source("src/orchestrator/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("src/telemetry/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("tests/graph/fine.cc", content).empty());
}

TEST(AlvcLintTest, FlagsRecursiveMutexAndNakedLockCalls) {
  const auto content = read_fixture("raw_lock.cc");
  // Linted as a telemetry file, where mutexes may live (the thread-include
  // rule keeps them out of the other src/ layers).
  const auto in_src = lint_source("src/telemetry/bad.cc", content);
  // Line 8: std::recursive_mutex member; line 12: naked mu.lock(). The
  // try_lock/unlock pair and the RAII guard stay legal, and line 39's
  // adopt_lock handoff is suppressed by its allow() comment.
  EXPECT_EQ(rules_and_lines(in_src),
            (std::multiset<std::pair<std::string, std::size_t>>{{"raw-lock", 8},
                                                                {"raw-lock", 12}}));
  // The rule is scoped to src/: tests may drive mutexes by hand.
  EXPECT_TRUE(lint_source("tests/util/fine.cc", content).empty());
}

TEST(AlvcLintTest, TelemetryIsBelowTheOrchestrator) {
  const auto findings =
      lint_source("src/telemetry/bad.cc", "#include \"orchestrator/orchestrator.h\"\n");
  EXPECT_EQ(rules_and_lines(findings),
            (std::multiset<std::pair<std::string, std::size_t>>{{"layering-include", 1}}));
}

TEST(AlvcLintTest, ElasticIsAboveEveryOtherSrcLayer) {
  const std::string content = "#include \"elastic/controller.h\"\n";
  // No src/ layer — not even the application-rank ones — may depend on the
  // elastic loop; it is wired in from outside.
  for (const char* path : {"src/core/bad.cc", "src/faults/bad.cc", "src/orchestrator/bad.cc",
                           "src/util/bad.cc"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)),
              (std::multiset<std::pair<std::string, std::size_t>>{{"elastic-include", 1}}))
        << path;
  }
  // The subsystem's own files and out-of-src consumers include it freely.
  EXPECT_TRUE(lint_source("src/elastic/controller.cpp", content).empty());
  EXPECT_TRUE(lint_source("tests/elastic/fine.cc", content).empty());
  EXPECT_TRUE(lint_source("bench/bench_elastic_scaling.cpp", content).empty());
}

TEST(AlvcLintTest, FlagsExecutorIncludeOutsideUtil) {
  const auto content = read_fixture("executor_include.cc");
  // The control plane runs on one thread: no cluster, orchestrator, faults,
  // core or elastic file may bring the thread pool back.
  for (const char* path : {"src/cluster/bad.cc", "src/orchestrator/bad.cc", "src/faults/bad.cc",
                           "src/core/bad.cc", "src/elastic/bad.cc"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)),
              (std::multiset<std::pair<std::string, std::size_t>>{{"executor-include", 4}}))
        << path;
  }
  // The pool itself and out-of-src drivers and tests include it freely.
  EXPECT_TRUE(lint_source("src/util/executor.cpp", content).empty());
  EXPECT_TRUE(lint_source("e2e_bench/driver/replay.cpp", content).empty());
  EXPECT_TRUE(lint_source("tests/util/executor_test.cpp", content).empty());
}

TEST(AlvcLintTest, FlagsThreadIncludeOutsideTelemetryAndUtil) {
  const auto content = read_fixture("thread_include.cc");
  // The lazy caches below the orchestrator are plain members: no graph,
  // topology, cluster or orchestrator file may take a lock or a thread.
  for (const char* path : {"src/graph/bad.cc", "src/topology/bad.cc", "src/cluster/bad.cc",
                           "src/orchestrator/bad.cc", "src/core/bad.cc"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)),
              (std::multiset<std::pair<std::string, std::size_t>>{{"thread-include", 5},
                                                                  {"thread-include", 7}}))
        << path;
  }
  // The telemetry sinks and the pool synchronize; tests and benches spawn
  // threads freely.
  EXPECT_TRUE(lint_source("src/telemetry/span.cpp", content).empty());
  EXPECT_TRUE(lint_source("src/util/executor.cpp", content).empty());
  EXPECT_TRUE(lint_source("tests/util/lock_rank_test.cpp", content).empty());
  EXPECT_TRUE(lint_source("bench/bench_telemetry_overhead.cpp", content).empty());
}

TEST(AlvcLintTest, FlagsFootprintWritesOutsideTheirStampingWriters) {
  const auto content = read_fixture("footprint_writer.cc");
  using Lines = std::multiset<std::pair<std::string, std::size_t>>;
  const Lines flags{{"footprint-writer", 21}, {"footprint-writer", 22},
                    {"footprint-writer", 24}, {"footprint-writer", 25},
                    {"footprint-writer", 39}, {"footprint-writer", 40}};
  const Lines owners{{"footprint-writer", 31}, {"footprint-writer", 32},
                     {"footprint-writer", 41}};
  Lines both = flags;
  both.insert(owners.begin(), owners.end());
  for (const char* path : {"src/cluster/cluster_manager.cpp", "src/orchestrator/bad.cc",
                           "src/topology/topology.h", "src/faults/bad.cc"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)), both) << path;
  }
  // Each listing writer's own file may write its own state, and only it.
  EXPECT_EQ(rules_and_lines(lint_source("src/topology/topology.cpp", content)), owners);
  EXPECT_EQ(rules_and_lines(lint_source("src/cluster/abstraction_layer.cpp", content)), flags);
  // Tests, benches and the e2e driver keep their own `failed` fields.
  EXPECT_TRUE(lint_source("tests/topology/failure_api_test.cpp", content).empty());
  EXPECT_TRUE(lint_source("e2e_bench/driver/replay.cpp", content).empty());
}

TEST(AlvcLintTest, FlagsHealthWritesOutsideTheirWriter) {
  const auto content = read_fixture("health_writer.cc");
  using Lines = std::multiset<std::pair<std::string, std::size_t>>;
  const Lines writes{{"health-writer", 13}, {"health-writer", 14},
                     {"health-writer", 15}, {"health-writer", 16}};
  // No file is exempt: the writers mark each of their writes instead.
  for (const char* path : {"src/orchestrator/orchestrator.cpp", "src/cluster/cluster_manager.cpp",
                           "src/faults/state_auditor.cpp", "src/elastic/bad.cc"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)), writes) << path;
  }
  // Tests and the e2e driver build chains and clusters with their own flags.
  EXPECT_TRUE(lint_source("tests/faults/state_auditor_test.cpp", content).empty());
  EXPECT_TRUE(lint_source("e2e_bench/driver/replay.cpp", content).empty());
}

TEST(AlvcLintTest, FlagsFunctionLocalScratchInSrc) {
  const auto content = read_fixture("scratch_local.cc");
  using Lines = std::multiset<std::pair<std::string, std::size_t>>;
  const Lines locals{{"scratch-local", 15}, {"scratch-local", 22}, {"scratch-local", 23},
                     {"scratch-local", 28}, {"scratch-local", 31}, {"scratch-local", 34}};
  for (const char* path : {"src/cluster/al_builder.cpp", "src/orchestrator/routing.h",
                           "src/graph/articulation.cpp"}) {
    EXPECT_EQ(rules_and_lines(lint_source(path, content)), locals) << path;
  }
  // Tests and benches hold their own scratch as locals.
  EXPECT_TRUE(lint_source("tests/cluster/al_builder_test.cpp", content).empty());
  EXPECT_TRUE(lint_source("bench/bench_fig4_al_construction.cpp", content).empty());
}

TEST(AlvcLintTest, ScratchLocalTellsMembersFromLocals) {
  // A class body opened on its own line, a template parameter's `class`
  // and a constructor's brace initializer keep their scopes apart.
  const std::string content =
      "template <class T>\n"
      "class Holder\n"
      "    : public Base<T> {\n"
      "  VertexSet member_;\n"
      "  Holder() : other_{1} {\n"
      "    VertexSet local;\n"
      "  }\n"
      "  VertexIndexMap second_;\n"
      "};\n";
  EXPECT_EQ(rules_and_lines(lint_source("src/graph/x.h", content)),
            (std::multiset<std::pair<std::string, std::size_t>>{{"scratch-local", 6}}));
}

TEST(AlvcLintTest, PassesCleanFixture) {
  const auto findings = lint_source("src/util/clean.cc", read_fixture("clean.cc"));
  EXPECT_TRUE(findings.empty()) << alvc::lint::to_string(findings.front());
}

TEST(AlvcLintTest, ThrowAssertionsAreExemptFromNakedVoid) {
  // EXPECT_THROW((void)f(), ...) needs the cast; the value never exists.
  const auto findings = lint_source(
      "tests/util/x.cc", "EXPECT_THROW((void)f(), std::out_of_range);\nASSERT_THROW((void)g(), E);\n");
  EXPECT_TRUE(findings.empty());
}

TEST(AlvcLintTest, IncludePathsSurviveStringStripping) {
  // The layering rule must still see the quoted path on #include lines.
  const auto findings =
      lint_source("src/util/x.cc", "#include \"orchestrator/orchestrator.h\"\n");
  EXPECT_EQ(rules_and_lines(findings),
            (std::multiset<std::pair<std::string, std::size_t>>{{"layering-include", 1}}));
}

TEST(AlvcLintTest, SuppressionIsPerRule) {
  // An allow() for one rule must not silence another on the same line.
  const auto findings = lint_source(
      "src/sdn/bad.cc", "void f() { (void)g(); }  // alvc-lint: allow(nondeterministic-rng)\n");
  EXPECT_EQ(rules_and_lines(findings),
            (std::multiset<std::pair<std::string, std::size_t>>{{"naked-void", 1}}));
}

TEST(AlvcLintTest, StripsBlockCommentsAcrossLines) {
  const auto findings = lint_source("src/util/x.cc", "/* rand( spans\n lines rand( */\nint x;\n");
  EXPECT_TRUE(findings.empty());
}

TEST(AlvcLintTest, FindingFormatIsPathLineRule) {
  const auto findings = lint_source("src/sdn/bad.cc", "void f() { (void)g(); }\n");
  ASSERT_EQ(findings.size(), 1u);
  const auto text = alvc::lint::to_string(findings.front());
  EXPECT_NE(text.find("src/sdn/bad.cc:1: [naked-void]"), std::string::npos) << text;
}

}  // namespace
