// alvc_lint: project-specific source rules clang-tidy cannot know.
//
// Thirteen rules, each encoding a contract earlier PRs established:
//
//   nondeterministic-rng  no rand()/srand()/std::random_device/wall-clock
//                         seeds in src/ or tests/ — every stochastic path
//                         (schedules, workloads, differential suites) must
//                         be a pure function of an explicit seed, or the
//                         20-seed soaks and ALVC_TRACE_SEED replays lie.
//   index-arithmetic      no arithmetic on TaggedId::index() outside
//                         topology/ and graph/ — vertex layout (ToRs first,
//                         then OPSs) is those layers' private contract;
//                         everyone else asks for a helper.
//   naked-void            no bare (void)/static_cast<void> discards — a
//                         dropped Status is a swallowed failure; use
//                         ALVC_IGNORE_STATUS(expr, "reason") instead. Lines
//                         inside EXPECT_THROW/ASSERT_THROW are exempt: the
//                         macro needs the cast, and the value never exists
//                         because the expression is required to throw.
//   layering-include      layers below the orchestrator (util, telemetry,
//                         graph, topology, cluster, nfv, sdn) must not
//                         include orchestrator/ headers.
//   elastic-include       no src/ layer other than elastic/ itself includes
//                         elastic/ headers — the elastic control loop sits
//                         at the very top of the stack and is composed from
//                         outside (tests, benches, the ChaosParams tick
//                         hook), never depended on from below.
//   executor-include      no src/ layer other than util/ includes
//                         util/executor.h — the control plane runs on one
//                         thread, AL builds included.
//   thread-include        no src/ layer other than telemetry/ and util/
//                         includes <thread> or <mutex> — the graph CSR and
//                         the topology's switch graph are plain lazy
//                         caches; only the telemetry sinks and the thread
//                         pool synchronize.
//   footprint-writer      element `.failed =` writes and edits of the
//                         per-ToR `uplink_cut` flags and the
//                         `footprint_pending_` list only in
//                         src/topology/topology.cpp, and OpsOwnership
//                         `owner_[...] =` writes and `owner_pending_` edits
//                         only in src/cluster/abstraction_layer.cpp — the
//                         setters and acquire/release there list every
//                         footprint ToR and owner cell they change, and
//                         the restore pass skips a degraded cluster only
//                         while no listed write has reached its memo.
//   health-writer         `degraded` and `degraded_reason` written through
//                         `.` or `->` in src/ only by the two writers,
//                         each write marked allowed:
//                         ClusterManager::set_degraded for a cluster and
//                         NetworkOrchestrator::set_chain_health for a
//                         chain — a raw write would skip the cause, the
//                         stats, the log record or the retry enqueue.
//   raw-chrono-clock      no raw std::chrono::steady_clock reads outside
//                         src/telemetry/ and core/experiment.h — timing goes
//                         through telemetry::Tracer (whose logical mode keeps
//                         seeded sims bit-reproducible) or core::Experiment.
//   map-adjacency         no node-based std::map/std::unordered_map on
//                         graph/ or topology/ hot paths — adjacency and
//                         per-vertex state live in CSR arrays or stamped
//                         scratch (graph/scratch.h).
//   raw-lock              no std::recursive_mutex and no naked
//                         `.lock()`/`->lock()` calls in src/ — every
//                         acquisition goes through an RAII guard so the
//                         alvc_analyze lock-order model and the runtime
//                         util::LockRank scopes see it.
//   scratch-local         no function-local VertexSet, VertexIndexMap,
//                         TraversalScratch or AlBuildScratch in src/ —
//                         their O(1) reset holds only for a reused object;
//                         a fresh one zero-fills arrays sized to the whole
//                         switch graph, so the long-lived owner holds one
//                         and passes it down. `static`/`thread_local`
//                         objects are exempt, and so are members and
//                         namespace-scope objects (a rough brace-scope
//                         model tells a code block from a class body).
//
// A line suppresses a rule with `alvc-lint: allow(<rule>)` in a comment.
// The scanner strips comments and string/char literals before matching, so
// prose mentioning rand() does not trip the gate. Preprocessor lines keep
// their string bodies — an #include's quoted path is what the layering rule
// inspects.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace alvc::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Lints one translation unit. `path` decides the path-scoped rules
/// (layering, index arithmetic); `content` is the raw file text.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path, std::string_view content);

/// Formats a finding as "path:line: [rule] message".
[[nodiscard]] std::string to_string(const Finding& finding);

}  // namespace alvc::lint
