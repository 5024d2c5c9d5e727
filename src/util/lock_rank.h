// Runtime enforcement of the whole-program lock order.
//
// tools/alvc_analyze derives a static lock-order graph and proves it
// acyclic; this registry asserts the same total order on the real mutexes
// at runtime, per thread. Each mutex class is assigned a rank, and a
// thread may only acquire locks in strictly increasing rank order. A
// violation is a latent deadlock the static pass should have caught (or a
// new nesting the rank table must learn about) — the process aborts with
// both lock names so the report is actionable either way.
//
// Rank table (mirrored in DESIGN.md §11; gaps leave room for new layers):
//
//   rank | lock                          | mutex
//   -----+-------------------------------+----------------------------------
//    50  | telemetry.tracer              | Tracer::mu_
//    60  | telemetry.metric_registry     | MetricRegistry::mu_
//    70  | util.executor.task_group      | TaskGroup::mu_
//    80  | util.executor.queue           | Executor::mu_
//
// The control plane below telemetry (graph, topology, cluster,
// orchestrator) runs on one thread and holds no mutex. No production
// path nests two ranked locks today. The LockRank class is always compiled (so tests can drive it
// directly); the ALVC_LOCK_RANK macro instrumenting production lock sites
// expands to nothing unless the ALVC_LOCK_ORDER_CHECK CMake option defines
// the macro of the same name.
#pragma once

#include <cstddef>

namespace alvc::util {

namespace lock_rank {
inline constexpr int kTelemetryTracer = 50;
inline constexpr int kTelemetryMetricRegistry = 60;
inline constexpr int kExecutorTaskGroup = 70;
inline constexpr int kExecutorQueue = 80;
}  // namespace lock_rank

/// Per-thread held-rank stack. acquire() aborts unless `rank` is strictly
/// greater than every rank the calling thread already holds; release()
/// aborts on non-LIFO release (impossible with the RAII Scope). A
/// scoped_lock over several mutexes of one class is a single atomic
/// acquisition: record it as one Scope.
class LockRank {
 public:
  static void acquire(int rank, const char* name);
  static void release(int rank);
  /// Locks the calling thread currently holds (for tests/diagnostics).
  [[nodiscard]] static std::size_t held_depth() noexcept;

  class Scope {
   public:
    Scope(int rank, const char* name) : rank_(rank) { acquire(rank, name); }
    ~Scope() { release(rank_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int rank_;
  };
};

}  // namespace alvc::util

// Statement macro: declare immediately before the lock guard it ranks, in
// the same scope, so the rank is held exactly as long as the mutex.
#if defined(ALVC_LOCK_ORDER_CHECK)
#define ALVC_LOCK_RANK_CAT2(a, b) a##b
#define ALVC_LOCK_RANK_CAT(a, b) ALVC_LOCK_RANK_CAT2(a, b)
#define ALVC_LOCK_RANK(rank, name) \
  const ::alvc::util::LockRank::Scope ALVC_LOCK_RANK_CAT(alvc_lock_rank_, __LINE__)(rank, name)
#else
#define ALVC_LOCK_RANK(rank, name) \
  do {                             \
  } while (false)
#endif
