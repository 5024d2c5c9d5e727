// Set-up, replay and checks of one benchmark run.
//
// A run builds the workload's data center, generates the schedule for its
// seed, and replays the schedule back to back against the public control
// plane (closed loop, one caller), timing every call from outside. The
// untraced pass yields the end-to-end metrics. A traced run replays the
// same schedule a second time, on a fresh data center, with spans from a
// benchmark-owned Tracer around every call into a layer, and reports the
// per-layer breakdown. Every pass ends with the correctness gate: an empty
// StateAuditor audit, no failed fault handler or teardown, no silently
// lost chain, and proof that the workload's target layer did work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "schedule.h"

namespace alvc::e2e {

struct RunOptions {
  Workload workload = Workload::kChurnQos;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Data-center scale passed to make_shape; below 1 only in unit tests.
  double scale = 1.0;
};

struct RunReport {
  bool correct = false;
  std::uint64_t attempted = 0;  // control-plane calls in the timed phase
  std::uint64_t failed = 0;     // of those, calls that did not return ok
  std::vector<std::string> check_failures;
  /// Human-readable lines: sizes, digests, percentiles with their sample
  /// counts, and the per-layer table of a traced run.
  std::vector<std::string> log;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  MetricSet metrics{end_to_end_metrics()};
};

/// Runs one workload end to end. Never throws for a failed check; the
/// report says what failed.
[[nodiscard]] RunReport run_benchmark(const RunOptions& options);

}  // namespace alvc::e2e
