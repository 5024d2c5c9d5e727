// Chaos soak harness: faults + traffic + invariant audits in one DES run.
//
// ChaosRunner drives a provisioned orchestrator through a stochastic fault
// schedule while synthetic chain traffic keeps arriving, auditing the whole
// control plane after every injected event. The report it returns encodes
// the robustness contract this repo holds itself to:
//
//   * the audit never fails (audit_violations == 0),
//   * every handler call succeeds (handler_errors == 0), and
//   * no chain is ever silently lost (chains_unaccounted == 0): every chain
//     that existed at the start either still runs, runs degraded with a
//     recorded reason, or was deliberately torn down with a logged event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "faults/fault_injector.h"
#include "orchestrator/orchestrator.h"

namespace alvc::faults {

struct ChaosParams {
  FaultScheduleParams schedule;  // fault rates, horizon, and seed
  /// Scripted events (e.g. FaultInjector::whole_rack / whole_al) merged
  /// into the stochastic schedule by time.
  std::vector<FaultEvent> scripted;
  /// Load-side events (OverloadInjector scenarios): provisions and
  /// teardowns interleaved with the fault schedule on the same queue, so
  /// flash crowds land mid-outage and departures race repairs.
  std::vector<LoadEvent> load;
  /// Placement for load-event provisions; GreedyOpticalPlacement when null.
  const alvc::orchestrator::PlacementStrategy* placement = nullptr;
  /// Poisson arrival rate of synthetic flows offered to live chains
  /// round-robin while faults land; 0 disables traffic interleaving.
  double flow_rate_per_s = 0;
  std::uint64_t traffic_seed = 1;
  /// Periodic controller hook (e.g. the elastic control loop): invoked at
  /// t = tick_period_s, 2*tick_period_s, ... below the horizon, on the
  /// same event queue as faults and load — so scaling decisions land
  /// mid-outage and migrations race repairs. The runner's single-threaded
  /// loop serializes the hook with every other orchestrator call, keeping
  /// the external-synchronization contract intact. 0 disables.
  double tick_period_s = 0;
  std::function<void(double now_s)> on_tick;
  /// Audit after every fault event (the soak contract). Disable only for
  /// throughput benchmarks where the audit would dominate.
  bool audit_every_event = true;
  std::size_t max_recorded_violations = 8;
  /// Control-plane shards to run the orchestrator with (set_sharding is
  /// called once at the start of run(), so route caches start cold); must
  /// be >= 1. The runner itself stays a single-threaded driver either way —
  /// concurrency lives inside the orchestrator's calls.
  std::size_t shards = 1;
  /// Executor for the sharded control plane's fan-outs; null runs every
  /// shard pass serially. Must outlive the run.
  alvc::util::Executor* shard_executor = nullptr;
};

struct ChaosReport {
  std::size_t fault_events = 0;       // scheduled events over the horizon
  std::size_t failures_injected = 0;  // events applied with failure=true
  std::size_t repairs_injected = 0;
  std::size_t handler_errors = 0;     // non-ok handler returns (want 0)
  std::size_t flows_served = 0;       // arrivals that found a serving chain
  std::size_t flows_deferred = 0;     // arrivals that hit a parked chain
  std::size_t load_events = 0;        // overload events scheduled
  std::size_t load_provisioned = 0;   // load provisions that were admitted
  std::size_t load_provisioned_degraded = 0;  // ... at a reduced rung
  std::size_t load_rejected = 0;      // load provisions refused outright
  std::size_t load_torn_down = 0;     // load departures applied
  std::size_t controller_ticks = 0;   // on_tick invocations
  std::size_t shard_count = 0;        // control-plane shards the run used (0 = serial)
  std::size_t audit_violations = 0;   // total across all audits (want 0)
  std::vector<std::string> violations;  // first few, timestamped

  // End-state chain accounting (plus cumulative orchestrator stats).
  std::size_t chains_live_healthy = 0;
  std::size_t chains_live_degraded = 0;
  std::size_t chains_lost = 0;         // stats().chains_lost
  std::size_t chains_restored = 0;     // stats().chains_restored
  std::size_t chains_unaccounted = 0;  // silently vanished (must be 0)

  [[nodiscard]] bool clean() const noexcept {
    return audit_violations == 0 && handler_errors == 0 && chains_unaccounted == 0;
  }
};

/// Threading contract: single-threaded driver. The runner serializes every
/// orchestrator call through its own event loop, which is what makes it a
/// valid client of the orchestrator's external-synchronization contract.
class ChaosRunner {
 public:
  /// Borrows an orchestrator that already has its clusters built and
  /// (typically) chains provisioned.
  ChaosRunner(alvc::orchestrator::NetworkOrchestrator& orch, ChaosParams params)
      : orch_(&orch), params_(std::move(params)) {}

  /// Generates the schedule, interleaves it with traffic in one event
  /// queue, runs to the horizon, and closes with a final audit plus the
  /// silent-loss accounting.
  [[nodiscard]] ChaosReport run();

 private:
  alvc::orchestrator::NetworkOrchestrator* orch_;
  ChaosParams params_;
};

}  // namespace alvc::faults
