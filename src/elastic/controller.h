// ElasticController: the closed loop tying the elastic subsystem together.
//
// One tick =
//   1. sync   — start tracking demand for newly provisioned chains, stop
//               for torn-down/lost ones (the fault engine and the traffic
//               generator churn chains underneath us);
//   2. scale  — ScalingController pass (hysteresis + cooldown);
//   3. migrate— MigrationPlanner relief pass over hot hosts;
//   4. observe— SLO accounting (demand served vs. offered) and per-class
//               granted-vs-demand gauges.
//
// The phases share one id-ascending chain snapshot. Each chain's demand
// is evaluated once, during sync, and its scale factor read once, during
// scale; scale and migrate re-read it only for the chains they acted on.
// Only a reprovision-mode migration, which swaps a chain for a new one,
// makes observe take a fresh snapshot.
//
// The controller is externally synchronized exactly like the orchestrator
// it drives: no mutex here, one caller at a time (ChaosRunner wraps every
// event in its lock; see DESIGN.md §12). Ticks are driven by simulated
// time — the chaos tick hook or a test loop — never by a wall clock.
#pragma once

#include "elastic/demand.h"
#include "elastic/ledger.h"
#include "elastic/migration.h"
#include "elastic/scaling.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/placement.h"

namespace alvc::elastic {

struct ElasticParams {
  DemandParams demand;
  ScalingPolicy scaling;
  MigrationPolicy migration;
  CostModel cost;
  ExecutionMode mode = ExecutionMode::kIncremental;
};

struct ElasticStats {
  std::size_t ticks = 0;
  /// Chain-tick observations where offered demand exceeded served
  /// capacity (granted bandwidth x scale factor) — the SLO-violation
  /// numerator; `chain_observations` is the denominator.
  std::size_t slo_violations = 0;
  std::size_t chain_observations = 0;

  [[nodiscard]] double slo_violation_rate() const noexcept {
    return chain_observations == 0
               ? 0.0
               : static_cast<double>(slo_violations) / static_cast<double>(chain_observations);
  }
};

class ElasticController {
 public:
  /// `orch` and `placement` must outlive the controller; `placement` is
  /// used by the reprovision baseline only.
  ElasticController(alvc::orchestrator::NetworkOrchestrator& orch,
                    const alvc::orchestrator::PlacementStrategy& placement,
                    const ElasticParams& params = {});

  /// One control-loop pass at simulated time `now_s`.
  void tick(double now_s);

  void set_mode(ExecutionMode mode) noexcept { migration_.set_mode(mode); }

  [[nodiscard]] const DemandModel& demand() const noexcept { return demand_; }
  [[nodiscard]] const ScalingController& scaling() const noexcept { return scaling_; }
  [[nodiscard]] const MigrationPlanner& migration() const noexcept { return migration_; }
  [[nodiscard]] const UpdateCostLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const ElasticStats& stats() const noexcept { return stats_; }

 private:
  alvc::orchestrator::NetworkOrchestrator* orch_;
  DemandModel demand_;
  UpdateCostLedger ledger_;
  ScalingController scaling_;
  MigrationPlanner migration_;
  ElasticStats stats_;
};

}  // namespace alvc::elastic
