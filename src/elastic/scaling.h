// Demand-driven VNF scaling (the elasticity loop's actuator, part 1).
//
// Watches every live chain's instantaneous demand (DemandModel) against
// the bandwidth it was granted and the scale factor its VNF instances run
// at, and drives NetworkOrchestrator::scale_function — the until-now
// dormant VnfLifecycleManager scale machinery — to keep served capacity
// tracking demand.
//
// Decisions are deliberately sluggish: hysteresis (scale out only above
// `scale_out_ratio` x capacity, in only below `scale_in_ratio`) plus a
// per-chain cooldown, because reconfigurations are not free (see
// UpdateCostLedger) and demand noise must not churn the control plane.
// QoS: LOPRI chains never scale out while any HIPRI chain is degraded or
// short of its granted bandwidth — scale-out consumes host capacity the
// restoration path may need.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "elastic/demand.h"
#include "elastic/ledger.h"
#include "orchestrator/orchestrator.h"

namespace alvc::elastic {

struct ScalingPolicy {
  /// Scale out when demand exceeds this multiple of served capacity...
  double scale_out_ratio = 1.1;
  /// ...and back in only when it falls below this multiple (hysteresis
  /// band: in_ratio << out_ratio or the loop oscillates).
  double scale_in_ratio = 0.5;
  /// Minimum simulated seconds between actions on the same chain.
  double cooldown_s = 2.0;
  /// Ceiling on the per-instance scale factor.
  double max_scale = 8.0;
  /// Defer LOPRI scale-out while HIPRI service is impaired.
  bool protect_hipri = true;
};

/// (chain id, simulated time of its last applied action), id-ascending.
using CooldownTable = std::vector<std::pair<alvc::util::NfcId, double>>;

struct ScalingStats {
  std::size_t scale_outs = 0;
  std::size_t scale_ins = 0;
  std::size_t rejected = 0;               // orchestrator refused an action
  std::size_t deferred_hipri_protect = 0;  // LOPRI scale-out held back
  std::size_t skipped_cooldown = 0;
  std::size_t skipped_degraded = 0;
};

class ScalingController {
 public:
  ScalingController(alvc::orchestrator::NetworkOrchestrator& orch, const DemandModel& demand,
                    UpdateCostLedger& ledger, const ScalingPolicy& policy = {})
      : orch_(&orch), demand_(&demand), ledger_(&ledger), policy_(policy) {}

  /// One control-loop pass at simulated time `now_s` over all live chains
  /// in ascending id order (deterministic). Returns actions applied. A
  /// standalone entry point for tests: it takes its own snapshot and
  /// forwards to the pass below.
  std::size_t tick(double now_s);

  /// The same pass over a snapshot the caller already holds: `chains` is
  /// NetworkOrchestrator::chains() and `demand[i]` chain i's demand at
  /// `now_s` (DemandModel::sync). Leaves chain i's scale factor after the
  /// pass in `scales[i]` (same size as `chains`): chain_scale is read once
  /// per chain, and again only for a chain the pass acted on.
  /// ElasticController shares all three with the other phases of its tick.
  std::size_t tick(double now_s,
                   std::span<const alvc::orchestrator::ProvisionedChain* const> chains,
                   std::span<const double> demand, std::span<double> scales);

  /// Current common scale factor of a chain's live instances (min over
  /// valid slots; 1 when none are live). Public for tests and
  /// ElasticController, which re-reads it for chains a migration moved.
  [[nodiscard]] static double chain_scale(const alvc::orchestrator::NetworkOrchestrator& orch,
                                          const alvc::orchestrator::ProvisionedChain& chain);

  [[nodiscard]] const ScalingStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ScalingPolicy& policy() const noexcept { return policy_; }
  /// Simulated time of each live chain's last applied action, id-ascending.
  /// Each pass drops the stamps of chains missing from its snapshot (torn
  /// down or reprovisioned: ids are never reused), so the table holds only
  /// chains that were live at the last pass.
  [[nodiscard]] const CooldownTable& cooldown_stamps() const noexcept { return last_action_s_; }

 private:
  /// True while any HIPRI chain is degraded or below its requested
  /// bandwidth — the condition under which LOPRI growth is deferred.
  [[nodiscard]] static bool hipri_impaired(
      std::span<const alvc::orchestrator::ProvisionedChain* const> chains);

  alvc::orchestrator::NetworkOrchestrator* orch_;
  const DemandModel* demand_;
  UpdateCostLedger* ledger_;
  ScalingPolicy policy_;
  ScalingStats stats_;
  CooldownTable last_action_s_;
  CooldownTable next_action_s_;  // tick()'s rebuild target, swapped in
};

}  // namespace alvc::elastic
