#include "elastic/ledger.h"

#include "orchestrator/orchestrator.h"
#include "telemetry/telemetry.h"

namespace alvc::elastic {

namespace {

std::size_t abs_delta(std::size_t after, std::size_t before) noexcept {
  return after >= before ? after - before : before - after;
}

}  // namespace

CostSnapshot UpdateCostLedger::snapshot(const alvc::orchestrator::NetworkOrchestrator& orch) {
  CostSnapshot snap;
  snap.deployed = orch.cloud().stats().deployed;
  snap.terminated = orch.cloud().stats().terminated;
  snap.slice_events = orch.control_log().count(sdn::ControlEventType::kSliceAllocated) +
                      orch.control_log().count(sdn::ControlEventType::kSliceReleased);
  snap.rules_installed = orch.controller().stats().rules_installed;
  snap.rules_removed = orch.controller().stats().rules_removed;
  snap.mid_chain_conversions = orch.mid_chain_conversions();
  return snap;
}

ActionCost UpdateCostLedger::charge(ActionKind kind,
                                    const alvc::orchestrator::NetworkOrchestrator& orch,
                                    const CostSnapshot& before) {
  const CostSnapshot after = snapshot(orch);
  ActionCost cost;
  cost.kind = kind;
  // Deploys, terminates, and slice churn are all per-AL control-plane
  // writes; their sum is the paper's "AL updates" for the action.
  cost.al_updates = (after.deployed - before.deployed) + (after.terminated - before.terminated) +
                    (after.slice_events - before.slice_events);
  cost.flow_rule_churn = (after.rules_installed - before.rules_installed) +
                         (after.rules_removed - before.rules_removed);
  cost.oeo_changes = abs_delta(after.mid_chain_conversions, before.mid_chain_conversions);
  cost.latency_s = static_cast<double>(cost.al_updates) * model_.al_update_s +
                   static_cast<double>(cost.flow_rule_churn) * model_.flow_rule_s +
                   static_cast<double>(cost.oeo_changes) * model_.oeo_change_s;

  ActionTotals& totals = totals_[static_cast<std::size_t>(kind)];
  ++totals.actions;
  totals.al_updates += cost.al_updates;
  totals.flow_rule_churn += cost.flow_rule_churn;
  totals.oeo_changes += cost.oeo_changes;
  totals.latency_s += cost.latency_s;

  ALVC_OBSERVE("elastic.update_cost.al_updates", 0, 64, 32, cost.al_updates);
  ALVC_OBSERVE("elastic.update_cost.flow_rules", 0, 256, 32, cost.flow_rule_churn);
  ALVC_OBSERVE("elastic.reconfig.latency_s", 0, 1.0, 32, cost.latency_s);
  return cost;
}

double UpdateCostLedger::al_updates_per_action(ActionKind kind) const noexcept {
  const ActionTotals& totals = totals_[static_cast<std::size_t>(kind)];
  if (totals.actions == 0) return 0;
  return static_cast<double>(totals.al_updates) / static_cast<double>(totals.actions);
}

}  // namespace alvc::elastic
