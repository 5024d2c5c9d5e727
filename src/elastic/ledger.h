// Update-cost ledger: measures what every elastic action costs the
// control plane, so the paper's ABL1 claim — an incremental migration
// touches ~2 abstraction-layer updates, a re-provision touches the whole
// chain — is *measured* per action rather than assumed.
//
// The ledger snapshots the orchestrator's own books (cloud deploy/
// terminate counters, slice allocate/release log events, SDN rule
// counters, mid-chain O/E/O conversions) before an action and charges the
// delta after it. It therefore counts exactly what the substrate did, not
// what the caller intended:
//   * AL updates      = instance deploys + terminates + slice churn — the
//                       per-AL state writes a migration/scale forces;
//   * flow-rule churn = SDN rules installed + removed;
//   * O/E/O changes   = |delta| of mid-chain conversions over all chains
//                       (the orchestrator's fabric-wide running total).
// A modelled reconfiguration latency (weighted sum) feeds the bench's
// latency histogram; only the weights' ratios matter.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace alvc::orchestrator {
class NetworkOrchestrator;
}

namespace alvc::elastic {

enum class ActionKind : std::uint8_t { kScaleOut, kScaleIn, kMigration, kReprovision };
inline constexpr std::size_t kActionKindCount = 4;

[[nodiscard]] constexpr std::string_view to_string(ActionKind kind) noexcept {
  switch (kind) {
    case ActionKind::kScaleOut: return "scale-out";
    case ActionKind::kScaleIn: return "scale-in";
    case ActionKind::kMigration: return "migration";
    case ActionKind::kReprovision: return "reprovision";
  }
  return "?";
}

/// Point-in-time reading of the orchestrator's cumulative counters.
struct CostSnapshot {
  std::size_t deployed = 0;
  std::size_t terminated = 0;
  std::size_t slice_events = 0;  // kSliceAllocated + kSliceReleased log entries
  std::size_t rules_installed = 0;
  std::size_t rules_removed = 0;
  std::size_t mid_chain_conversions = 0;  // summed over live chains
};

/// Deterministic reconfiguration-latency weights (seconds per unit).
struct CostModel {
  double al_update_s = 0.010;
  double flow_rule_s = 0.001;
  double oeo_change_s = 0.004;
};

/// What one action cost.
struct ActionCost {
  ActionKind kind = ActionKind::kScaleOut;
  std::size_t al_updates = 0;
  std::size_t flow_rule_churn = 0;
  std::size_t oeo_changes = 0;
  double latency_s = 0;
};

struct ActionTotals {
  std::size_t actions = 0;
  std::size_t al_updates = 0;
  std::size_t flow_rule_churn = 0;
  std::size_t oeo_changes = 0;
  double latency_s = 0;
};

class UpdateCostLedger {
 public:
  explicit UpdateCostLedger(const CostModel& model = {}) : model_(model) {}

  /// Reads the orchestrator's cumulative counters. O(1): the log keeps a
  /// count per event type and the orchestrator a running conversion total,
  /// so an action's cost does not grow with the chain count or run length.
  [[nodiscard]] static CostSnapshot snapshot(const alvc::orchestrator::NetworkOrchestrator& orch);

  /// Charges the delta since `before` to `kind`'s totals and returns the
  /// cost. Call immediately after the action succeeds.
  ActionCost charge(ActionKind kind, const alvc::orchestrator::NetworkOrchestrator& orch,
                    const CostSnapshot& before);

  [[nodiscard]] const ActionTotals& totals(ActionKind kind) const noexcept {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Mean AL updates per recorded action of `kind`; 0 when none recorded.
  [[nodiscard]] double al_updates_per_action(ActionKind kind) const noexcept;
  [[nodiscard]] const CostModel& model() const noexcept { return model_; }

 private:
  CostModel model_;
  std::array<ActionTotals, kActionKindCount> totals_{};
};

}  // namespace alvc::elastic
