// Live VNF migration to relieve hot hosts (actuator, part 2).
//
// When a host (server or optoelectronic router) runs close to its
// capacity, chains with instances on it are migrated — one function at a
// time — onto the coldest host inside the same slice. Two execution
// modes, which is the whole point of the ledger:
//
//   * kIncremental — NetworkOrchestrator::migrate_function: terminate old
//     instance + deploy fresh on the target, re-route, swap rules. The AL
//     itself is only touched twice (the paper's ~2 AL updates/migration).
//   * kReprovision — the strawman the paper argues against: tear the whole
//     chain down and provision it again. Every instance is redeployed and
//     the slice is released and re-allocated, so a k-function chain costs
//     2k + 2 AL updates.
//
// The planner never moves degraded chains (the fault-recovery path owns
// those) and caps moves per tick so a hot spot drains gradually instead
// of thundering.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "elastic/ledger.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/placement.h"

namespace alvc::elastic {

enum class ExecutionMode : std::uint8_t { kIncremental, kReprovision };

[[nodiscard]] constexpr std::string_view to_string(ExecutionMode mode) noexcept {
  return mode == ExecutionMode::kIncremental ? "incremental" : "reprovision";
}

struct MigrationPolicy {
  /// A host is hot when any resource dimension is used at or above this
  /// fraction of nominal capacity (HostingPool::utilization).
  double hot_utilization = 0.85;
  /// Upper bound on moves per tick (drain gradually).
  std::size_t max_moves_per_tick = 2;
  /// Minimum simulated seconds between moves of the same chain.
  double cooldown_s = 4.0;
};

struct MigrationStats {
  std::size_t migrations = 0;    // incremental moves that committed
  std::size_t reprovisions = 0;  // teardown + reprovision cycles
  std::size_t failed = 0;        // the orchestrator refused the move
  std::size_t lost = 0;          // reprovision torn down but re-admission failed
  std::size_t no_target = 0;     // hot instance with no feasible target
};

class MigrationPlanner {
 public:
  /// `placement` is only used by kReprovision (the baseline re-runs full
  /// placement); it must outlive the planner.
  MigrationPlanner(alvc::orchestrator::NetworkOrchestrator& orch, UpdateCostLedger& ledger,
                   const alvc::orchestrator::PlacementStrategy& placement,
                   const MigrationPolicy& policy = {},
                   ExecutionMode mode = ExecutionMode::kIncremental)
      : orch_(&orch), ledger_(&ledger), placement_(&placement), policy_(policy), mode_(mode) {}

  void set_mode(ExecutionMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] ExecutionMode mode() const noexcept { return mode_; }

  /// Reprovisioning retires the old chain id and mints a new one; owners
  /// tracking per-chain state (DemandModel) hook this to remap.
  void set_on_reprovision(std::function<void(alvc::util::NfcId, alvc::util::NfcId)> fn) {
    on_reprovision_ = std::move(fn);
  }

  /// One relief pass at simulated time `now_s`: scan chains in ascending
  /// id order, move at most one hot instance per chain, stop after
  /// `max_moves_per_tick`. Returns moves executed. A standalone entry
  /// point for tests: it takes its own snapshot and forwards to the pass
  /// below.
  std::size_t tick(double now_s);

  /// The same pass over `chains`, a NetworkOrchestrator::chains() snapshot
  /// the caller already holds. Appends to `attempted` the index in
  /// `chains` of every chain the pass tried to move, applied or not: those
  /// are the only chains whose instances it may have changed (an
  /// incremental move redeploys at scale 1). In kReprovision mode a move
  /// tears its chain down (that entry dangles afterwards) and provisions a
  /// new one the snapshot does not hold; the pass never revisits either.
  std::size_t tick(double now_s,
                   std::span<const alvc::orchestrator::ProvisionedChain* const> chains,
                   std::vector<std::size_t>& attempted);

  [[nodiscard]] const MigrationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MigrationPolicy& policy() const noexcept { return policy_; }

 private:
  /// Coldest feasible in-slice target for function `fi` of `chain`, or
  /// nullopt. Deterministic: ties break optical-first, then by id.
  [[nodiscard]] std::optional<alvc::nfv::HostRef> pick_target(
      const alvc::orchestrator::ProvisionedChain& chain, std::size_t fi) const;

  alvc::orchestrator::NetworkOrchestrator* orch_;
  UpdateCostLedger* ledger_;
  const alvc::orchestrator::PlacementStrategy* placement_;
  MigrationPolicy policy_;
  ExecutionMode mode_;
  MigrationStats stats_;
  std::map<alvc::util::NfcId, double> last_move_s_;
  std::function<void(alvc::util::NfcId, alvc::util::NfcId)> on_reprovision_;
};

}  // namespace alvc::elastic
