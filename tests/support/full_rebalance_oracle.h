// Whole-fabric rebalance oracle: the pre-incremental rebalance_bandwidth()
// planning phase, kept as a test-only reference (the legacy_graph pattern).
//
// It snapshots every routed chain in ascending id order, indexes resources
// in encounter order (each distinct route link, plus one aggregate budget
// per crossed ToR when the budget factor is positive), and runs the
// orchestrator's allocator over the whole fabric at once. The incremental
// rebalance re-plans only the components a change touched; once it has
// settled, every routed chain's reservation must equal this oracle's
// target bit for bit, and the oracle must find nothing to change.
#pragma once

#include <cstddef>
#include <vector>

#include "orchestrator/orchestrator.h"
#include "util/ids.h"

namespace alvc::test {

struct OracleTarget {
  alvc::util::NfcId id;
  double reserved_gbps = 0;  // the chain's live reservation
  double target_gbps = 0;    // the whole-fabric plan's target
  /// Smallest chain id in this chain's connected component of the chain
  /// <-> resource graph: a canonical component label.
  alvc::util::NfcId component;
};

struct FullRebalance {
  std::vector<OracleTarget> targets;  // every routed chain, ascending id

  /// Chains a full rebalance pass would shrink or grow (the pass's own
  /// 1e-9 tolerance).
  [[nodiscard]] std::size_t would_change() const;
};

/// Plans the whole fabric of `orch` under its current policy and ToR
/// budget factor. Empty under kStrictLadder, which never rebalances.
[[nodiscard]] FullRebalance full_rebalance_oracle(
    const alvc::orchestrator::NetworkOrchestrator& orch);

}  // namespace alvc::test
