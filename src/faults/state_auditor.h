// Cross-layer invariant checker for the fault-injection harness.
//
// After every injected failure or repair the whole control plane must stay
// self-consistent: ALs keep the paper's exclusivity property, nothing runs
// on dead hardware, the SDN tables only forward over live links, and the
// bandwidth ledger never promises more than the fabric has. The auditor
// re-derives each invariant from primary state (topology flags, cluster
// ownership, flow tables, reservations) rather than trusting any cached
// counters, so a bug in one layer cannot hide a bug in another.
#pragma once

#include <string>
#include <vector>

#include "orchestrator/orchestrator.h"

namespace alvc::faults {

/// Threading contract: stateless; `audit` only reads the orchestrator and
/// must not run concurrently with a mutation of it — callers provide the
/// same external synchronization the orchestrator itself requires.
class StateAuditor {
 public:
  /// Runs every invariant; returns human-readable violations (empty means
  /// the control plane is consistent). Checks:
  ///   * cluster invariants — one-AL-per-OPS, coverage, no failed hardware
  ///     inside any AL (ClusterManager::check_invariants);
  ///   * slice isolation — no AL shared between chains (check_isolation);
  ///   * chain index — chains() is strictly id-ascending, holds
  ///     chain_count() entries, and each entry is the pointer chain(id)
  ///     returns;
  ///   * placement — every live VNF instance sits on usable hardware
  ///     inside its chain's slice (an OPS host in the AL, a server under
  ///     one of the AL's ToRs);
  ///   * placement counts — each chain's cached optical/electronic and
  ///     conversion counts equal finalize_placement(hosts) (a forwarding
  ///     graph's DAG conversion count excepted), and the orchestrator's
  ///     running mid-chain conversion total equals the recount;
  ///   * chain state — healthy chains hold exactly their demanded
  ///     bandwidth with all instances live; degraded chains carry a reason;
  ///   * routes — every route vertex is usable, every hop is a live edge
  ///     of the current switch graph;
  ///   * flow tables — every installed rule belongs to a live chain and
  ///     forwards over a live link;
  ///   * route cache — every cached path the cache would serve under the
  ///     current slice state walks live, in-slice hardware
  ///     (RouteCache::check_coherence);
  ///   * bandwidth — every reservation fits its link's capacity and rides
  ///     a live link;
  ///   * slice capacity — per slice, the sum of reservations on its
  ///     ToR-OPS uplinks never exceeds the slice's live aggregate uplink
  ///     capacity (ClusterManager::slice_uplink_capacity_gbps);
  ///   * work conservation (QoS policies only) — a chain short of its
  ///     demand must be blocked on at least one of its resources (route
  ///     links + ToR budgets, mirroring the allocator's model); it must
  ///     not sit below a rung every resource could comfortably carry;
  ///   * priority-feasibility (kPriorityDowngrade only) — a HIPRI chain
  ///     short of its demand must be blocked even with every LOPRI
  ///     reservation excluded: LOPRI never holds capacity a degraded
  ///     HIPRI could use.
  [[nodiscard]] static std::vector<std::string> audit(
      const alvc::orchestrator::NetworkOrchestrator& orch);
};

}  // namespace alvc::faults
