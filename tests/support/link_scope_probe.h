// Test access to the link-failure walk as it ran before it was scoped.
//
// ClusterManager::handle_link_failure skips every cluster on the ToR's
// index list whose AL lacks the cut OPS and that is neither degraded nor
// disconnected: repairing it would change nothing and sweeping its chains
// would find nothing. The reference below is the unscoped walk: it repairs
// every cluster whose AL holds the ToR, in ascending id, and reports all of
// them as touched, so the orchestrator twin sweeps all their chains. A
// differential that routes one twin's link failures through it compares
// the production walk against that reference on identical inputs, with no
// second code path in src/.
#pragma once

#include <algorithm>
#include <vector>

#include "cluster/cluster_manager.h"
#include "orchestrator/orchestrator.h"
#include "util/error.h"

namespace alvc::test {

struct LinkScopeProbe {
  /// ClusterManager::handle_link_failure without the skip: every cluster
  /// whose AL contains `tor` is repaired and appended to `touched`.
  [[nodiscard]] static alvc::util::Expected<alvc::cluster::UpdateCost> repair_every_cluster(
      alvc::cluster::ClusterManager& manager, alvc::util::TorId tor, alvc::util::OpsId ops,
      std::vector<alvc::util::ClusterId>* touched) {
    auto& topo = *manager.topo_;
    if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
      return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument, "bad link endpoint id"};
    }
    if (topo.link_failed(tor, ops)) return alvc::cluster::UpdateCost{};
    if (auto status = topo.set_link_failed(tor, ops, true); !status.is_ok()) {
      return status.error();
    }
    alvc::cluster::UpdateCost cost;
    for (alvc::util::ClusterId id : manager.clusters_containing_tor(tor)) {
      alvc::cluster::VirtualCluster* vc = manager.find_mutable(id);
      if (vc == nullptr) continue;
      if (touched != nullptr) touched->push_back(id);
      if (auto repair = manager.repair_coverage(*vc)) cost += *repair;
    }
    return cost;
  }

  /// NetworkOrchestrator::handle_link_failure over repair_every_cluster:
  /// the same log entry, then a sweep over every cluster on the ToR and
  /// the rebalance.
  [[nodiscard]] static alvc::util::Expected<std::size_t> sweep_every_cluster(
      alvc::orchestrator::NetworkOrchestrator& orchestrator, alvc::util::TorId tor,
      alvc::util::OpsId ops) {
    const auto& topo = orchestrator.clusters_->topology();
    if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
      return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument, "bad link endpoint id"};
    }
    const auto& uplinks = topo.tor(tor).uplinks;
    if (std::find(uplinks.begin(), uplinks.end(), ops) == uplinks.end()) {
      return alvc::util::Error{alvc::util::ErrorCode::kNotFound, "no such ToR-OPS link"};
    }
    if (topo.link_failed(tor, ops)) return std::size_t{0};
    orchestrator.log_.append(alvc::sdn::ControlEventType::kLinkFailed, tor.value(),
                             alvc::sdn::ControlCause::kNone, ops.value());
    std::vector<alvc::util::ClusterId> touched;
    ALVC_IGNORE_STATUS(repair_every_cluster(*orchestrator.clusters_, tor, ops, &touched),
                       "an infeasible repair leaves the cluster degraded, as in production");
    const std::size_t repaired = orchestrator.sweep_chains(touched);
    orchestrator.rebalance_bandwidth();
    return repaired;
  }
};

}  // namespace alvc::test
