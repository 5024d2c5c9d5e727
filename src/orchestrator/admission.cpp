#include "orchestrator/admission.h"

#include <algorithm>
#include <limits>

#include "graph/scratch.h"
#include "telemetry/telemetry.h"

namespace alvc::orchestrator {

using alvc::nfv::HostRef;
using alvc::topology::Resources;
using alvc::util::Error;
using alvc::util::ErrorCode;

namespace {

/// True when `egress` is reachable from `ingress` over live switch links
/// whose both ends are members of `layer` (or the anchors themselves).
/// `members` is the caller's scratch.
bool anchors_connected(const alvc::topology::DataCenterTopology& topo,
                       const alvc::cluster::AbstractionLayer& layer, alvc::util::TorId ingress,
                       alvc::util::TorId egress, alvc::graph::VertexSet& members) {
  if (ingress == egress) return true;
  const auto& g = topo.switch_graph();
  const alvc::graph::CsrView csr = g.csr();
  members.reset(g.vertex_count());
  for (alvc::util::TorId t : layer.tors) members.insert(topo.tor_vertex(t));
  for (alvc::util::OpsId o : layer.opss) members.insert(topo.ops_vertex(o));
  const std::size_t target = topo.tor_vertex(egress);
  members.insert(target);
  alvc::graph::TraversalScratch& scratch = alvc::graph::thread_scratch();
  scratch.begin(g.vertex_count());
  scratch.mark(topo.tor_vertex(ingress));
  scratch.frontier.push_back(topo.tor_vertex(ingress));
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    for (const auto& nb : csr.neighbors(scratch.frontier[head])) {
      if (!members.contains(nb.vertex) || scratch.seen(nb.vertex)) continue;
      if (nb.vertex == target) return true;
      scratch.mark(nb.vertex);
      scratch.frontier.push_back(nb.vertex);
    }
  }
  return false;
}

}  // namespace

AdmissionDecision AdmissionController::check(const alvc::nfv::NfcSpec& spec,
                                             const alvc::cluster::VirtualCluster& cluster,
                                             const alvc::nfv::HostingPool& pool,
                                             AllocationPolicy policy) {
  const bool qos = policy != AllocationPolicy::kStrictLadder;
  if (spec.functions.empty()) {
    return {Error{ErrorCode::kRejected, "chain has no functions"},
            AdmissionOutcome::kRejectedMalformed};
  }
  if (spec.bandwidth_gbps <= 0) {
    return {Error{ErrorCode::kRejected, "non-positive bandwidth request"},
            AdmissionOutcome::kRejectedMalformed};
  }
  // Bandwidth: the chain rides the slice's ToRs and OPSs; the tightest
  // port on the slice bounds it.
  double min_port = std::numeric_limits<double>::infinity();
  for (alvc::util::TorId t : cluster.layer.tors) {
    min_port = std::min(min_port, topo_->tor(t).port_bandwidth_gbps);
  }
  for (alvc::util::OpsId o : cluster.layer.opss) {
    min_port = std::min(min_port, topo_->ops(o).port_bandwidth_gbps);
  }
  // Under a QoS policy a full-demand bandwidth failure is downgraded to the
  // largest ladder rung the slice can carry instead of hard-rejected; the
  // rejection is kept around in case no rung fits either.
  AdmissionDecision rejection;
  bool needs_downgrade = false;
  if (spec.bandwidth_gbps > min_port) {
    rejection = {Error{ErrorCode::kRejected, "requested " + std::to_string(spec.bandwidth_gbps) +
                                                 " Gbps exceeds slice port " +
                                                 std::to_string(min_port) + " Gbps"},
                 AdmissionOutcome::kRejectedBandwidth};
    if (!qos) return rejection;
    needs_downgrade = true;
  }
  // Min-cut feasibility between the chain's default anchors. Every slice
  // link carries min(its two ports) >= min_port, so every cut between the
  // anchors is either empty or at least min_port wide: the min-cut is 0
  // when the anchors are disconnected inside the slice and never binds
  // otherwise. A zero cut fits no ladder rung of a demand above the
  // tolerance, so a disconnected slice rejects under every policy.
  if (!cluster.layer.tors.empty() && spec.bandwidth_gbps > 1e-9 &&
      !anchors_connected(*topo_, cluster.layer, cluster.layer.tors.front(),
                         cluster.layer.tors.back(), anchor_members_)) {
    if (needs_downgrade) return rejection;
    return {Error{ErrorCode::kRejected, "requested " + std::to_string(spec.bandwidth_gbps) +
                                            " Gbps exceeds the slice's min-cut capacity of " +
                                            std::to_string(0.0) + " Gbps"},
            AdmissionOutcome::kRejectedCapacityFlow};
  }
  double granted = spec.bandwidth_gbps;
  AdmissionOutcome admitted_as = AdmissionOutcome::kAdmitted;
  if (needs_downgrade) {
    granted = 0;
    for (double fraction : BandwidthAllocator::kLadder) {
      if (fraction >= 1.0) continue;  // full demand already failed
      if (spec.bandwidth_gbps * fraction <= min_port + 1e-9) {
        granted = spec.bandwidth_gbps * fraction;
        break;
      }
    }
    if (granted <= 0) return rejection;  // not even the 1/8 rung fits
    admitted_as = AdmissionOutcome::kAdmittedDowngraded;
  }
  // Aggregate resource feasibility (necessary condition).
  Resources total_demand;
  for (alvc::util::VnfId fn : spec.functions) {
    total_demand += catalog_->descriptor(fn).demand;
  }
  Resources total_free;
  for (alvc::util::OpsId o : cluster.layer.opss) {
    if (topo_->ops(o).optoelectronic) total_free += pool.free_capacity(HostRef{o});
  }
  for (alvc::util::TorId t : cluster.layer.tors) {
    for (alvc::util::ServerId s : topo_->tor(t).servers) {
      total_free += pool.free_capacity(HostRef{s});
    }
  }
  if (!total_demand.fits_within(total_free)) {
    return {Error{ErrorCode::kRejected, "slice lacks aggregate capacity for the chain"},
            AdmissionOutcome::kRejectedResources};
  }
  return {Status::ok(), admitted_as, granted};
}

void AdmissionController::record(const AdmissionDecision& decision) noexcept {
  // The single choke point every admission verdict flows through; the
  // telemetry counters mirror stats_ so dashboards and the in-process
  // AdmissionStats always agree.
  switch (decision.outcome) {
    case AdmissionOutcome::kAdmitted:
      ++stats_.admitted;
      ALVC_COUNT("orchestrator.admission.admitted");
      break;
    case AdmissionOutcome::kAdmittedDowngraded:
      ++stats_.admitted_downgraded;
      ALVC_COUNT("orchestrator.admission.admitted_downgraded");
      break;
    case AdmissionOutcome::kRejectedMalformed:
      ++stats_.rejected_malformed;
      ALVC_COUNT("orchestrator.admission.rejected_malformed");
      break;
    case AdmissionOutcome::kRejectedBandwidth:
      ++stats_.rejected_bandwidth;
      ALVC_COUNT("orchestrator.admission.rejected_bandwidth");
      break;
    case AdmissionOutcome::kRejectedCapacityFlow:
      ++stats_.rejected_capacity_flow;
      ALVC_COUNT("orchestrator.admission.rejected_capacity_flow");
      break;
    case AdmissionOutcome::kRejectedResources:
      ++stats_.rejected_resources;
      ALVC_COUNT("orchestrator.admission.rejected_resources");
      break;
  }
}

AdmissionDecision AdmissionController::admit(const alvc::nfv::NfcSpec& spec,
                                             const alvc::cluster::VirtualCluster& cluster,
                                             const alvc::nfv::HostingPool& pool,
                                             AllocationPolicy policy) {
  AdmissionDecision decision = check(spec, cluster, pool, policy);
  record(decision);
  return decision;
}

}  // namespace alvc::orchestrator
