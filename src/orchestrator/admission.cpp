#include "orchestrator/admission.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "graph/max_flow.h"
#include "telemetry/telemetry.h"

namespace alvc::orchestrator {

using alvc::nfv::HostRef;
using alvc::topology::Resources;
using alvc::util::Error;
using alvc::util::ErrorCode;

AdmissionDecision AdmissionController::check(const alvc::nfv::NfcSpec& spec,
                                             const alvc::cluster::VirtualCluster& cluster,
                                             const alvc::nfv::HostingPool& pool,
                                             AllocationPolicy policy) const {
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
  // Max-flow feasibility between the chain's default anchors: a single
  // fat port does not help if some slice-internal cut is thinner.
  double cap = min_port;
  if (!cluster.layer.tors.empty()) {
    const double capacity = slice_capacity_gbps(cluster, cluster.layer.tors.front(),
                                                cluster.layer.tors.back());
    cap = std::min(cap, capacity);
    if (!needs_downgrade && spec.bandwidth_gbps > capacity + 1e-9) {
      rejection = {
          Error{ErrorCode::kRejected, "requested " + std::to_string(spec.bandwidth_gbps) +
                                          " Gbps exceeds the slice's min-cut capacity of " +
                                          std::to_string(capacity) + " Gbps"},
          AdmissionOutcome::kRejectedCapacityFlow};
      if (!qos) return rejection;
      needs_downgrade = true;
    }
  }
  double granted = spec.bandwidth_gbps;
  AdmissionOutcome admitted_as = AdmissionOutcome::kAdmitted;
  if (needs_downgrade) {
    granted = 0;
    for (double fraction : BandwidthAllocator::kLadder) {
      if (fraction >= 1.0) continue;  // full demand already failed
      if (spec.bandwidth_gbps * fraction <= cap + 1e-9) {
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

double AdmissionController::slice_capacity_gbps(const alvc::cluster::VirtualCluster& cluster,
                                                alvc::util::TorId ingress,
                                                alvc::util::TorId egress) const {
  if (ingress == egress) return std::numeric_limits<double>::infinity();
  // Dense re-index of the slice's switch vertices.
  std::unordered_map<std::size_t, std::size_t> index;
  std::unordered_set<std::size_t> members;
  const auto add_member = [&](std::size_t v) {
    if (members.insert(v).second) index.emplace(v, index.size());
  };
  for (alvc::util::TorId t : cluster.layer.tors) add_member(topo_->tor_vertex(t));
  for (alvc::util::OpsId o : cluster.layer.opss) add_member(topo_->ops_vertex(o));
  const std::size_t src_v = topo_->tor_vertex(ingress);
  const std::size_t dst_v = topo_->tor_vertex(egress);
  add_member(src_v);
  add_member(dst_v);

  const auto port_of = [&](std::size_t v) {
    if (topo_->is_ops_vertex(v)) return topo_->ops(topo_->vertex_to_ops(v)).port_bandwidth_gbps;
    return topo_->tor(topo_->vertex_to_tor(v)).port_bandwidth_gbps;
  };

  alvc::graph::FlowNetwork net(index.size());
  const auto& g = topo_->switch_graph();
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto& edge = edges[e];
    if (!members.contains(edge.from) || !members.contains(edge.to) || !g.edge_live(e)) continue;
    const double capacity = std::min(port_of(edge.from), port_of(edge.to));
    net.add_edge(index.at(edge.from), index.at(edge.to), capacity);
    net.add_edge(index.at(edge.to), index.at(edge.from), capacity);
  }
  return net.max_flow(index.at(src_v), index.at(dst_v));
}

}  // namespace alvc::orchestrator
