#include "support/max_flow_admission.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "support/max_flow.h"
#include "orchestrator/bandwidth_allocator.h"

namespace alvc::test {

using alvc::nfv::HostRef;
using alvc::orchestrator::AdmissionDecision;
using alvc::orchestrator::AdmissionOutcome;
using alvc::orchestrator::AllocationPolicy;
using alvc::orchestrator::BandwidthAllocator;
using alvc::topology::Resources;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::Status;

double slice_max_flow_gbps(const alvc::topology::DataCenterTopology& topo,
                           const alvc::cluster::VirtualCluster& cluster,
                           alvc::util::TorId ingress, alvc::util::TorId egress) {
  if (ingress == egress) return std::numeric_limits<double>::infinity();
  // Dense re-index of the slice's switch vertices.
  std::unordered_map<std::size_t, std::size_t> index;
  std::unordered_set<std::size_t> members;
  const auto add_member = [&](std::size_t v) {
    if (members.insert(v).second) index.emplace(v, index.size());
  };
  for (alvc::util::TorId t : cluster.layer.tors) add_member(topo.tor_vertex(t));
  for (alvc::util::OpsId o : cluster.layer.opss) add_member(topo.ops_vertex(o));
  const std::size_t src_v = topo.tor_vertex(ingress);
  const std::size_t dst_v = topo.tor_vertex(egress);
  add_member(src_v);
  add_member(dst_v);

  const auto port_of = [&](std::size_t v) {
    if (topo.is_ops_vertex(v)) return topo.ops(topo.vertex_to_ops(v)).port_bandwidth_gbps;
    return topo.tor(topo.vertex_to_tor(v)).port_bandwidth_gbps;
  };

  alvc::graph::FlowNetwork net(index.size());
  const auto& g = topo.switch_graph();
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

AdmissionDecision max_flow_admission_check(const alvc::topology::DataCenterTopology& topo,
                                           const alvc::nfv::VnfCatalog& catalog,
                                           const alvc::nfv::NfcSpec& spec,
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
  double min_port = std::numeric_limits<double>::infinity();
  for (alvc::util::TorId t : cluster.layer.tors) {
    min_port = std::min(min_port, topo.tor(t).port_bandwidth_gbps);
  }
  for (alvc::util::OpsId o : cluster.layer.opss) {
    min_port = std::min(min_port, topo.ops(o).port_bandwidth_gbps);
  }
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
  double cap = min_port;
  if (!cluster.layer.tors.empty()) {
    const double capacity = slice_max_flow_gbps(topo, cluster, cluster.layer.tors.front(),
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
      if (fraction >= 1.0) continue;
      if (spec.bandwidth_gbps * fraction <= cap + 1e-9) {
        granted = spec.bandwidth_gbps * fraction;
        break;
      }
    }
    if (granted <= 0) return rejection;
    admitted_as = AdmissionOutcome::kAdmittedDowngraded;
  }
  Resources total_demand;
  for (alvc::util::VnfId fn : spec.functions) {
    total_demand += catalog.descriptor(fn).demand;
  }
  Resources total_free;
  for (alvc::util::OpsId o : cluster.layer.opss) {
    if (topo.ops(o).optoelectronic) total_free += pool.free_capacity(HostRef{o});
  }
  for (alvc::util::TorId t : cluster.layer.tors) {
    for (alvc::util::ServerId s : topo.tor(t).servers) {
      total_free += pool.free_capacity(HostRef{s});
    }
  }
  if (!total_demand.fits_within(total_free)) {
    return {Error{ErrorCode::kRejected, "slice lacks aggregate capacity for the chain"},
            AdmissionOutcome::kRejectedResources};
  }
  return {Status::ok(), admitted_as, granted};
}

}  // namespace alvc::test
