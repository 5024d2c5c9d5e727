// Chain routing over the hybrid topology (paper Fig. 5).
//
// A provisioned chain's flow enters at an ingress ToR, visits its VNF hosts
// in order, and leaves at an egress ToR. Each leg is a shortest path in the
// switch graph RESTRICTED TO THE SLICE (the cluster's ToRs + its AL OPSs
// plus the leg endpoints) — that restriction is what makes slices isolated:
// a chain cannot ride another cluster's switches.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "cluster/virtual_cluster.h"
#include "graph/scratch.h"
#include "nfv/forwarding_graph.h"
#include "nfv/lifecycle.h"
#include "orchestrator/oeo.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::orchestrator {

using alvc::util::Expected;
using alvc::util::TorId;

struct ChainRoute {
  /// Concatenated switch-level walk (junction vertices not repeated).
  std::vector<std::size_t> vertices;
  /// Per-leg vertex paths (leg i connects stop i to stop i+1).
  std::vector<std::vector<std::size_t>> legs;
  std::size_t optical_hops = 0;     // OPS-OPS links traversed
  std::size_t electronic_hops = 0;  // links touching a ToR
  OeoCount conversions;             // from the hosts' domains

  [[nodiscard]] std::size_t total_hops() const noexcept {
    return optical_hops + electronic_hops;
  }
};

/// Supplies one leg of a chain route: the slice-internal path `from` ->
/// `to` for leg number `leg_index`. ChainRouter's default source runs a
/// filtered BFS; the route cache wraps the same BFS behind a memo so both
/// paths share every other step of route assembly (stop construction,
/// junction dedup, hop tallies) and stay bit-identical by construction.
using RouteLegSource = std::function<alvc::util::Expected<std::vector<std::size_t>>(
    std::size_t from, std::size_t to, std::size_t leg_index)>;

/// The BFS primitives route() is built from, exposed so the route cache's
/// miss path runs EXACTLY the computation it memoizes.
namespace routing_detail {

/// Vertices a chain of `cluster` may traverse, plus any explicit extras,
/// filled into `allowed` (reset to the switch graph's vertex count first).
/// A stamped dense set instead of a hash set: the BFS membership test on
/// the routing hot path becomes one array load.
void slice_vertices(const alvc::topology::DataCenterTopology& topo,
                    const alvc::cluster::VirtualCluster& cluster,
                    std::span<const std::size_t> extras, alvc::graph::VertexSet& allowed);

/// Shortest slice-internal path from `from` to `to`; kInfeasible when none.
[[nodiscard]] alvc::util::Expected<std::vector<std::size_t>> route_leg(
    const alvc::topology::DataCenterTopology& topo, const alvc::graph::VertexSet& allowed,
    std::size_t from, std::size_t to, std::size_t leg_index);

}  // namespace routing_detail

class ChainRouter {
 public:
  explicit ChainRouter(const alvc::topology::DataCenterTopology& topo) : topo_(&topo) {}

  /// Routes ingress -> hosts... -> egress inside `cluster`'s slice.
  /// kInfeasible when a leg cannot be completed inside the slice. Not
  /// const: the slice set is the router's reused scratch.
  [[nodiscard]] Expected<ChainRoute> route(const alvc::cluster::VirtualCluster& cluster,
                                           TorId ingress, TorId egress,
                                           std::span<const alvc::nfv::HostRef> hosts);

  /// route() with the per-leg path computation delegated to `legs`: same
  /// stops, same assembly, same conversion counting. route() itself is this
  /// with the default BFS source.
  [[nodiscard]] Expected<ChainRoute> route_via(const alvc::cluster::VirtualCluster& cluster,
                                               TorId ingress, TorId egress,
                                               std::span<const alvc::nfv::HostRef> hosts,
                                               const RouteLegSource& legs) const;

  /// Routes a complex forwarding graph (paper §IV-A): one leg from the
  /// ingress to the entry node's host, one leg per DAG edge, and one leg
  /// from every exit node's host to the egress. `node_hosts[i]` is the host
  /// of graph node i. Mid-graph conversions are counted per DAG edge whose
  /// source host is optical and whose target host is electronic (each such
  /// edge forces the flow out of the optical domain).
  [[nodiscard]] Expected<ChainRoute> route_graph(
      const alvc::cluster::VirtualCluster& cluster, TorId ingress, TorId egress,
      const alvc::nfv::ForwardingGraph& graph, std::span<const alvc::nfv::HostRef> node_hosts);

  /// route_graph() with the per-leg computation delegated to `legs`.
  [[nodiscard]] Expected<ChainRoute> route_graph_via(
      TorId ingress, TorId egress, const alvc::nfv::ForwardingGraph& graph,
      std::span<const alvc::nfv::HostRef> node_hosts, const RouteLegSource& legs) const;

  /// Switch-graph vertex where a host attaches (server -> its rack ToR,
  /// optoelectronic router -> its OPS vertex).
  [[nodiscard]] std::size_t attach_vertex(const alvc::nfv::HostRef& host) const;

  /// The stop sequence route() visits: ingress ToR vertex, each host's
  /// attach vertex in order, egress ToR vertex.
  [[nodiscard]] std::vector<std::size_t> chain_stops(
      TorId ingress, TorId egress, std::span<const alvc::nfv::HostRef> hosts) const;

 private:
  const alvc::topology::DataCenterTopology* topo_;
  /// The slice set route()/route_graph() fill per call (graph/scratch.h
  /// reuse contract): reused, so a route costs O(slice), not O(fabric).
  alvc::graph::VertexSet allowed_;
};

}  // namespace alvc::orchestrator
