#include "orchestrator/routing.h"

#include "graph/shortest_path.h"

namespace alvc::orchestrator {

using alvc::nfv::HostRef;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;

namespace routing_detail {

void slice_vertices(const alvc::topology::DataCenterTopology& topo,
                    const alvc::cluster::VirtualCluster& cluster,
                    std::span<const std::size_t> extras, alvc::graph::VertexSet& allowed) {
  allowed.reset(topo.switch_graph().vertex_count());
  for (TorId t : cluster.layer.tors) allowed.insert(topo.tor_vertex(t));
  for (OpsId o : cluster.layer.opss) allowed.insert(topo.ops_vertex(o));
  for (std::size_t v : extras) allowed.insert(v);
}

alvc::util::Expected<std::vector<std::size_t>> route_leg(
    const alvc::topology::DataCenterTopology& topo, const alvc::graph::VertexSet& allowed,
    std::size_t from, std::size_t to, std::size_t leg_index) {
  if (from == to) return std::vector<std::size_t>{from};
  auto path = alvc::graph::bfs_path_to(topo.switch_graph(), from, to, allowed);
  if (!path) {
    return Error{ErrorCode::kInfeasible,
                 "no slice-internal path for leg " + std::to_string(leg_index)};
  }
  return std::move(*path);
}

}  // namespace routing_detail

namespace {

using routing_detail::route_leg;
using routing_detail::slice_vertices;

/// Concatenates legs into the walk and tallies hop domains.
void finish_route(const alvc::topology::DataCenterTopology& topo, ChainRoute& route) {
  for (const auto& leg : route.legs) {
    for (std::size_t v : leg) {
      if (route.vertices.empty() || route.vertices.back() != v) route.vertices.push_back(v);
    }
  }
  for (std::size_t i = 0; i + 1 < route.vertices.size(); ++i) {
    const bool both_optical = topo.is_ops_vertex(route.vertices[i]) &&
                              topo.is_ops_vertex(route.vertices[i + 1]);
    if (both_optical) {
      ++route.optical_hops;
    } else {
      ++route.electronic_hops;
    }
  }
}

}  // namespace

std::size_t ChainRouter::attach_vertex(const HostRef& host) const {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return topo_->tor_vertex(topo_->server(*server).tor);
  }
  return topo_->ops_vertex(std::get<OpsId>(host));
}

std::vector<std::size_t> ChainRouter::chain_stops(TorId ingress, TorId egress,
                                                  std::span<const HostRef> hosts) const {
  std::vector<std::size_t> stops;
  stops.reserve(hosts.size() + 2);
  stops.push_back(topo_->tor_vertex(ingress));
  for (const HostRef& host : hosts) stops.push_back(attach_vertex(host));
  stops.push_back(topo_->tor_vertex(egress));
  return stops;
}

Expected<ChainRoute> ChainRouter::route_via(
    const alvc::cluster::VirtualCluster& /*cluster: the leg source closes over the slice*/,
    TorId ingress, TorId egress, std::span<const HostRef> hosts,
    const RouteLegSource& legs) const {
  const auto stops = chain_stops(ingress, egress, hosts);
  ChainRoute route;
  route.conversions = count_conversions(hosts);
  for (std::size_t i = 0; i + 1 < stops.size(); ++i) {
    auto leg = legs(stops[i], stops[i + 1], i);
    if (!leg) return leg.error();
    route.legs.push_back(std::move(*leg));
  }
  finish_route(*topo_, route);
  return route;
}

Expected<ChainRoute> ChainRouter::route(const alvc::cluster::VirtualCluster& cluster,
                                        TorId ingress, TorId egress,
                                        std::span<const HostRef> hosts) {
  const auto stops = chain_stops(ingress, egress, hosts);
  slice_vertices(*topo_, cluster, stops, allowed_);
  return route_via(cluster, ingress, egress, hosts,
                   [&](std::size_t from, std::size_t to, std::size_t leg_index) {
                     return route_leg(*topo_, allowed_, from, to, leg_index);
                   });
}

Expected<ChainRoute> ChainRouter::route_graph(const alvc::cluster::VirtualCluster& cluster,
                                              TorId ingress, TorId egress,
                                              const alvc::nfv::ForwardingGraph& graph,
                                              std::span<const HostRef> node_hosts) {
  if (node_hosts.size() != graph.node_count()) {
    return Error{ErrorCode::kInvalidArgument, "node_hosts size != graph node count"};
  }
  if (auto status = graph.validate(); !status.is_ok()) return status.error();
  std::vector<std::size_t> extras;
  extras.reserve(node_hosts.size() + 2);
  for (const HostRef& host : node_hosts) extras.push_back(attach_vertex(host));
  extras.push_back(topo_->tor_vertex(ingress));
  extras.push_back(topo_->tor_vertex(egress));
  slice_vertices(*topo_, cluster, extras, allowed_);
  return route_graph_via(ingress, egress, graph, node_hosts,
                         [&](std::size_t from, std::size_t to, std::size_t leg_index) {
                           return route_leg(*topo_, allowed_, from, to, leg_index);
                         });
}

Expected<ChainRoute> ChainRouter::route_graph_via(TorId ingress, TorId egress,
                                                  const alvc::nfv::ForwardingGraph& graph,
                                                  std::span<const HostRef> node_hosts,
                                                  const RouteLegSource& legs) const {
  if (node_hosts.size() != graph.node_count()) {
    return Error{ErrorCode::kInvalidArgument, "node_hosts size != graph node count"};
  }
  if (auto status = graph.validate(); !status.is_ok()) return status.error();

  std::vector<std::size_t> attach(node_hosts.size());
  for (std::size_t i = 0; i < node_hosts.size(); ++i) attach[i] = attach_vertex(node_hosts[i]);
  const std::size_t ingress_v = topo_->tor_vertex(ingress);
  const std::size_t egress_v = topo_->tor_vertex(egress);

  ChainRoute route;
  std::size_t leg_index = 0;
  // Ingress -> entry node.
  {
    auto leg = legs(ingress_v, attach[graph.entry()], leg_index++);
    if (!leg) return leg.error();
    route.legs.push_back(std::move(*leg));
  }
  // One leg per DAG edge; conversions per optical->electronic edge.
  std::size_t conversions = 0;
  for (const auto& edge : graph.edges()) {
    auto leg = legs(attach[edge.from], attach[edge.to], leg_index++);
    if (!leg) return leg.error();
    route.legs.push_back(std::move(*leg));
    if (alvc::nfv::is_optical_host(node_hosts[edge.from]) &&
        !alvc::nfv::is_optical_host(node_hosts[edge.to])) {
      ++conversions;
    }
  }
  // Every exit -> egress.
  for (std::size_t exit : graph.exits()) {
    auto leg = legs(attach[exit], egress_v, leg_index++);
    if (!leg) return leg.error();
    route.legs.push_back(std::move(*leg));
  }
  // Entry counts once when the (electronic) ingress hands to an electronic
  // entry host and optical segments exist later — keep the simple per-edge
  // definition and add the entry excursion only if the entry host is
  // electronic (the flow dips out of the optical ingress segment).
  if (!alvc::nfv::is_optical_host(node_hosts[graph.entry()])) ++conversions;
  route.conversions.mid_chain = conversions;
  finish_route(*topo_, route);
  return route;
}

}  // namespace alvc::orchestrator
