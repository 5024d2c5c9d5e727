#include "topology/topology.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include "telemetry/telemetry.h"

namespace alvc::topology {

DataCenterTopology::DataCenterTopology(const DataCenterTopology& other)
    : servers_(other.servers_),
      vms_(other.vms_),
      tors_(other.tors_),
      opss_(other.opss_),
      footprint_pending_(other.footprint_pending_) {}

DataCenterTopology& DataCenterTopology::operator=(const DataCenterTopology& other) {
  if (this == &other) return *this;
  servers_ = other.servers_;
  vms_ = other.vms_;
  tors_ = other.tors_;
  opss_ = other.opss_;
  footprint_pending_ = other.footprint_pending_;
  invalidate_cache();
  return *this;
}

DataCenterTopology::DataCenterTopology(DataCenterTopology&& other) noexcept
    : servers_(std::move(other.servers_)),
      vms_(std::move(other.vms_)),
      tors_(std::move(other.tors_)),
      opss_(std::move(other.opss_)),
      footprint_pending_(std::move(other.footprint_pending_)) {
  other.invalidate_cache();
}

DataCenterTopology& DataCenterTopology::operator=(DataCenterTopology&& other) noexcept {
  if (this == &other) return *this;
  servers_ = std::move(other.servers_);
  vms_ = std::move(other.vms_);
  tors_ = std::move(other.tors_);
  opss_ = std::move(other.opss_);
  footprint_pending_ = std::move(other.footprint_pending_);
  invalidate_cache();
  other.invalidate_cache();
  return *this;
}

void DataCenterTopology::clear_pending_footprint_tors() noexcept { footprint_pending_.clear(); }

TorId DataCenterTopology::add_tor(double port_bandwidth_gbps) {
  const TorId id{static_cast<TorId::value_type>(tors_.size())};
  tors_.push_back(TorSwitch{.id = id, .port_bandwidth_gbps = port_bandwidth_gbps});
  invalidate_cache();
  return id;
}

ServerId DataCenterTopology::add_server(TorId tor, const Resources& capacity) {
  auto& t = tors_.at(tor.index());
  const ServerId id{static_cast<ServerId::value_type>(servers_.size())};
  servers_.push_back(Server{.id = id, .tor = tor, .capacity = capacity});
  t.servers.push_back(id);
  bump_mutation_epoch();
  return id;
}

VmId DataCenterTopology::add_vm(ServerId server, ServiceId service, const Resources& demand) {
  auto& s = servers_.at(server.index());
  const VmId id{static_cast<VmId::value_type>(vms_.size())};
  vms_.push_back(Vm{.id = id, .server = server, .service = service, .demand = demand});
  s.vms.push_back(id);
  bump_mutation_epoch();
  return id;
}

OpsId DataCenterTopology::add_ops(bool optoelectronic, const Resources& compute,
                                  double port_bandwidth_gbps) {
  const OpsId id{static_cast<OpsId::value_type>(opss_.size())};
  opss_.push_back(OpticalSwitch{.id = id,
                                .optoelectronic = optoelectronic,
                                .compute = optoelectronic ? compute : Resources{},
                                .port_bandwidth_gbps = port_bandwidth_gbps});
  invalidate_cache();
  return id;
}

void DataCenterTopology::connect_tor_ops(TorId tor, OpsId ops) {
  auto& t = tors_.at(tor.index());
  auto& o = opss_.at(ops.index());
  t.uplinks.push_back(ops);
  t.uplink_cut.push_back(0);
  o.tor_links.push_back(tor);
  footprint_pending_.insert(tor);
  invalidate_cache();
}

void DataCenterTopology::connect_ops_ops(OpsId a, OpsId b) {
  if (a == b) throw std::invalid_argument("connect_ops_ops: self-link");
  auto& oa = opss_.at(a.index());
  auto& ob = opss_.at(b.index());
  oa.peer_links.push_back(b);
  ob.peer_links.push_back(a);
  // A core link changes a footprint only by joining two OPSs of one AL,
  // each wired to a home ToR of it, so listing one end's ToRs suffices.
  for (TorId t : oa.tor_links) footprint_pending_.insert(t);
  invalidate_cache();
}

void DataCenterTopology::add_server_homing(ServerId server, TorId tor) {
  auto& s = servers_.at(server.index());
  if (tor.index() >= tors_.size()) {
    throw std::out_of_range("add_server_homing: bad ToR id");
  }
  if (s.tor == tor) return;
  if (std::find(s.secondary_tors.begin(), s.secondary_tors.end(), tor) !=
      s.secondary_tors.end()) {
    return;
  }
  s.secondary_tors.push_back(tor);
  footprint_pending_.insert(s.tor);
  bump_mutation_epoch();
}

std::size_t DataCenterTopology::service_count() const {
  std::size_t count = 0;
  for (const auto& vm : vms_) {
    count = std::max(count, vm.service.index() + 1);
  }
  return count;
}

void DataCenterTopology::move_vm(VmId vm, ServerId new_server) {
  auto& v = vms_.at(vm.index());
  auto& dst = servers_.at(new_server.index());
  if (v.server == new_server) return;
  auto& src = servers_.at(v.server.index());
  std::erase(src.vms, vm);
  dst.vms.push_back(vm);
  v.server = new_server;
  // The moved VM's homings changed; every footprint holding it holds its
  // old primary ToR. Which VMs a server hosts is in no footprint.
  footprint_pending_.insert(src.tor);
  bump_mutation_epoch();
}

alvc::util::Status DataCenterTopology::set_ops_failed(OpsId ops, bool failed) {
  if (ops.index() >= opss_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_ops_failed: bad OPS id " + std::to_string(ops.value())};
  }
  opss_[ops.index()].failed = failed;
  for (TorId t : opss_[ops.index()].tor_links) footprint_pending_.insert(t);
  refresh_switch_links(ops_vertex(ops));
  bump_mutation_epoch();
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_tor_failed(TorId tor, bool failed) {
  if (tor.index() >= tors_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_tor_failed: bad ToR id " + std::to_string(tor.value())};
  }
  tors_[tor.index()].failed = failed;
  footprint_pending_.insert(tor);
  refresh_switch_links(tor_vertex(tor));
  bump_mutation_epoch();
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_server_failed(ServerId server, bool failed) {
  if (server.index() >= servers_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_server_failed: bad server id " + std::to_string(server.value())};
  }
  servers_[server.index()].failed = failed;
  // Servers are not switch-graph vertices; the cache survives. The epoch
  // still moves: host usability feeds refit decisions built on it.
  bump_mutation_epoch();
  return alvc::util::Status::ok();
}

alvc::util::Status DataCenterTopology::set_link_failed(TorId tor, OpsId ops, bool failed) {
  if (tor.index() >= tors_.size() || ops.index() >= opss_.size()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument,
                             "set_link_failed: bad endpoint id"};
  }
  TorSwitch& t = tors_[tor.index()];
  if (std::find(t.uplinks.begin(), t.uplinks.end(), ops) == t.uplinks.end()) {
    return alvc::util::Error{alvc::util::ErrorCode::kNotFound,
                             "set_link_failed: ToR " + std::to_string(tor.value()) +
                                 " has no link to OPS " + std::to_string(ops.value())};
  }
  // A ToR wired to the same OPS twice has one cable state for the pair:
  // every entry of it flips, and the pair counts once in failed_uplinks.
  const std::uint8_t flag = failed ? 1 : 0;
  bool flipped = false;
  for (std::size_t i = 0; i < t.uplinks.size(); ++i) {
    if (t.uplinks[i] != ops || t.uplink_cut[i] == flag) continue;
    t.uplink_cut[i] = flag;
    flipped = true;
  }
  if (flipped) {
    if (failed) {
      ++t.failed_uplinks;
    } else {
      --t.failed_uplinks;
    }
  }
  footprint_pending_.insert(tor);
  refresh_switch_links(tor_vertex(tor));
  bump_mutation_epoch();
  return alvc::util::Status::ok();
}

void DataCenterTopology::build_switch_graph() const {
  alvc::graph::Graph g(tors_.size() + opss_.size());
  const auto add_link = [&](std::size_t a, std::size_t b) {
    const std::size_t e = g.add_edge(a, b);
    // Dead before the CSR exists: the build below lays it out, no patch.
    if (!switch_link_live(g.edge(e))) g.set_edge_live(e, false);
  };
  for (const auto& t : tors_) {
    for (OpsId ops : t.uplinks) add_link(tor_vertex(t.id), ops_vertex(ops));
  }
  for (const auto& o : opss_) {
    for (OpsId peer : o.peer_links) {
      if (o.id < peer) add_link(ops_vertex(o.id), ops_vertex(peer));  // each core link once
    }
  }
  switch_graph_ = std::move(g);
  switch_graph_valid_ = true;
}

void DataCenterTopology::refresh_switch_links(std::size_t v) {
  if (!switch_graph_valid_) return;
  // v's whole CSR slice, live prefix and dead tail, lists every link it
  // has. Copy the ids out first: each flip reorders the slice.
  const alvc::graph::CsrView csr = switch_graph_.csr();
  const auto slice = csr.adjacency.subspan(csr.offsets[v], csr.offsets[v + 1] - csr.offsets[v]);
  link_scratch_.clear();
  for (const auto& nb : slice) link_scratch_.push_back(nb.edge);
  for (std::size_t e : link_scratch_) {
    switch_graph_.set_edge_live(e, switch_link_live(switch_graph_.edge(e)));
  }
}

bool DataCenterTopology::switch_link_live(const alvc::graph::Edge& link) const {
  // ToR-OPS links run from their ToR vertex; core links join two OPSs.
  if (!is_ops_vertex(link.from)) {
    return link_usable(vertex_to_tor(link.from), vertex_to_ops(link.to));
  }
  return ops_usable(vertex_to_ops(link.from)) && ops_usable(vertex_to_ops(link.to));
}

const alvc::graph::Graph& DataCenterTopology::switch_graph() const {
  if (!switch_graph_valid_) {
    build_switch_graph();
    ALVC_COUNT("topology.switch_graph.full_builds");
  }
  return switch_graph_;
}

OpsId DataCenterTopology::vertex_to_ops(std::size_t v) const {
  if (!is_ops_vertex(v) || v >= tors_.size() + opss_.size()) {
    throw std::out_of_range("vertex_to_ops: not an OPS vertex");
  }
  return OpsId{static_cast<OpsId::value_type>(v - tors_.size())};
}

TorId DataCenterTopology::vertex_to_tor(std::size_t v) const {
  if (is_ops_vertex(v)) throw std::out_of_range("vertex_to_tor: not a ToR vertex");
  return TorId{static_cast<TorId::value_type>(v)};
}

alvc::graph::BipartiteGraph DataCenterTopology::vm_tor_graph(std::span<const VmId> group) const {
  alvc::graph::BipartiteGraph g(group.size(), tors_.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    for_each_tor_of_vm(group[i], [&](TorId t) {
      if (!tors_[t.index()].failed) g.add_edge(i, t.index());  // a dead ToR covers nobody
    });
  }
  return g;
}

alvc::graph::BipartiteGraph DataCenterTopology::tor_ops_graph() const {
  alvc::graph::BipartiteGraph g(tors_.size(), opss_.size());
  for (const auto& t : tors_) {
    if (t.failed) continue;
    for (std::size_t i = 0; i < t.uplinks.size(); ++i) {
      const OpsId ops = t.uplinks[i];
      if (opss_[ops.index()].failed || (t.failed_uplinks != 0 && t.uplink_cut[i] != 0)) continue;
      g.add_edge(t.id.index(), ops.index());
    }
  }
  return g;
}

}  // namespace alvc::topology
