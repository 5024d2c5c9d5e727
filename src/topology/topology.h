// The hybrid data-center topology (paper Fig. 2).
//
// Owns all elements (servers, VMs, ToRs, OPSs) and the physical links
// between them, and exposes the two derived views the rest of the system
// needs:
//   * a unified switch-level Graph (ToRs + OPSs) for routing, where vertex
//     indices are ToRs first then OPSs;
//   * bipartite VM->ToR and ToR->OPS graphs for AL construction.
//
// Invariant: ids are dense (id.value() indexes the owning vector).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite.h"
#include "graph/graph.h"
#include "topology/elements.h"
#include "util/error.h"
#include "util/id_set.h"

namespace alvc::topology {

class DataCenterTopology {
 public:
  DataCenterTopology() = default;
  // The switch-graph cache is per-object state, not topology data: copies
  // and moves transfer the elements and the pending footprint writes and
  // start with a cold cache.
  DataCenterTopology(const DataCenterTopology& other);
  DataCenterTopology& operator=(const DataCenterTopology& other);
  DataCenterTopology(DataCenterTopology&& other) noexcept;
  DataCenterTopology& operator=(DataCenterTopology&& other) noexcept;
  ~DataCenterTopology() = default;

  // ---- construction (used by TopologyBuilder and tests) ----

  /// Adds a ToR switch; returns its id.
  TorId add_tor(double port_bandwidth_gbps = 10.0);
  /// Adds a server under `tor`. Throws std::out_of_range on bad tor.
  ServerId add_server(TorId tor, const Resources& capacity);
  /// Adds a VM on `server` with a service label.
  VmId add_vm(ServerId server, ServiceId service, const Resources& demand = {});
  /// Adds an optical switch; optoelectronic ones get compute capacity.
  OpsId add_ops(bool optoelectronic = false, const Resources& compute = {},
                double port_bandwidth_gbps = 100.0);
  /// Connects a ToR to an OPS (the electronic/optical boundary link).
  void connect_tor_ops(TorId tor, OpsId ops);
  /// Connects two OPSs in the optical core.
  void connect_ops_ops(OpsId a, OpsId b);

  /// Migrates a VM to another server (live migration / churn events).
  /// Throws std::out_of_range on bad ids.
  void move_vm(VmId vm, ServerId new_server);

  /// Adds a secondary ToR homing to a server (multi-homed machines,
  /// Fig. 4). No-op if already homed to `tor`.
  void add_server_homing(ServerId server, TorId tor);

  // ---- failure injection ----
  //
  // Every setter validates its ids and returns kInvalidArgument instead of
  // throwing: failure handling must be total, a bad id from a fault script
  // must never take the control plane down. Failed elements (and links)
  // disappear from the switch graph and the bipartite AL-construction views
  // until repaired. The switch-graph setters patch a built graph in place,
  // touching only the flipped element's own links (O(degree)); they never
  // force a full rebuild.

  /// Marks an OPS failed (or repaired).
  alvc::util::Status set_ops_failed(OpsId ops, bool failed);
  /// Marks a ToR failed (or repaired). A failed ToR strands its rack.
  alvc::util::Status set_tor_failed(TorId tor, bool failed);
  /// Marks a server failed (or repaired).
  alvc::util::Status set_server_failed(ServerId server, bool failed);
  /// Fails (or repairs) one ToR-OPS link. kNotFound when the link does not
  /// exist. Both endpoints stay up; only the cable is cut.
  alvc::util::Status set_link_failed(TorId tor, OpsId ops, bool failed);

  /// Usable = exists and not failed.
  [[nodiscard]] bool ops_usable(OpsId ops) const { return !this->ops(ops).failed; }
  [[nodiscard]] bool tor_usable(TorId tor) const { return !this->tor(tor).failed; }
  [[nodiscard]] bool server_usable(ServerId server) const { return !this->server(server).failed; }
  /// Raw link flag (ignores endpoint state). A ToR with no cut uplink
  /// answers without searching its uplinks.
  [[nodiscard]] bool link_failed(TorId tor, OpsId ops) const {
    const TorSwitch& t = this->tor(tor);
    if (t.failed_uplinks == 0) return false;
    const auto it = std::find(t.uplinks.begin(), t.uplinks.end(), ops);
    return it != t.uplinks.end() &&
           t.uplink_cut[static_cast<std::size_t>(it - t.uplinks.begin())] != 0;
  }
  /// True when the ToR-OPS link can carry traffic: both endpoints usable and
  /// the link itself up. Does not check that the link exists.
  [[nodiscard]] bool link_usable(TorId tor, OpsId ops) const {
    return tor_usable(tor) && ops_usable(ops) && !link_failed(tor, ops);
  }
  /// Visits the OPSs `tor` can actually reach right now (uplinks whose far
  /// end is up and whose link is intact), in uplink order, until `pred`
  /// returns true; returns whether it did. Visits nothing for a failed ToR.
  /// Allocation-free: the fault handlers probe this on every repair.
  template <typename Pred>
  bool any_usable_uplink(TorId tor, Pred&& pred) const {
    const TorSwitch& t = this->tor(tor);
    if (t.failed) return false;
    for (std::size_t i = 0; i < t.uplinks.size(); ++i) {
      const OpsId ops = t.uplinks[i];
      if (opss_[ops.index()].failed || (t.failed_uplinks != 0 && t.uplink_cut[i] != 0)) continue;
      if (pred(ops)) return true;
    }
    return false;
  }
  /// True when `tor` is up and at least one of its uplinks can carry traffic.
  [[nodiscard]] bool has_usable_uplink(TorId tor) const {
    return any_usable_uplink(tor, [](OpsId) { return true; });
  }

  // ---- element access ----

  [[nodiscard]] std::size_t server_count() const noexcept { return servers_.size(); }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] std::size_t tor_count() const noexcept { return tors_.size(); }
  [[nodiscard]] std::size_t ops_count() const noexcept { return opss_.size(); }

  [[nodiscard]] const Server& server(ServerId id) const { return servers_.at(id.index()); }
  [[nodiscard]] const Vm& vm(VmId id) const { return vms_.at(id.index()); }
  [[nodiscard]] const TorSwitch& tor(TorId id) const { return tors_.at(id.index()); }
  [[nodiscard]] const OpticalSwitch& ops(OpsId id) const { return opss_.at(id.index()); }

  [[nodiscard]] std::span<const Server> servers() const noexcept { return servers_; }
  [[nodiscard]] std::span<const Vm> vms() const noexcept { return vms_; }
  [[nodiscard]] std::span<const TorSwitch> tors() const noexcept { return tors_; }
  [[nodiscard]] std::span<const OpticalSwitch> opss() const noexcept { return opss_; }

  /// The primary ToR a VM hangs off (via its server's rack).
  [[nodiscard]] TorId tor_of_vm(VmId id) const { return server(vm(id).server).tor; }

  /// Number of distinct service groups: one past the highest service id any
  /// VM carries (service ids are dense by convention). 0 for an empty
  /// topology. Callers that size per-service tables use this instead of
  /// doing id arithmetic themselves (alvc_lint `index-arithmetic`).
  [[nodiscard]] std::size_t service_count() const;

  /// Visits the ToRs a VM can reach (primary first, then secondary
  /// homings) until `pred` returns true; returns whether it did.
  /// Allocation-free, unlike collecting the homings into a vector.
  template <typename Pred>
  bool any_tor_of_vm(VmId id, Pred&& pred) const {
    const Server& s = server(vm(id).server);
    if (pred(s.tor)) return true;
    for (TorId t : s.secondary_tors) {
      if (pred(t)) return true;
    }
    return false;
  }
  /// Calls `visit` on every ToR a VM can reach, in any_tor_of_vm's order.
  template <typename Visit>
  void for_each_tor_of_vm(VmId id, Visit&& visit) const {
    any_tor_of_vm(id, [&](TorId t) {
      visit(t);
      return false;
    });
  }

  // ---- derived graph views ----

  /// Switch-level graph over ToRs and OPSs. Vertex layout:
  /// [0, tor_count) are ToRs, [tor_count, tor_count + ops_count) are OPSs.
  /// Its edges are every physical ToR-OPS and OPS-OPS link (each core link
  /// once), with stable ids; links with a failed endpoint or a cut cable
  /// are dead edges, so neighbors() and edge_count() see only live links
  /// while edges() lists all of them. Built in full lazily after structural
  /// changes (element adds, connects, copy/assign); failure flips patch
  /// link liveness in place. A plain lazy cache: the first call after a
  /// structural change builds it, so a topology is not safe to share
  /// across threads.
  [[nodiscard]] const alvc::graph::Graph& switch_graph() const;
  [[nodiscard]] std::size_t tor_vertex(TorId id) const { return id.index(); }
  [[nodiscard]] std::size_t ops_vertex(OpsId id) const { return tors_.size() + id.index(); }
  [[nodiscard]] bool is_ops_vertex(std::size_t v) const noexcept { return v >= tors_.size(); }
  [[nodiscard]] Domain vertex_domain(std::size_t v) const noexcept {
    return is_ops_vertex(v) ? Domain::kOptical : Domain::kElectronic;
  }
  [[nodiscard]] OpsId vertex_to_ops(std::size_t v) const;
  [[nodiscard]] TorId vertex_to_tor(std::size_t v) const;

  /// Bipartite VM->ToR graph restricted to `group` (left index i is
  /// group[i]), one edge per reachable ToR (primary + secondary homings);
  /// the AL builder's first-stage input.
  [[nodiscard]] alvc::graph::BipartiteGraph vm_tor_graph(std::span<const VmId> group) const;

  /// Bipartite ToR->OPS graph over all ToRs and OPSs.
  [[nodiscard]] alvc::graph::BipartiteGraph tor_ops_graph() const;

  // ---- mutation epoch ----
  //
  // A monotone counter bumped by every mutator (element adds, VM moves,
  // failure flags, link cuts, assignment). Derived-state caches (the
  // orchestrator's route cache) compare epochs instead of flushing: an
  // unchanged epoch proves the topology — and, via bump_mutation_epoch,
  // the abstraction layers built over it — has not moved since the cached
  // value was validated.

  /// Current mutation epoch.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept { return mutation_epoch_; }
  /// Advances the epoch. Public so owners of routing-relevant DERIVED
  /// state (ClusterManager, whose AL membership changes alter slice
  /// subgraphs without touching any topology element) can invalidate
  /// epoch-versioned caches the same way a topology mutation does.
  void bump_mutation_epoch() noexcept { ++mutation_epoch_; }

  // ---- pending footprint writes ----
  //
  // A ToR's footprint is what an AL build over VMs homed at it reads: the
  // ToR's flag, its uplinks with their link flags and far-end OPS flags,
  // the core links between those OPSs and the homings of the servers
  // under it. Every writer of that state lists the ToRs it touches in one
  // pending list: set_tor_failed and set_link_failed the ToR,
  // connect_tor_ops the link's ToR, set_ops_failed every ToR wired to the
  // OPS, connect_ops_ops every ToR wired to its first OPS (a core link
  // matters only between two OPSs of one AL, both wired to its home
  // ToRs), move_vm the source server's ToR and add_server_homing the
  // server's primary ToR (a VM's home ToRs always include its server's
  // primary ToR). So a ToR missing from the list has an unchanged
  // footprint since the list was last cleared. A listed ToR may be
  // unchanged (flip and flip back); a changed one is never missed.
  //
  // The list holds each ToR at most once, so it never outgrows
  // tor_count() and, once grown, a write allocates nothing. It has one
  // reader, the ClusterManager over this topology, which clears it after
  // each read.

  /// ToRs whose footprint a writer touched since the last clear.
  [[nodiscard]] std::span<const TorId> pending_footprint_tors() const noexcept {
    return footprint_pending_.members();
  }
  void clear_pending_footprint_tors() noexcept;

 private:
  /// Builds the switch graph over every physical link and marks the cache
  /// valid.
  void build_switch_graph() const;

  /// Re-derives the liveness of switch vertex `v`'s links from the element
  /// and link flags, patching a built graph in place. A cold cache needs
  /// nothing: the next full build reads the flags.
  void refresh_switch_links(std::size_t v);

  /// True when a switch-graph link can carry traffic right now.
  [[nodiscard]] bool switch_link_live(const alvc::graph::Edge& link) const;

  /// Drops the lazy switch-graph cache AND advances the mutation epoch:
  /// structural changes invalidate the graph and every epoch-keyed derived
  /// cache. Mutators that do not change the graph's shape (failure flags,
  /// server state, VM moves) bump the epoch directly instead.
  void invalidate_cache() noexcept {
    switch_graph_valid_ = false;
    bump_mutation_epoch();
  }

  std::vector<Server> servers_;
  std::vector<Vm> vms_;
  std::vector<TorSwitch> tors_;
  std::vector<OpticalSwitch> opss_;
  alvc::util::IdSet<TorId> footprint_pending_;
  /// refresh_switch_links' copy of a vertex's link ids, reused across
  /// calls so a failure flip allocates nothing.
  std::vector<std::size_t> link_scratch_;

  mutable alvc::graph::Graph switch_graph_;
  mutable bool switch_graph_valid_ = false;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace alvc::topology
