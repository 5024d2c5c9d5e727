// Cluster lifecycle and churn handling.
//
// ClusterManager owns the set of Virtual Clusters over one topology and is
// the only writer of OpsOwnership, so the paper's exclusivity constraint
// ("one OPS cannot be part of two ALs") holds globally by construction.
// Every AL change lands through one private writer, set_layer, which moves
// OPS ownership, the ToR index and the topology's mutation epoch with it.
//
// Churn events (VM join / leave / migrate) are first-class because the
// authors' companion work (ref [14]) argues AL-VC's selling point is LOW
// NETWORK UPDATE COST: a VM arriving under an already-covered ToR costs one
// rule install at that ToR, while only rack-set changes touch the AL. Every
// mutation returns an UpdateCost breakdown that the ABL1 bench aggregates.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/virtual_cluster.h"
#include "topology/topology.h"
#include "util/error.h"
#include "util/id_set.h"

namespace alvc::test {
struct ReferencePlane;
}  // namespace alvc::test

namespace alvc::util {
class Executor;
}  // namespace alvc::util

namespace alvc::cluster {

using alvc::util::Expected;
using alvc::util::ServerId;
using alvc::util::Status;

/// Control-plane work done by one churn/build event.
struct UpdateCost {
  std::size_t flow_rules = 0;   // match/action rule installs or removals
  std::size_t tor_changes = 0;  // ToRs added to / removed from the AL's ToR set
  std::size_t ops_changes = 0;  // OPSs acquired or released by the AL

  UpdateCost& operator+=(const UpdateCost& other) noexcept {
    flow_rules += other.flow_rules;
    tor_changes += other.tor_changes;
    ops_changes += other.ops_changes;
    return *this;
  }
  [[nodiscard]] std::size_t total() const noexcept {
    return flow_rules + tor_changes + ops_changes;
  }
};

/// Threading contract: the manager holds no mutex and is externally
/// synchronized — one writer at a time, no concurrent readers during a
/// write. Every entry point, build_all_clusters included, runs on the
/// caller's thread.
class ClusterManager {
 public:
  /// The manager keeps a reference to the topology; the topology must
  /// outlive it. VM migration mutates the topology through this reference.
  explicit ClusterManager(alvc::topology::DataCenterTopology& topo);

  // ---- cluster lifecycle ----

  /// Builds an AL for `group` with `builder`, acquires its OPSs, and
  /// registers the cluster. Fails (kInfeasible/kConflict) without side
  /// effects.
  [[nodiscard]] Expected<ClusterId> create_cluster(ServiceId service, std::span<const VmId> group,
                                                   const AlBuilder& builder);

  /// Convenience: one cluster per service label (paper Fig. 1), skipping
  /// empty groups. Returns the created ids; stops at the first failure and
  /// rolls back nothing (partial results are returned in the error-free
  /// case only).
  [[nodiscard]] Expected<std::vector<ClusterId>> create_clusters_by_service(
      const AlBuilder& builder);

  /// create_clusters_by_service under the `cluster.build_all_clusters`
  /// span, counting the non-empty groups in `cluster.build.groups`.
  /// `executor` is ignored: groups compete for OPSs, so each group's AL
  /// depends on the groups committed before it, and the serial build is
  /// the fastest at every measured scale. The parameter goes with the
  /// benchmark driver's executor (ROADMAP item 1).
  [[nodiscard]] Expected<std::vector<ClusterId>> build_all_clusters(
      const AlBuilder& builder, alvc::util::Executor* executor = nullptr);

  /// Releases the cluster's OPSs and forgets it.
  [[nodiscard]] Status destroy_cluster(ClusterId id);

  // ---- churn ----

  /// Adds a VM to an existing cluster, extending the AL if the VM's ToR is
  /// not yet covered. Returns the control-plane cost.
  [[nodiscard]] Expected<UpdateCost> add_vm(ClusterId id, VmId vm);

  /// Removes a VM; shrinks the ToR set (and releases now-unneeded OPSs)
  /// when the VM was the last cluster member behind its ToR.
  [[nodiscard]] Expected<UpdateCost> remove_vm(ClusterId id, VmId vm);

  /// Migrates a VM to another server (possibly another rack), updating the
  /// topology and the AL. Cost is the sum of the leave and join sides.
  [[nodiscard]] Expected<UpdateCost> migrate_vm(ClusterId id, VmId vm, ServerId new_server);

  /// Rebuilds a cluster's AL from scratch with `builder` and swaps it in if
  /// strictly smaller (churn inflates ALs over time; incremental updates
  /// are cheap but drift from the optimum). Returns the control-plane cost
  /// of the swap (rules for removed + added OPSs/ToRs), or a zero cost when
  /// the current AL is already as good.
  [[nodiscard]] Expected<UpdateCost> reoptimize_cluster(ClusterId id, const AlBuilder& builder);

  // ---- failure handling ----
  //
  // All handlers are idempotent: a second report of an element already in
  // the target state returns a zero cost with no side effects, so noisy
  // fault feeds cannot double-count repair work.
  //
  // Every AL-touching handler takes an optional `touched` list and appends
  // the id of each cluster whose AL it repaired or rebuilt (even when the
  // repair then failed or changed nothing) — the event's exact blast
  // radius, which the sharded control plane uses to scope its post-event
  // sweep to the affected chains instead of the whole population. A
  // restore pass leaves out the clusters its memo skips (see
  // restore_degraded_clusters).

  /// Reacts to an OPS failure: marks it failed in the topology, evicts it
  /// from the owning AL (if any), re-covers the ToRs that lost their only
  /// AL uplink, and re-establishes connectivity. Returns the repair cost
  /// (zero if the OPS was unowned). kInfeasible when the AL cannot be
  /// repaired — the cluster is left covering what it can and disconnected.
  [[nodiscard]] Expected<UpdateCost> handle_ops_failure(alvc::util::OpsId ops,
                                                        std::vector<ClusterId>* touched = nullptr);

  /// Reacts to a ToR failure: the rack is stranded, so every cluster whose
  /// AL contained the ToR drops it and re-runs the Fig. 4 cover pass (via
  /// `builder`) over its still-reachable members. Clusters whose rebuild is
  /// infeasible right now are left degraded, not destroyed.
  [[nodiscard]] Expected<UpdateCost> handle_tor_failure(alvc::util::TorId tor,
                                                        const AlBuilder& builder,
                                                        std::vector<ClusterId>* touched = nullptr);

  /// Marks a server failed. ALs are a switch-level construct, so no AL
  /// changes: the orchestrator owns relocating the VNFs that lived there.
  [[nodiscard]] Status handle_server_failure(ServerId server);

  /// Reacts to a single ToR-OPS link cut: re-covers the affected ToR in the
  /// cluster that uses it (the AL may need a different uplink OPS). Of the
  /// clusters whose AL contains `tor`, only the owner of `ops` and those
  /// degraded or disconnected are repaired and appended to `touched`; a
  /// healthy, connected AL without `ops` cannot be disturbed by the cut.
  /// kNotFound when the link does not exist.
  [[nodiscard]] Expected<UpdateCost> handle_link_failure(alvc::util::TorId tor,
                                                         alvc::util::OpsId ops,
                                                         std::vector<ClusterId>* touched = nullptr);

  /// Re-integrates a repaired OPS: it returns to the free pool and every
  /// degraded cluster gets one rebuild attempt with `builder`.
  [[nodiscard]] Expected<UpdateCost> handle_ops_recovery(alvc::util::OpsId ops,
                                                         const AlBuilder& builder,
                                                         std::vector<ClusterId>* touched = nullptr);
  /// Same, for a repaired ToR (its rack becomes reachable again).
  [[nodiscard]] Expected<UpdateCost> handle_tor_recovery(alvc::util::TorId tor,
                                                         const AlBuilder& builder,
                                                         std::vector<ClusterId>* touched = nullptr);
  /// Same, for a repaired ToR-OPS link.
  [[nodiscard]] Expected<UpdateCost> handle_link_recovery(alvc::util::TorId tor,
                                                          alvc::util::OpsId ops,
                                                          const AlBuilder& builder,
                                                          std::vector<ClusterId>* touched = nullptr);
  /// Clears a server's failed flag (no AL impact, mirror of failure).
  [[nodiscard]] Status handle_server_recovery(ServerId server);

  /// One rebuild attempt (with `builder`) for every degraded cluster, in
  /// ascending cluster id. Run after any capacity-restoring event. Walks
  /// the degraded-cluster index and rebuilds each AL in place, so the pass
  /// costs O(sum over degraded clusters of their group + AL), not
  /// O(clusters) or O(degraded x OPS pool) — the difference between a
  /// recovery event and a full control-plane scan at 10^5 clusters.
  ///
  /// A cluster whose rebuild provably changes nothing is skipped. When a
  /// rebuild read only the cluster's footprint (AlBuildResult::reads_local)
  /// and left it degraded, the manager keeps a memo of its home ToRs. A
  /// later rebuild reproduces the cluster exactly while the builder is the
  /// same and no write has reached the cluster's VMs, AL, connected flag,
  /// the footprint of a home ToR or the owner of an uplink OPS of one.
  /// Every such write lists the cluster as stale: the manager's own
  /// writers directly (note_write), the topology's footprint writers and
  /// OpsOwnership's owner changes through pending lists that the manager
  /// drains into the memos watching the ToRs they name. A degraded cluster
  /// without a memo is always listed, and a pass with another builder than
  /// the memos' lists every degraded cluster.
  ///
  /// So the pass drains the pending writes and rebuilds the listed
  /// clusters; a rebuild's drain wakes the newly listed clusters later in
  /// the walk. Every cluster left out is skipped, and the pass costs
  /// O(writes since the last drain + clusters listed), not O(degraded
  /// clusters). Only rebuilt clusters are appended to `touched`: a skipped
  /// cluster keeps its AL, and a recovery only revives hardware, so no
  /// chain of it can need a sweep. A skip bumps no mutation epoch.
  [[nodiscard]] Expected<UpdateCost> restore_degraded_clusters(
      const AlBuilder& builder, std::vector<ClusterId>* touched = nullptr);

  // ---- inspection ----

  [[nodiscard]] std::size_t cluster_count() const noexcept { return clusters_.size(); }
  [[nodiscard]] const VirtualCluster* find(ClusterId id) const;
  /// Live cluster with the lowest id serving `service` (the cluster every
  /// chain for that service provisions onto), or null. O(1) via the
  /// service index — at a million VMs the linear scan this replaces
  /// dominated every provision.
  [[nodiscard]] const VirtualCluster* find_by_service(alvc::util::ServiceId service) const;
  /// Cluster a VM currently belongs to (invalid id when unowned). O(1) via
  /// the owner index; the exclusivity invariant guarantees uniqueness.
  [[nodiscard]] ClusterId vm_owner(VmId vm) const noexcept;
  /// Clusters currently marked degraded, ascending. O(degraded) via the
  /// index restore_degraded_clusters walks.
  [[nodiscard]] std::vector<ClusterId> degraded_cluster_ids() const;
  /// Clusters whose AL contains `tor`, ascending. O(result) via the ToR
  /// index; the orchestrator uses it as the blast radius of server events
  /// (settled placements and routes never leave their cluster's slice, and
  /// slice membership of a server keys on its primary ToR).
  [[nodiscard]] std::vector<ClusterId> clusters_containing_tor(TorId tor) const;
  [[nodiscard]] std::vector<const VirtualCluster*> clusters() const;
  [[nodiscard]] const OpsOwnership& ownership() const noexcept { return ownership_; }
  [[nodiscard]] alvc::topology::DataCenterTopology& topology() noexcept { return *topo_; }
  [[nodiscard]] const alvc::topology::DataCenterTopology& topology() const noexcept {
    return *topo_;
  }

  /// Aggregate bandwidth the cluster's slice can pull through its live
  /// ToR-OPS uplinks: the sum over every intact slice-internal uplink of
  /// min(ToR port, OPS port). An upper bound on what any allocation may
  /// reserve inside the slice — the StateAuditor's per-slice capacity
  /// invariant checks reservations against it. 0 for unknown clusters.
  [[nodiscard]] double slice_uplink_capacity_gbps(ClusterId id) const;

  /// Checks every global invariant (ownership consistency, AL covers its
  /// group, no shared OPSs); used by tests and ABL benches.
  [[nodiscard]] std::vector<std::string> check_invariants() const;

 private:
  VirtualCluster* find_mutable(ClusterId id);
  /// create_clusters_by_service over already-grouped VMs (index = service).
  [[nodiscard]] Expected<std::vector<ClusterId>> create_clusters(
      const std::vector<std::vector<VmId>>& groups, const AlBuilder& builder);
  /// kConflict when any VM of `group` is already in a cluster.
  [[nodiscard]] Status check_group_free(std::span<const VmId> group) const;
  /// Extends `vc`'s AL to cover `tor`; returns the incremental cost.
  [[nodiscard]] Expected<UpdateCost> cover_tor(VirtualCluster& vc, alvc::util::TorId tor);
  /// Shrinks `vc` after `tor` lost its last VM, trimming a candidate copy
  /// and committing it once; returns the cost.
  UpdateCost uncover_tor(VirtualCluster& vc, alvc::util::TorId tor);
  /// Incremental repair: re-covers every AL ToR that lost its AL uplink and
  /// re-establishes connectivity, on a candidate copy. kInfeasible leaves
  /// the cluster degraded but internally consistent.
  [[nodiscard]] Expected<UpdateCost> repair_coverage(VirtualCluster& vc);
  /// Full best-effort rebuild over the cluster's still-reachable members.
  /// Never fails: an infeasible rebuild (or one that cannot reach every
  /// member) leaves/marks the cluster degraded instead.
  UpdateCost rebuild_cluster(VirtualCluster& vc, const AlBuilder& builder);
  [[nodiscard]] std::vector<ClusterId> sorted_cluster_ids() const;
  /// The one writer of an AL: commits `layer` and `connected` as `vc`'s AL
  /// in one step. It acquires `layer`'s OPSs, releases the ones the old AL
  /// held and `layer` drops, keeps the ToR -> cluster index in step with
  /// the ToR set (check_invariants cross-checks) and bumps the topology's
  /// mutation epoch when the AL changed. kConflict, when some OPS of
  /// `layer` belongs to another cluster, changes nothing. Only OPSs whose
  /// owner changes are listed as pending owner changes, so a commit of the
  /// AL the cluster already holds lists nothing and bumps no epoch. Costs
  /// O(|old AL| x |new AL|) compares and O(|old ToRs| + |new ToRs|) index
  /// edits, none when the ToR set is unchanged. The failure paths that
  /// keep the incumbent AL refresh only VirtualCluster::connected, in
  /// place.
  [[nodiscard]] Status set_layer(VirtualCluster& vc, AbstractionLayer layer, bool connected);
  /// The ToR index's list for `tor` (empty for a ToR no AL ever held).
  [[nodiscard]] std::span<const ClusterId> tor_cluster_ids(TorId tor) const noexcept;
  /// Records `owner` (possibly invalid = none) for `vm` in the owner index,
  /// growing it when the topology gained VMs since construction.
  void set_vm_owner(VmId vm, ClusterId owner);
  /// The one writer of VirtualCluster::degraded: keeps the flag and the
  /// degraded-cluster index in lockstep (check_invariants cross-checks),
  /// and drops the rebuild memo of a cluster that stops being degraded.
  void set_degraded(VirtualCluster& vc, bool degraded);
  /// Writes VirtualCluster::connected outside set_layer, noting a change.
  void set_connected(VirtualCluster& vc, bool connected);
  /// Lists a degraded `vc` as stale: its VMs, AL or connected flag
  /// changed, or it has no memo. A healthy cluster has no memo to outdate
  /// and is listed when it turns degraded.
  void note_write(const VirtualCluster& vc);
  /// Adds `id` to the listing. Inside a restore pass, a cluster the walk
  /// has not reached yet is also queued.
  void list_stale(ClusterId id);
  /// Lists every memo'd cluster watching a ToR that a pending footprint
  /// write names or that is wired to an OPS with a pending owner change,
  /// then clears both pending lists.
  void drain_writes();
  /// Makes `serial` the builder the unlisted memos were recorded with,
  /// listing every degraded cluster when it is another than before.
  void use_builder(std::uint64_t serial);
  /// True when every member of `vc`'s AL lies in its footprint: ToRs are
  /// home ToRs of its VMs, OPSs are uplinks of those ToRs.
  [[nodiscard]] bool layer_in_footprint(const VirtualCluster& vc);
  /// The distinct home ToRs of `vc`'s VMs, ascending, in home_tors_.
  std::span<const TorId> collect_home_tors(const VirtualCluster& vc);
  /// Drains the pending writes, then records (`local`) the memo of `vc`'s
  /// rebuild just done and unlists `vc`, or drops the memo and lists it.
  void remember_rebuild(const VirtualCluster& vc, const AlBuilder& builder, bool local);
  /// Drops `id`'s memo, if any, its entries in the watch index and its
  /// listing.
  void forget_rebuild(ClusterId id);
  /// Queues `id` on the restore pass's worklist unless this pass did.
  void wake(ClusterId id);

  alvc::topology::DataCenterTopology* topo_;
  OpsOwnership ownership_;
  std::unordered_map<ClusterId, VirtualCluster> clusters_;
  /// vm.index() -> owning cluster (invalid when unowned). Kept in step at
  /// the two membership-changing sites (create_cluster/destroy_cluster and
  /// add_vm/remove_vm; migration never changes membership).
  std::vector<ClusterId> vm_owner_;
  /// service value -> live cluster ids serving it, ascending. front() is
  /// what find_by_service returns.
  std::unordered_map<alvc::util::ServiceId::value_type, std::vector<ClusterId>> by_service_;
  /// Ids of clusters with the degraded flag set, ascending (std::set), so
  /// restore passes and scoped sweeps iterate them without an O(clusters)
  /// scan. Maintained solely by set_degraded and destroy_cluster.
  std::set<ClusterId> degraded_ids_;
  /// tor.index() -> ids of the clusters whose AL contains that ToR,
  /// ascending: the blast radius of a ToR or server event, and the clusters
  /// a link event filters, without an O(clusters) scan. Maintained solely
  /// by set_layer.
  std::vector<std::vector<ClusterId>> tor_clusters_;
  /// Rebuild memos of degraded clusters: the home ToRs (collect_home_tors)
  /// their last local rebuild read. Looked up by id only (never iterated).
  /// Written by remember_rebuild, dropped by forget_rebuild (from
  /// set_degraded, remember_rebuild and destroy_cluster).
  std::unordered_map<ClusterId, std::vector<TorId>> rebuild_memos_;
  /// tor.index() -> ids of the clusters whose memo lists that ToR among
  /// its home ToRs, unordered: the clusters a write at the ToR makes
  /// stale. Kept in step with rebuild_memos_ by remember_rebuild and
  /// forget_rebuild.
  std::vector<std::vector<ClusterId>> tor_watchers_;
  /// The listing: the degraded clusters whose memo a write may have
  /// outdated, and every degraded cluster without a memo. The next restore
  /// pass rebuilds exactly these; remember_rebuild and forget_rebuild
  /// unlist.
  alvc::util::IdSet<ClusterId> stale_;
  /// AlBuilder::serial() every unlisted memo was recorded with.
  std::uint64_t memo_builder_ = 0;
  /// The restore pass's worklist, a min-heap of ids, the number of the
  /// pass that last queued each id (woken_in_[id.index()]), and the id the
  /// running pass's walk has reached (invalid outside a pass).
  std::vector<ClusterId> wake_heap_;
  std::vector<std::uint64_t> woken_in_;
  std::uint64_t pass_count_ = 0;
  ClusterId walk_at_ = ClusterId::invalid();
  /// handle_link_failure's copy of the ToR's index list, reused.
  std::vector<ClusterId> tor_ids_scratch_;
  /// collect_home_tors's output, reused across calls.
  std::vector<TorId> home_tors_;
  /// Traversal state every AL build, repair and connectivity check of this
  /// manager runs on (graph/scratch.h reuse contract), so a repair costs
  /// O(the cluster's footprint), not O(switch graph).
  AlBuildScratch scratch_;
  ClusterId::value_type next_id_ = 0;

  friend struct alvc::test::ReferencePlane;
};

}  // namespace alvc::cluster
