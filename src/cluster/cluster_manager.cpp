#include "cluster/cluster_manager.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "cluster/service.h"
#include "telemetry/telemetry.h"

namespace alvc::cluster {

using alvc::topology::DataCenterTopology;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::TorId;

namespace {

/// Control-plane cost of replacing AL `from` with `to`: one rule per OPS
/// and per ToR in their symmetric difference.
UpdateCost layer_swap_cost(const AbstractionLayer& from, const AbstractionLayer& to) {
  UpdateCost cost;
  for (alvc::util::OpsId o : from.opss) {
    if (!to.contains_ops(o)) cost.ops_changes += 1;
  }
  for (alvc::util::OpsId o : to.opss) {
    if (!from.contains_ops(o)) cost.ops_changes += 1;
  }
  for (TorId t : from.tors) {
    if (!to.contains_tor(t)) cost.tor_changes += 1;
  }
  for (TorId t : to.tors) {
    if (!from.contains_tor(t)) cost.tor_changes += 1;
  }
  cost.flow_rules = cost.ops_changes + cost.tor_changes;
  return cost;
}

}  // namespace

ClusterManager::ClusterManager(DataCenterTopology& topo)
    : topo_(&topo),
      ownership_(topo.ops_count()),
      vm_owner_(topo.vm_count(), ClusterId::invalid()),
      tor_clusters_(topo.tor_count()) {}

Status ClusterManager::set_layer(VirtualCluster& vc, AbstractionLayer layer, bool connected) {
  // acquire checks every OPS before it writes one, so a conflict leaves the
  // registry, the index and the cluster as they were.
  if (auto status = ownership_.acquire(layer.opss, vc.id); !status.is_ok()) return status;
  for (const alvc::util::OpsId o : vc.layer.opss) {
    if (!layer.contains_ops(o)) ownership_.release({&o, 1}, vc.id);
  }
  const bool changed = layer.opss != vc.layer.opss || layer.tors != vc.layer.tors;
  if (layer.tors != vc.layer.tors) {
    for (TorId t : vc.layer.tors) std::erase(tor_clusters_[t.index()], vc.id);
    for (TorId t : layer.tors) {
      if (t.index() >= tor_clusters_.size()) {
        // The topology gained ToRs since construction; track them.
        tor_clusters_.resize(topo_->tor_count());
      }
      auto& ids = tor_clusters_[t.index()];
      ids.insert(std::upper_bound(ids.begin(), ids.end(), vc.id), vc.id);
    }
  }
  if (changed || vc.connected != connected) note_write(vc);
  vc.layer = std::move(layer);
  vc.connected = connected;
  // AL membership defines slice subgraphs, so epoch-versioned route caches
  // must see every change to it even though no topology element changed.
  // An unchanged AL needs no bump: the route cache matches uncached
  // routing at any epoch.
  if (changed) topo_->bump_mutation_epoch();
  return Status::ok();
}

std::span<const ClusterId> ClusterManager::tor_cluster_ids(TorId tor) const noexcept {
  if (tor.index() >= tor_clusters_.size()) return {};
  return tor_clusters_[tor.index()];
}

void ClusterManager::set_vm_owner(VmId vm, ClusterId owner) {
  const std::size_t slot = vm.index();
  if (slot >= vm_owner_.size()) {
    // The topology gained VMs since construction; track it (sizing, not
    // vertex-layout arithmetic).
    vm_owner_.resize(std::max(topo_->vm_count(), slot + 1), ClusterId::invalid());
  }
  vm_owner_[slot] = owner;
}

ClusterId ClusterManager::vm_owner(VmId vm) const noexcept {
  return vm.index() < vm_owner_.size() ? vm_owner_[vm.index()] : ClusterId::invalid();
}

void ClusterManager::set_degraded(VirtualCluster& vc, bool degraded) {
  if (vc.degraded && !degraded) forget_rebuild(vc.id);
  const bool newly = !vc.degraded && degraded;
  vc.degraded = degraded;  // alvc-lint: allow(health-writer)
  // A newly degraded cluster has no memo: the next pass must rebuild it.
  if (newly) note_write(vc);
  if (degraded) {
    degraded_ids_.insert(vc.id);
  } else {
    degraded_ids_.erase(vc.id);
  }
}

void ClusterManager::set_connected(VirtualCluster& vc, bool connected) {
  if (vc.connected != connected) note_write(vc);
  vc.connected = connected;
}

void ClusterManager::note_write(const VirtualCluster& vc) {
  // Only degraded clusters have memos; a healthy one that turns degraded
  // is listed then.
  if (vc.degraded) list_stale(vc.id);
}

void ClusterManager::list_stale(ClusterId id) {
  stale_.insert(id);
  // The pass walks in ascending id: a cluster above the one it has reached
  // is checked in this pass.
  if (walk_at_.valid() && id > walk_at_) wake(id);
}

void ClusterManager::drain_writes() {
  const auto list_watchers = [&](TorId t) {
    if (t.index() >= tor_watchers_.size()) return;
    for (ClusterId id : tor_watchers_[t.index()]) list_stale(id);
  };
  for (TorId t : topo_->pending_footprint_tors()) list_watchers(t);
  topo_->clear_pending_footprint_tors();
  // A memo's footprint holds the owner of every uplink of its home ToRs;
  // the ToRs an OPS uplinks are exactly its tor_links.
  for (alvc::util::OpsId o : ownership_.pending_owner_changes()) {
    for (TorId t : topo_->ops(o).tor_links) list_watchers(t);
  }
  ownership_.clear_pending_owner_changes();
}

void ClusterManager::use_builder(std::uint64_t serial) {
  if (serial == memo_builder_) return;
  // Every memo was recorded with another builder than the one now in use.
  for (ClusterId id : degraded_ids_) list_stale(id);
  memo_builder_ = serial;
}

std::vector<ClusterId> ClusterManager::degraded_cluster_ids() const {
  return {degraded_ids_.begin(), degraded_ids_.end()};
}

Status ClusterManager::check_group_free(std::span<const VmId> group) const {
  // The owner index makes this O(|group|); exclusivity guarantees the
  // owner it reports is the one the old full scan would have found.
  for (VmId vm : group) {
    const ClusterId owner = vm_owner(vm);
    if (owner.valid()) {
      return Error{ErrorCode::kConflict, "VM " + std::to_string(vm.value()) +
                                             " already in cluster " + std::to_string(owner.value())};
    }
  }
  return Status::ok();
}

Expected<ClusterId> ClusterManager::create_cluster(ServiceId service, std::span<const VmId> group,
                                                   const AlBuilder& builder) {
  ALVC_SPAN(span, "cluster.create_cluster");
  if (auto status = check_group_free(group); !status.is_ok()) return status.error();
  auto built = builder.build(*topo_, group, ownership_, ClusterId::invalid(), scratch_);
  if (!built) return built.error();
  const ClusterId id{next_id_++};
  VirtualCluster vc{.id = id, .service = service, .vms = {group.begin(), group.end()}};
  if (auto status = set_layer(vc, std::move(built->layer), built->connected); !status.is_ok()) {
    return status.error();  // defensive: builder returned a non-free OPS
  }
  clusters_.emplace(id, std::move(vc));
  for (VmId vm : group) set_vm_owner(vm, id);
  auto& peers = by_service_[service.value()];
  peers.insert(std::upper_bound(peers.begin(), peers.end(), id), id);
  return id;
}

Expected<std::vector<ClusterId>> ClusterManager::create_clusters_by_service(
    const AlBuilder& builder) {
  return create_clusters(group_vms_by_service(*topo_), builder);
}

Expected<std::vector<ClusterId>> ClusterManager::create_clusters(
    const std::vector<std::vector<VmId>>& groups, const AlBuilder& builder) {
  std::vector<ClusterId> ids;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    auto id = create_cluster(ServiceId{static_cast<ServiceId::value_type>(s)}, groups[s], builder);
    if (!id) return id.error();
    ids.push_back(*id);
  }
  return ids;
}

Expected<std::vector<ClusterId>> ClusterManager::build_all_clusters(
    const AlBuilder& builder, alvc::util::Executor* /*executor*/) {
  ALVC_SPAN(span, "cluster.build_all_clusters");
  const auto groups = group_vms_by_service(*topo_);
  ALVC_COUNT_N("cluster.build.groups",
               std::count_if(groups.begin(), groups.end(),
                             [](const std::vector<VmId>& group) { return !group.empty(); }));
  return create_clusters(groups, builder);
}

Status ClusterManager::destroy_cluster(ClusterId id) {
  const auto it = clusters_.find(id);
  if (it == clusters_.end()) {
    return Error{ErrorCode::kNotFound, "no cluster " + std::to_string(id.value())};
  }
  ALVC_IGNORE_STATUS(set_layer(it->second, {}, /*connected=*/true),
                     "an empty AL acquires nothing, so it cannot conflict");
  for (VmId vm : it->second.vms) set_vm_owner(vm, ClusterId::invalid());
  const auto peers = by_service_.find(it->second.service.value());
  if (peers != by_service_.end()) {
    std::erase(peers->second, id);
    if (peers->second.empty()) by_service_.erase(peers);
  }
  degraded_ids_.erase(id);
  forget_rebuild(id);
  clusters_.erase(it);
  return Status::ok();
}

Expected<UpdateCost> ClusterManager::add_vm(ClusterId id, VmId vm) {
  VirtualCluster* vc = find_mutable(id);
  if (vc == nullptr) return Error{ErrorCode::kNotFound, "no cluster " + std::to_string(id.value())};
  if (vc->contains_vm(vm)) {
    return Error{ErrorCode::kInvalidArgument, "VM already in this cluster"};
  }
  if (const ClusterId owner = vm_owner(vm); owner.valid() && owner != id) {
    return Error{ErrorCode::kConflict, "VM belongs to another cluster"};
  }
  UpdateCost cost;
  const bool covered =
      topo_->any_tor_of_vm(vm, [&](TorId t) { return vc->layer.contains_tor(t); });
  if (!covered) {
    auto extend = cover_tor(*vc, topo_->tor_of_vm(vm));
    if (!extend) return extend.error();
    cost += *extend;
  }
  vc->vms.push_back(vm);
  note_write(*vc);
  set_vm_owner(vm, id);
  cost.flow_rules += 1;  // install the VM's rule at its ToR
  ALVC_COUNT("cluster.churn.vm_adds");
  ALVC_OBSERVE("cluster.churn.update_cost", 0, 32, 32, cost.total());
  return cost;
}

Expected<UpdateCost> ClusterManager::remove_vm(ClusterId id, VmId vm) {
  VirtualCluster* vc = find_mutable(id);
  if (vc == nullptr) return Error{ErrorCode::kNotFound, "no cluster " + std::to_string(id.value())};
  const auto it = std::find(vc->vms.begin(), vc->vms.end(), vm);
  if (it == vc->vms.end()) return Error{ErrorCode::kNotFound, "VM not in cluster"};
  const TorId tor = topo_->tor_of_vm(vm);
  vc->vms.erase(it);
  note_write(*vc);
  set_vm_owner(vm, ClusterId::invalid());
  UpdateCost cost;
  cost.flow_rules += 1;  // remove the VM's rule
  // Shrink only when no remaining member reaches the ToR by ANY homing, so
  // multi-homed coverage never breaks.
  const bool tor_still_used = std::any_of(vc->vms.begin(), vc->vms.end(), [&](VmId other) {
    return topo_->any_tor_of_vm(other, [&](TorId t) { return t == tor; });
  });
  if (!tor_still_used && vc->layer.contains_tor(tor)) {
    cost += uncover_tor(*vc, tor);
  }
  ALVC_COUNT("cluster.churn.vm_removes");
  ALVC_OBSERVE("cluster.churn.update_cost", 0, 32, 32, cost.total());
  return cost;
}

Expected<UpdateCost> ClusterManager::migrate_vm(ClusterId id, VmId vm, ServerId new_server) {
  VirtualCluster* vc = find_mutable(id);
  if (vc == nullptr) return Error{ErrorCode::kNotFound, "no cluster " + std::to_string(id.value())};
  if (!vc->contains_vm(vm)) return Error{ErrorCode::kNotFound, "VM not in cluster"};
  if (new_server.index() >= topo_->server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad target server"};
  }
  const TorId old_tor = topo_->tor_of_vm(vm);
  const TorId new_tor = topo_->server(new_server).tor;
  UpdateCost cost;
  if (old_tor == new_tor) {
    topo_->move_vm(vm, new_server);
    return cost;  // same rack: no network update at all
  }
  // Join side first so a cover failure leaves everything untouched.
  if (!vc->layer.contains_tor(new_tor)) {
    auto extend = cover_tor(*vc, new_tor);
    if (!extend) return extend.error();
    cost += *extend;
  }
  topo_->move_vm(vm, new_server);
  cost.flow_rules += 2;  // remove rule at old ToR, install at new ToR
  const bool old_tor_still_used = std::any_of(vc->vms.begin(), vc->vms.end(), [&](VmId other) {
    return topo_->any_tor_of_vm(other, [&](TorId t) { return t == old_tor; });
  });
  if (!old_tor_still_used && vc->layer.contains_tor(old_tor)) {
    cost += uncover_tor(*vc, old_tor);
  }
  ALVC_COUNT("cluster.churn.vm_migrations");
  ALVC_OBSERVE("cluster.churn.update_cost", 0, 32, 32, cost.total());
  return cost;
}

Expected<UpdateCost> ClusterManager::reoptimize_cluster(ClusterId id, const AlBuilder& builder) {
  VirtualCluster* vc = find_mutable(id);
  if (vc == nullptr) return Error{ErrorCode::kNotFound, "no cluster " + std::to_string(id.value())};
  if (vc->vms.empty()) return UpdateCost{};

  // The build may keep any OPS this cluster holds.
  auto rebuilt = builder.build(*topo_, vc->vms, ownership_, id, scratch_);
  if (!rebuilt) return rebuilt.error();
  if (rebuilt->layer.opss.size() >= vc->layer.opss.size()) {
    return UpdateCost{};  // no improvement: keep the incumbent AL
  }
  // Rules: remove what leaves, add what arrives (symmetric difference).
  const UpdateCost cost = layer_swap_cost(vc->layer, rebuilt->layer);
  if (auto status = set_layer(*vc, std::move(rebuilt->layer), rebuilt->connected);
      !status.is_ok()) {
    return status.error();
  }
  return cost;
}

Expected<UpdateCost> ClusterManager::handle_ops_failure(alvc::util::OpsId ops,
                                                        std::vector<ClusterId>* touched) {
  if (ops.index() >= topo_->ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (!topo_->ops_usable(ops)) return UpdateCost{};  // already failed: nothing new to repair
  ALVC_SPAN(span, "cluster.handle_ops_failure");
  ALVC_COUNT("cluster.failures.ops");
  const ClusterId owner = ownership_.owner(ops);
  ALVC_IGNORE_STATUS(topo_->set_ops_failed(ops, true), "the ops id was validated above");
  UpdateCost cost;
  if (!owner.valid()) return cost;  // free-pool OPS: no AL touches anything it routed
  VirtualCluster* vc = find_mutable(owner);
  if (vc == nullptr) return cost;  // stale ownership; nothing to repair
  if (touched != nullptr) touched->push_back(owner);

  // The hardware is gone regardless of how the repair goes: evict it.
  AbstractionLayer evicted = vc->layer;
  std::erase(evicted.opss, ops);
  ALVC_IGNORE_STATUS(set_layer(*vc, std::move(evicted), vc->connected),
                     "a subset of the AL the cluster holds cannot conflict");
  cost.ops_changes += 1;
  cost.flow_rules += 1;

  auto repair = repair_coverage(*vc);
  if (!repair) return repair.error();
  cost += *repair;
  ALVC_OBSERVE("cluster.repair.update_cost", 0, 128, 32, cost.total());
  return cost;
}

Expected<UpdateCost> ClusterManager::repair_coverage(VirtualCluster& vc) {
  ALVC_SPAN(span, "cluster.repair_coverage");
  UpdateCost cost;
  // Repair on a candidate copy so an infeasible repair leaves the cluster
  // merely degraded, never holding OPSs it does not own.
  AbstractionLayer candidate = vc.layer;
  for (TorId tor : candidate.tors) {
    const bool covered = topo_->any_usable_uplink(
        tor, [&](alvc::util::OpsId o) { return candidate.contains_ops(o); });
    if (covered) continue;
    alvc::util::OpsId pick = alvc::util::OpsId::invalid();
    topo_->any_usable_uplink(tor, [&](alvc::util::OpsId o) {
      if (!ownership_.is_free_for(o, vc.id) || candidate.contains_ops(o)) return false;
      pick = o;
      return true;
    });
    if (!pick.valid()) {
      set_connected(vc, cluster_subgraph_connected(*topo_, vc.layer, scratch_));
      set_degraded(vc, true);
      return Error{ErrorCode::kInfeasible,
                   "AL repair: ToR " + std::to_string(tor.value()) + " has no usable uplink"};
    }
    candidate.opss.push_back(pick);
    cost.ops_changes += 1;
    cost.flow_rules += 1;
  }
  std::sort(candidate.opss.begin(), candidate.opss.end());

  bool connected = false;
  const std::size_t added =
      augment_layer_connectivity(*topo_, ownership_, vc.id, candidate, connected, scratch_);
  cost.ops_changes += added;
  cost.flow_rules += added;
  if (auto status = set_layer(vc, std::move(candidate), connected); !status.is_ok()) {
    set_degraded(vc, true);
    return status.error();
  }
  // Uplink repair fixes ToR-to-OPS coverage only; the cluster may still be
  // degraded for an unrelated reason (e.g. a member rack's ToR is down and
  // its VMs are unreachable), so re-derive the flag from actual coverage.
  set_degraded(vc, !al_covers_group(*topo_, vc.vms, vc.layer));
  return cost;
}

UpdateCost ClusterManager::rebuild_cluster(VirtualCluster& vc, const AlBuilder& builder) {
  ALVC_SPAN(span, "cluster.rebuild_cluster");
  // Which members can the network still reach? A VM counts when at least
  // one of its home ToRs is up with at least one usable uplink.
  std::vector<VmId> reachable;
  reachable.reserve(vc.vms.size());
  for (VmId vm : vc.vms) {
    if (topo_->any_tor_of_vm(vm, [&](TorId t) { return topo_->has_usable_uplink(t); })) {
      reachable.push_back(vm);
    }
  }

  UpdateCost cost;
  if (reachable.empty()) {
    // Nothing left to serve: dissolve the AL but keep the cluster, so a
    // future recovery can resurrect it.
    cost.ops_changes += vc.layer.opss.size();
    cost.tor_changes += vc.layer.tors.size();
    cost.flow_rules += vc.layer.opss.size() + vc.layer.tors.size();
    // An empty AL is vacuously connected.
    ALVC_IGNORE_STATUS(set_layer(vc, {}, /*connected=*/true),
                       "an empty AL acquires nothing, so it cannot conflict");
    set_degraded(vc, !vc.vms.empty());
    remember_rebuild(vc, builder, /*local=*/true);
    return cost;
  }

  // The build may keep any OPS this cluster holds.
  auto rebuilt = builder.build(*topo_, reachable, ownership_, vc.id, scratch_);
  if (!rebuilt) {
    // Keep the incumbent AL (it may still serve part of the group) and mark
    // the cluster degraded so a later recovery retries the rebuild.
    set_degraded(vc, true);
    set_connected(vc, cluster_subgraph_connected(*topo_, vc.layer, scratch_));
    // The failure itself came from the footprint (AlBuilder's contract);
    // the probe above read the incumbent AL's links.
    remember_rebuild(vc, builder, layer_in_footprint(vc));
    return cost;
  }

  // Symmetric-difference cost, then an unconditional swap: unlike
  // reoptimize, the incumbent AL references dead hardware, so "smaller" is
  // not the criterion — live coverage is.
  const bool local = rebuilt->reads_local;
  cost += layer_swap_cost(vc.layer, rebuilt->layer);
  if (!set_layer(vc, std::move(rebuilt->layer), rebuilt->connected).is_ok()) {
    set_degraded(vc, true);
    remember_rebuild(vc, builder, /*local=*/false);
    return UpdateCost{};
  }
  set_degraded(vc, reachable.size() != vc.vms.size());
  remember_rebuild(vc, builder, local);
  return cost;
}

std::span<const TorId> ClusterManager::collect_home_tors(const VirtualCluster& vc) {
  home_tors_.clear();
  for (VmId vm : vc.vms) topo_->for_each_tor_of_vm(vm, [&](TorId t) { home_tors_.push_back(t); });
  std::sort(home_tors_.begin(), home_tors_.end());
  home_tors_.erase(std::unique(home_tors_.begin(), home_tors_.end()), home_tors_.end());
  return home_tors_;
}

bool ClusterManager::layer_in_footprint(const VirtualCluster& vc) {
  const std::span<const TorId> home = collect_home_tors(vc);
  const auto is_home = [&](TorId t) { return std::binary_search(home.begin(), home.end(), t); };
  if (!std::all_of(vc.layer.tors.begin(), vc.layer.tors.end(), is_home)) return false;
  return std::all_of(vc.layer.opss.begin(), vc.layer.opss.end(), [&](alvc::util::OpsId o) {
    const auto& links = topo_->ops(o).tor_links;
    return std::any_of(links.begin(), links.end(), is_home);
  });
}

void ClusterManager::remember_rebuild(const VirtualCluster& vc, const AlBuilder& builder,
                                      bool local) {
  // The writes so far, this rebuild's own included, are what it read: they
  // must not list the memo recorded below.
  drain_writes();
  if (!vc.degraded || !local) {
    forget_rebuild(vc.id);
    // Degraded without a memo: every pass must rebuild it.
    note_write(vc);
    return;
  }
  use_builder(builder.serial());
  const std::span<const TorId> home = collect_home_tors(vc);
  const auto [it, inserted] = rebuild_memos_.try_emplace(vc.id);
  std::vector<TorId>& memo = it->second;
  if (inserted || !std::equal(home.begin(), home.end(), memo.begin(), memo.end())) {
    for (TorId t : memo) std::erase(tor_watchers_[t.index()], vc.id);
    memo.assign(home.begin(), home.end());
    if (tor_watchers_.size() < topo_->tor_count()) tor_watchers_.resize(topo_->tor_count());
    for (TorId t : memo) tor_watchers_[t.index()].push_back(vc.id);
  }
  stale_.erase(vc.id);
}

void ClusterManager::forget_rebuild(ClusterId id) {
  stale_.erase(id);
  const auto it = rebuild_memos_.find(id);
  if (it == rebuild_memos_.end()) return;
  for (TorId t : it->second) std::erase(tor_watchers_[t.index()], id);
  rebuild_memos_.erase(it);
}

void ClusterManager::wake(ClusterId id) {
  if (id.index() >= woken_in_.size()) woken_in_.resize(next_id_, 0);
  if (woken_in_[id.index()] == pass_count_) return;
  woken_in_[id.index()] = pass_count_;
  wake_heap_.push_back(id);
  std::push_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>{});
}

Expected<UpdateCost> ClusterManager::handle_tor_failure(TorId tor, const AlBuilder& builder,
                                                        std::vector<ClusterId>* touched) {
  if (tor.index() >= topo_->tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (!topo_->tor_usable(tor)) return UpdateCost{};  // already failed
  ALVC_SPAN(span, "cluster.handle_tor_failure");
  ALVC_COUNT("cluster.failures.tor");
  ALVC_IGNORE_STATUS(topo_->set_tor_failed(tor, true), "the tor id was validated above");
  UpdateCost cost;
  // A copy of the ToR's index list: dropping the ToR below edits it.
  for (ClusterId id : clusters_containing_tor(tor)) {
    VirtualCluster* vc = find_mutable(id);
    if (vc == nullptr) continue;
    if (touched != nullptr) touched->push_back(id);
    AbstractionLayer dropped = vc->layer;
    std::erase(dropped.tors, tor);
    ALVC_IGNORE_STATUS(set_layer(*vc, std::move(dropped), vc->connected),
                       "a subset of the AL the cluster holds cannot conflict");
    cost.tor_changes += 1;
    cost.flow_rules += 1;
    cost += rebuild_cluster(*vc, builder);
  }
  ALVC_OBSERVE("cluster.repair.update_cost", 0, 128, 32, cost.total());
  return cost;
}

Status ClusterManager::handle_server_failure(ServerId server) {
  if (server.index() >= topo_->server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  return topo_->set_server_failed(server, true);
}

Status ClusterManager::handle_server_recovery(ServerId server) {
  if (server.index() >= topo_->server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  return topo_->set_server_failed(server, false);
}

Expected<UpdateCost> ClusterManager::handle_link_failure(TorId tor, alvc::util::OpsId ops,
                                                         std::vector<ClusterId>* touched) {
  if (tor.index() >= topo_->tor_count() || ops.index() >= topo_->ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  if (topo_->link_failed(tor, ops)) return UpdateCost{};  // already cut
  if (auto status = topo_->set_link_failed(tor, ops, true); !status.is_ok()) {
    return status.error();  // kNotFound: no such link
  }
  ALVC_SPAN(span, "cluster.handle_link_failure");
  ALVC_COUNT("cluster.failures.link");
  UpdateCost cost;
  // A copy of the ToR's index list, so the walk does not depend on
  // repair_coverage leaving every AL's ToR set alone.
  const std::span<const ClusterId> holders = tor_cluster_ids(tor);
  tor_ids_scratch_.assign(holders.begin(), holders.end());
  for (ClusterId id : tor_ids_scratch_) {
    VirtualCluster* vc = find_mutable(id);
    if (vc == nullptr) continue;
    // A healthy cluster whose AL lacks `ops` cannot feel the cut: it already
    // covers its group (so the coverage loop picks nothing), it is connected
    // (so augmentation adds nothing), and its chains route and run inside
    // its AL, so every one of them would sweep kNone. OPS ownership is
    // exclusive, so among the healthy clusters only the owner of `ops` gets
    // past this. Degraded or disconnected clusters still get their
    // opportunistic repair: an OPS may have come free since their last try.
    if (!vc->layer.contains_ops(ops) && !vc->degraded && vc->connected) continue;
    if (touched != nullptr) touched->push_back(id);
    // An infeasible repair leaves this cluster degraded; keep sweeping —
    // one stranded cluster must not block the others.
    if (auto repair = repair_coverage(*vc)) cost += *repair;
  }
  return cost;
}

Expected<UpdateCost> ClusterManager::handle_ops_recovery(alvc::util::OpsId ops,
                                                         const AlBuilder& builder,
                                                         std::vector<ClusterId>* touched) {
  if (ops.index() >= topo_->ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (topo_->ops_usable(ops)) return UpdateCost{};  // was not failed
  ALVC_SPAN(span, "cluster.handle_ops_recovery");
  ALVC_COUNT("cluster.recoveries.ops");
  ALVC_IGNORE_STATUS(topo_->set_ops_failed(ops, false), "the ops id was validated above");
  return restore_degraded_clusters(builder, touched);
}

Expected<UpdateCost> ClusterManager::handle_tor_recovery(TorId tor, const AlBuilder& builder,
                                                         std::vector<ClusterId>* touched) {
  if (tor.index() >= topo_->tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (topo_->tor_usable(tor)) return UpdateCost{};  // was not failed
  ALVC_SPAN(span, "cluster.handle_tor_recovery");
  ALVC_COUNT("cluster.recoveries.tor");
  ALVC_IGNORE_STATUS(topo_->set_tor_failed(tor, false), "the tor id was validated above");
  return restore_degraded_clusters(builder, touched);
}

Expected<UpdateCost> ClusterManager::handle_link_recovery(TorId tor, alvc::util::OpsId ops,
                                                          const AlBuilder& builder,
                                                          std::vector<ClusterId>* touched) {
  if (tor.index() >= topo_->tor_count() || ops.index() >= topo_->ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  if (!topo_->link_failed(tor, ops)) return UpdateCost{};  // was not cut
  if (auto status = topo_->set_link_failed(tor, ops, false); !status.is_ok()) {
    return status.error();
  }
  ALVC_SPAN(span, "cluster.handle_link_recovery");
  ALVC_COUNT("cluster.recoveries.link");
  return restore_degraded_clusters(builder, touched);
}

Expected<UpdateCost> ClusterManager::restore_degraded_clusters(const AlBuilder& builder,
                                                               std::vector<ClusterId>* touched) {
  ALVC_SPAN(span, "cluster.restore_degraded_clusters");
  // A rebuild is a function of the builder, the VMs, the footprint and
  // (when it fails) the incumbent AL. A degraded cluster outside the
  // listing has a memo of a local rebuild with this builder, and no write
  // to any of them has reached it since: a rebuild would reproduce it
  // exactly, at zero cost. The skipped cluster stays out of `touched`: its
  // AL is unchanged and a recovery only revives hardware, so no chain of
  // it can need a sweep.
  use_builder(builder.serial());
  drain_writes();
  ++pass_count_;
  wake_heap_.clear();
  for (ClusterId id : stale_.members()) wake(id);

  // Only a rebuild changes a degraded flag, and only its own cluster's, so
  // every cluster degraded now is still degraded when the ascending walk
  // reaches it, and the clusters not rebuilt are the skipped ones.
  const std::size_t degraded = degraded_ids_.size();
  std::size_t rebuilds = 0;
  UpdateCost cost;
  while (!wake_heap_.empty()) {
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), std::greater<>{});
    const ClusterId id = wake_heap_.back();
    wake_heap_.pop_back();
    VirtualCluster* vc = find_mutable(id);
    if (vc == nullptr || !vc->degraded) continue;
    if (touched != nullptr) touched->push_back(id);
    ALVC_COUNT("cluster.restore.rebuilds");
    ++rebuilds;
    // The rebuild's writes can list clusters later in the walk (list_stale).
    walk_at_ = id;
    cost += rebuild_cluster(*vc, builder);
  }
  walk_at_ = ClusterId::invalid();
  if (degraded > rebuilds) ALVC_COUNT_N("cluster.restore.skipped", degraded - rebuilds);
  return cost;
}

std::vector<ClusterId> ClusterManager::clusters_containing_tor(TorId tor) const {
  const auto ids = tor_cluster_ids(tor);
  return {ids.begin(), ids.end()};
}

std::vector<ClusterId> ClusterManager::sorted_cluster_ids() const {
  std::vector<ClusterId> ids;
  ids.reserve(clusters_.size());
  for (const auto& [id, vc] : clusters_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const VirtualCluster* ClusterManager::find(ClusterId id) const {
  const auto it = clusters_.find(id);
  return it == clusters_.end() ? nullptr : &it->second;
}

const VirtualCluster* ClusterManager::find_by_service(ServiceId service) const {
  const auto it = by_service_.find(service.value());
  if (it == by_service_.end() || it->second.empty()) return nullptr;
  return find(it->second.front());
}

VirtualCluster* ClusterManager::find_mutable(ClusterId id) {
  const auto it = clusters_.find(id);
  return it == clusters_.end() ? nullptr : &it->second;
}

std::vector<const VirtualCluster*> ClusterManager::clusters() const {
  std::vector<const VirtualCluster*> out;
  out.reserve(clusters_.size());
  for (const auto& [id, vc] : clusters_) out.push_back(&vc);
  std::sort(out.begin(), out.end(),
            [](const VirtualCluster* a, const VirtualCluster* b) { return a->id < b->id; });
  return out;
}

Expected<UpdateCost> ClusterManager::cover_tor(VirtualCluster& vc, TorId tor) {
  UpdateCost cost;
  AbstractionLayer candidate = vc.layer;
  candidate.tors.push_back(tor);
  std::sort(candidate.tors.begin(), candidate.tors.end());
  cost.tor_changes += 1;
  cost.flow_rules += 1;  // programme the new ToR

  // Does any AL OPS already serve this ToR (over a live link)?
  const bool covered = topo_->any_usable_uplink(
      tor, [&](alvc::util::OpsId o) { return candidate.contains_ops(o); });
  if (!covered) {
    // Recruit a free uplink OPS; prefer one adjacent to the current AL so
    // connectivity survives without further augmentation.
    const auto& g = topo_->switch_graph();
    alvc::util::OpsId pick = alvc::util::OpsId::invalid();
    topo_->any_usable_uplink(tor, [&](alvc::util::OpsId o) {
      if (!ownership_.is_free_for(o, vc.id)) return false;
      if (!pick.valid()) pick = o;
      for (const auto& nb : g.neighbors(topo_->ops_vertex(o))) {
        const bool touches_al =
            (topo_->is_ops_vertex(nb.vertex) &&
             candidate.contains_ops(topo_->vertex_to_ops(nb.vertex))) ||
            (!topo_->is_ops_vertex(nb.vertex) &&
             candidate.contains_tor(topo_->vertex_to_tor(nb.vertex)));
        if (touches_al) {
          pick = o;
          break;
        }
      }
      return false;  // keep scanning: the last free uplink adjacent to the AL wins
    });
    if (!pick.valid()) {
      return Error{ErrorCode::kInfeasible,
                   "no free OPS uplink for ToR " + std::to_string(tor.value())};
    }
    candidate.opss.push_back(pick);
    std::sort(candidate.opss.begin(), candidate.opss.end());
    cost.ops_changes += 1;
    cost.flow_rules += 1;
  }
  // Re-establish connectivity if the growth split the layer.
  bool connected = false;
  const std::size_t added =
      augment_layer_connectivity(*topo_, ownership_, vc.id, candidate, connected, scratch_);
  cost.ops_changes += added;
  cost.flow_rules += added;
  if (auto status = set_layer(vc, std::move(candidate), connected); !status.is_ok()) {
    return status.error();
  }
  return cost;
}

UpdateCost ClusterManager::uncover_tor(VirtualCluster& vc, TorId tor) {
  UpdateCost cost;
  AbstractionLayer candidate = vc.layer;
  std::erase(candidate.tors, tor);
  cost.tor_changes += 1;
  cost.flow_rules += 1;

  bool connected = true;
  if (candidate.tors.empty()) {
    // Last rack gone: the AL dissolves entirely.
    cost.ops_changes += candidate.opss.size();
    cost.flow_rules += candidate.opss.size();
    candidate.opss.clear();
  } else {
    // Drop OPSs that no longer uplink any remaining ToR, as long as the
    // layer stays connected without them.
    for (std::size_t i = candidate.opss.size(); i-- > 0;) {
      const auto& links = topo_->ops(candidate.opss[i]).tor_links;
      const bool still_needed = std::any_of(links.begin(), links.end(), [&](TorId t) {
        return candidate.contains_tor(t);
      });
      if (still_needed) continue;
      AbstractionLayer trimmed = candidate;
      trimmed.opss.erase(trimmed.opss.begin() + static_cast<std::ptrdiff_t>(i));
      if (cluster_subgraph_connected(*topo_, trimmed, scratch_)) {
        candidate = std::move(trimmed);
        cost.ops_changes += 1;
        cost.flow_rules += 1;
      }
    }
    connected = cluster_subgraph_connected(*topo_, candidate, scratch_);
  }
  ALVC_IGNORE_STATUS(set_layer(vc, std::move(candidate), connected),
                     "a subset of the AL the cluster holds cannot conflict");
  return cost;
}

double ClusterManager::slice_uplink_capacity_gbps(ClusterId id) const {
  const VirtualCluster* vc = find(id);
  if (vc == nullptr) return 0;
  double total = 0;
  for (alvc::util::TorId t : vc->layer.tors) {
    if (!topo_->tor_usable(t)) continue;
    const auto& tor = topo_->tor(t);
    for (alvc::util::OpsId o : tor.uplinks) {
      if (!vc->layer.contains_ops(o)) continue;
      if (!topo_->ops_usable(o) || topo_->link_failed(t, o)) continue;
      total += std::min(tor.port_bandwidth_gbps, topo_->ops(o).port_bandwidth_gbps);
    }
  }
  return total;
}

std::vector<std::string> ClusterManager::check_invariants() const {
  std::vector<std::string> violations;
  // Ownership consistency.
  for (std::size_t i = 0; i < ownership_.ops_count(); ++i) {
    const alvc::util::OpsId ops{static_cast<alvc::util::OpsId::value_type>(i)};
    const ClusterId owner = ownership_.owner(ops);
    if (!owner.valid()) continue;
    const auto it = clusters_.find(owner);
    if (it == clusters_.end()) {
      violations.push_back("OPS " + std::to_string(i) + " owned by unknown cluster");
    } else if (!it->second.layer.contains_ops(ops)) {
      violations.push_back("OPS " + std::to_string(i) + " owned but not in its cluster's AL");
    }
  }
  std::vector<char> vm_seen(topo_->vm_count(), 0);
  // Audit in id order, not hash order: invariant reports are diffed across
  // runs by the chaos soaks.
  for (const ClusterId id : sorted_cluster_ids()) {
    const VirtualCluster& vc = clusters_.at(id);
    for (alvc::util::OpsId ops : vc.layer.opss) {
      if (ownership_.owner(ops) != id) {
        violations.push_back("cluster " + std::to_string(id.value()) + " lists OPS " +
                             std::to_string(ops.value()) + " it does not own");
      }
      if (!topo_->ops_usable(ops)) {
        violations.push_back("cluster " + std::to_string(id.value()) + " AL contains failed OPS " +
                             std::to_string(ops.value()));
      }
    }
    for (TorId t : vc.layer.tors) {
      if (!topo_->tor_usable(t)) {
        violations.push_back("cluster " + std::to_string(id.value()) + " AL contains failed ToR " +
                             std::to_string(t.value()));
      }
    }
    if (!vc.degraded && !vc.vms.empty() && !al_covers_group(*topo_, vc.vms, vc.layer)) {
      violations.push_back("cluster " + std::to_string(id.value()) + " AL does not cover group");
    }
    for (VmId vm : vc.vms) {
      if (vm_seen[vm.index()]++) {
        violations.push_back("VM " + std::to_string(vm.value()) + " in multiple clusters");
      }
    }
    // The degraded index feeds the scoped fault sweeps; a stale entry in
    // either direction would silently shrink or inflate a blast radius.
    if (vc.degraded != (degraded_ids_.count(id) != 0)) {
      violations.push_back("cluster " + std::to_string(id.value()) +
                           " degraded flag disagrees with the degraded index");
    }
  }
  for (const ClusterId id : degraded_ids_) {
    if (clusters_.find(id) == clusters_.end()) {
      violations.push_back("degraded index lists unknown cluster " + std::to_string(id.value()));
    }
  }
  // The ToR index is the blast radius of every ToR, link and server event;
  // recount it. Each cluster must be listed under exactly its AL's ToRs,
  // each list strictly ascending and free of unknown ids.
  for (std::size_t i = 0; i < tor_clusters_.size(); ++i) {
    const TorId tor{static_cast<TorId::value_type>(i)};
    const auto& ids = tor_clusters_[i];
    if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>{}) != ids.end()) {
      violations.push_back("ToR index list of ToR " + std::to_string(i) +
                           " is not strictly ascending");
    }
    for (const ClusterId id : ids) {
      const auto it = clusters_.find(id);
      if (it == clusters_.end()) {
        violations.push_back("ToR index lists unknown cluster " + std::to_string(id.value()) +
                             " under ToR " + std::to_string(i));
      } else if (!it->second.layer.contains_tor(tor)) {
        violations.push_back("ToR index lists cluster " + std::to_string(id.value()) +
                             " under ToR " + std::to_string(i) + " outside its AL");
      }
    }
  }
  for (const ClusterId id : sorted_cluster_ids()) {
    for (TorId t : clusters_.at(id).layer.tors) {
      const auto ids = tor_cluster_ids(t);
      if (!std::binary_search(ids.begin(), ids.end(), id)) {
        violations.push_back("cluster " + std::to_string(id.value()) + " AL ToR " +
                             std::to_string(t.value()) + " missing from the ToR index");
      }
    }
  }
  return violations;
}

}  // namespace alvc::cluster
