// Test access to ClusterManager's restore state — rebuild memos, the watch
// index and the listing of stale clusters — and the always-rebuild
// reference built on it.
//
// restore_degraded_clusters rebuilds the listed degraded clusters and
// skips the others, whose memo no write has reached since it was
// recorded. With every memo forgotten, every degraded cluster is listed
// and the same pass rebuilds each of them in ascending id: the pass as it
// ran before the memo existed. A differential that forgets the memos of
// one twin before every event therefore compares the production pass
// against that reference on identical inputs, with no second code path in
// src/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster_manager.h"

namespace alvc::test {

struct RestoreProbe {
  /// Drops every memo, as remember_rebuild drops the memo of a rebuild
  /// that read beyond its footprint: each degraded cluster loses its memo
  /// and its watch entries and is listed, so the next restore pass
  /// rebuilds every degraded cluster.
  static void forget_all(alvc::cluster::ClusterManager& manager) {
    for (alvc::util::ClusterId id : manager.degraded_ids_) {
      manager.forget_rebuild(id);
      manager.note_write(*manager.find_mutable(id));
    }
  }
  [[nodiscard]] static bool has_memo(const alvc::cluster::ClusterManager& manager,
                                     alvc::util::ClusterId id) {
    return manager.rebuild_memos_.contains(id);
  }
  [[nodiscard]] static std::size_t memo_count(const alvc::cluster::ClusterManager& manager) {
    return manager.rebuild_memos_.size();
  }
  /// The memo's home ToRs (empty without a memo).
  [[nodiscard]] static std::vector<alvc::util::TorId> memo_home_tors(
      const alvc::cluster::ClusterManager& manager, alvc::util::ClusterId id) {
    const auto it = manager.rebuild_memos_.find(id);
    return it == manager.rebuild_memos_.end() ? std::vector<alvc::util::TorId>{} : it->second;
  }
  /// Restore passes run so far.
  [[nodiscard]] static std::uint64_t pass_count(const alvc::cluster::ClusterManager& manager) {
    return manager.pass_count_;
  }
  /// The listed (stale) clusters, ascending.
  [[nodiscard]] static std::vector<alvc::util::ClusterId> listing(
      const alvc::cluster::ClusterManager& manager) {
    const auto members = manager.stale_.members();
    std::vector<alvc::util::ClusterId> ids(members.begin(), members.end());
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  /// Clusters that break the restore bookkeeping, ascending: a memo the
  /// watch index does not list under exactly its home ToRs, a memo or a
  /// listing of a cluster that is not degraded, a degraded cluster with
  /// neither a memo nor a listing, and an unlisted memo whose home ToRs
  /// are no longer the cluster's while no pending footprint write names
  /// one of them (the next drain would list it). Invalid stands for a
  /// watch entry no memo accounts for. Empty = sound.
  [[nodiscard]] static std::vector<alvc::util::ClusterId> bookkeeping_violations(
      alvc::cluster::ClusterManager& manager) {
    std::vector<alvc::util::ClusterId> bad;
    std::size_t entries = 0;
    for (const auto& [id, home_tors] : manager.rebuild_memos_) {
      for (alvc::util::TorId t : home_tors) {
        const auto& watchers = manager.tor_watchers_.at(t.index());
        if (std::count(watchers.begin(), watchers.end(), id) != 1) bad.push_back(id);
      }
      entries += home_tors.size();
      const alvc::cluster::VirtualCluster* vc = manager.find(id);
      if (vc == nullptr || !vc->degraded) {
        bad.push_back(id);
      } else if (!manager.stale_.contains(id) && !any_pending(manager, home_tors)) {
        const auto home = manager.collect_home_tors(*vc);
        if (!std::equal(home.begin(), home.end(), home_tors.begin(), home_tors.end())) {
          bad.push_back(id);
        }
      }
    }
    std::size_t listed = 0;
    for (const auto& watchers : manager.tor_watchers_) listed += watchers.size();
    if (listed != entries) bad.push_back(alvc::util::ClusterId::invalid());
    for (alvc::util::ClusterId id : manager.stale_.members()) {
      if (!manager.degraded_ids_.contains(id)) bad.push_back(id);
    }
    for (alvc::util::ClusterId id : manager.degraded_ids_) {
      if (!manager.rebuild_memos_.contains(id) && !manager.stale_.contains(id)) bad.push_back(id);
    }
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    return bad;
  }

 private:
  [[nodiscard]] static bool any_pending(const alvc::cluster::ClusterManager& manager,
                                        const std::vector<alvc::util::TorId>& tors) {
    const auto pending = manager.topology().pending_footprint_tors();
    return std::any_of(tors.begin(), tors.end(), [&](alvc::util::TorId t) {
      return std::find(pending.begin(), pending.end(), t) != pending.end();
    });
  }
};

}  // namespace alvc::test
