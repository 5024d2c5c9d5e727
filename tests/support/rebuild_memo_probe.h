// Test access to ClusterManager's rebuild memos, and the always-rebuild
// reference built on it.
//
// restore_degraded_clusters skips a degraded cluster whose last rebuild
// memo still matches. With every memo forgotten, the same walk rebuilds
// every degraded cluster in ascending id: the pass as it ran before the
// memo existed. A differential that forgets the memos of one twin before
// every event therefore compares the production pass against that
// reference on identical inputs, with no second code path in src/.
#pragma once

#include <cstddef>

#include "cluster/cluster_manager.h"

namespace alvc::test {

struct RebuildMemoProbe {
  /// Drops every memo: the next restore pass rebuilds every degraded
  /// cluster. The watch index goes with the memos, and the next pass
  /// walks every degraded cluster, as after any memo dropped in
  /// production.
  static void forget_all(alvc::cluster::ClusterManager& manager) {
    manager.rebuild_memos_.clear();
    for (auto& watchers : manager.tor_watchers_) watchers.clear();
    manager.last_pass_.valid = false;
  }
  [[nodiscard]] static bool has_memo(const alvc::cluster::ClusterManager& manager,
                                     alvc::util::ClusterId id) {
    return manager.rebuild_memos_.contains(id);
  }
  [[nodiscard]] static std::size_t memo_count(const alvc::cluster::ClusterManager& manager) {
    return manager.rebuild_memos_.size();
  }
};

}  // namespace alvc::test
