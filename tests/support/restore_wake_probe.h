// Test access to the restore pass's wake set, and the full-walk reference
// built on it.
//
// restore_degraded_clusters checks only the degraded clusters that a write
// since the previous pass began can have reached. With the previous pass
// forgotten, the same pass checks every degraded cluster in ascending id:
// the walk as it ran before the wake set existed. A differential that
// forces the full walk on one twin before every event therefore compares
// the scoped pass against that reference on identical inputs, with no
// second code path in src/.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/cluster_manager.h"
#include "orchestrator/orchestrator.h"

namespace alvc::test {

struct RestoreWakeProbe {
  /// The next restore pass walks every degraded cluster.
  static void force_full_walk(alvc::cluster::ClusterManager& manager) {
    manager.last_pass_.valid = false;
  }
  /// True once a pass has run since the manager was built or the full
  /// walk was last forced: only then may the next pass take the scoped
  /// walk (the builder, the journals and the window still decide).
  [[nodiscard]] static bool last_pass_recorded(const alvc::cluster::ClusterManager& manager) {
    return manager.last_pass_.valid;
  }
  /// Degraded clusters whose memo the watch index lists under every home
  /// ToR of it, and no entry elsewhere: the index the scoped pass wakes
  /// clusters through. Returns the clusters in violation (empty = sound).
  [[nodiscard]] static std::vector<alvc::util::ClusterId> watch_index_violations(
      const alvc::cluster::ClusterManager& manager) {
    std::vector<alvc::util::ClusterId> bad;
    std::size_t entries = 0;
    for (const auto& [id, memo] : manager.rebuild_memos_) {
      for (alvc::util::TorId t : memo.home_tors) {
        const auto& watchers = manager.tor_watchers_.at(t.index());
        if (std::count(watchers.begin(), watchers.end(), id) != 1) bad.push_back(id);
      }
      entries += memo.home_tors.size();
    }
    std::size_t listed = 0;
    for (const auto& watchers : manager.tor_watchers_) listed += watchers.size();
    if (listed != entries) bad.push_back(alvc::util::ClusterId::invalid());
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    return bad;
  }
  /// Lets the orchestrator's control log take `events` more entries
  /// without growing, so a test that counts heap allocations sees none
  /// from the log.
  static void reserve_control_log(alvc::orchestrator::NetworkOrchestrator& orchestrator,
                                  std::size_t events) {
    orchestrator.log_.reserve(events);
  }
};

}  // namespace alvc::test
