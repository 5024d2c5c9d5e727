// The Abstraction Layer (paper §III-C) and the exclusivity registry.
//
// An AL is the subset of OPSs logically assigned to one VM group; AL + group
// = Virtual Cluster. The paper's hard constraint — "one OPS cannot be part
// of two ALs at the same time" — is enforced centrally by OpsOwnership,
// which maps every OPS to its owning cluster (if any).
#pragma once

#include <span>
#include <vector>

#include "util/error.h"
#include "util/id_set.h"
#include "util/ids.h"

namespace alvc::cluster {

using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::TorId;

/// The set of OPSs managing one VM group, plus the ToRs through which the
/// group's VMs reach them (the output of the two-stage selection).
struct AbstractionLayer {
  std::vector<TorId> tors;  // covering ToRs (stage 1)
  std::vector<OpsId> opss;  // the AL proper (stage 2)

  [[nodiscard]] bool contains_ops(OpsId id) const noexcept;
  [[nodiscard]] bool contains_tor(TorId id) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return opss.size(); }
};

/// Tracks which cluster owns each OPS. All mutations go through acquire/
/// release so the exclusivity invariant cannot be violated; inside
/// ClusterManager only its layer writer (set_layer) calls them.
class OpsOwnership {
 public:
  explicit OpsOwnership(std::size_t ops_count)
      : owner_(ops_count, ClusterId::invalid()) {}

  [[nodiscard]] std::size_t ops_count() const noexcept { return owner_.size(); }
  [[nodiscard]] bool is_free(OpsId id) const { return !owner_.at(id.index()).valid(); }
  /// True when `id` is free or owned by `self`: the OPSs an AL build for
  /// cluster `self` may choose. `self = ClusterId::invalid()` is is_free.
  [[nodiscard]] bool is_free_for(OpsId id, ClusterId self) const {
    const ClusterId owner = owner_.at(id.index());
    return !owner.valid() || owner == self;
  }
  [[nodiscard]] ClusterId owner(OpsId id) const { return owner_.at(id.index()); }
  [[nodiscard]] std::size_t free_count() const noexcept;

  /// Atomically acquires all of `opss` for `cluster`: if any is taken the
  /// call fails with kConflict and nothing changes.
  [[nodiscard]] alvc::util::Status acquire(std::span<const OpsId> opss, ClusterId cluster);

  /// Releases any of `opss` owned by `cluster` (others are ignored).
  void release(std::span<const OpsId> opss, ClusterId cluster);

  /// Ids of currently unowned OPSs.
  [[nodiscard]] std::vector<OpsId> free_ops() const;

  /// OPSs whose owner changed since the last clear, each once: acquire and
  /// release, the only writers of the owner cells, list every cell they
  /// change (alvc_lint `footprint-writer` keeps other writers out). So an
  /// OPS missing from the list has kept its owner since the list was last
  /// cleared. The one reader, ClusterManager, clears it after each read.
  [[nodiscard]] std::span<const OpsId> pending_owner_changes() const noexcept {
    return owner_pending_.members();
  }
  void clear_pending_owner_changes() noexcept;

 private:
  /// Gives `id` to `owner` (possibly none) and lists the change.
  void set_owner(OpsId id, ClusterId owner);

  std::vector<ClusterId> owner_;
  alvc::util::IdSet<OpsId> owner_pending_;
};

}  // namespace alvc::cluster
