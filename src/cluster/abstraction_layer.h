// The Abstraction Layer (paper §III-C) and the exclusivity registry.
//
// An AL is the subset of OPSs logically assigned to one VM group; AL + group
// = Virtual Cluster. The paper's hard constraint — "one OPS cannot be part
// of two ALs at the same time" — is enforced centrally by OpsOwnership,
// which maps every OPS to its owning cluster (if any).
#pragma once

#include <span>
#include <vector>

#include "util/bitset.h"
#include "util/error.h"
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
/// release so the exclusivity invariant cannot be violated.
///
/// An optional read log supports the optimistic parallel build path
/// (ClusterManager::build_all_clusters): every ownership cell a builder
/// queries is recorded, so a speculative build taken against a snapshot can
/// later be proven untouched by concurrent commits — if no logged cell
/// changed, a serial re-run would have read identical values and produced
/// the identical result.
class OpsOwnership {
 public:
  explicit OpsOwnership(std::size_t ops_count) : owner_(ops_count, ClusterId::invalid()) {}

  // Copies never inherit the read log: a snapshot observes for itself.
  OpsOwnership(const OpsOwnership& other) : owner_(other.owner_) {}
  OpsOwnership& operator=(const OpsOwnership& other) {
    owner_ = other.owner_;
    return *this;
  }

  [[nodiscard]] std::size_t ops_count() const noexcept { return owner_.size(); }
  [[nodiscard]] bool is_free(OpsId id) const {
    record_read(id.index());
    return !owner_.at(id.index()).valid();
  }
  [[nodiscard]] ClusterId owner(OpsId id) const {
    record_read(id.index());
    return owner_.at(id.index());
  }
  [[nodiscard]] std::size_t free_count() const noexcept;

  /// Attaches (or detaches, with nullptr) a read log sized ops_count():
  /// every subsequent per-OPS query sets the queried index. Whole-registry
  /// queries (free_count/free_ops) set every bit.
  void set_read_log(alvc::util::DynamicBitset* log) noexcept { read_log_ = log; }

  /// Atomically acquires all of `opss` for `cluster`: if any is taken the
  /// call fails with kConflict and nothing changes.
  [[nodiscard]] alvc::util::Status acquire(std::span<const OpsId> opss, ClusterId cluster);

  /// Releases any of `opss` owned by `cluster` (others are ignored).
  void release(std::span<const OpsId> opss, ClusterId cluster);

  /// Ids of currently unowned OPSs.
  [[nodiscard]] std::vector<OpsId> free_ops() const;

 private:
  void record_read(std::size_t index) const {
    if (read_log_ != nullptr) read_log_->set(index);
  }

  std::vector<ClusterId> owner_;
  alvc::util::DynamicBitset* read_log_ = nullptr;
};

}  // namespace alvc::cluster
