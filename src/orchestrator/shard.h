// One shard of the sharded control plane (DESIGN.md §13).
//
// The paper's FIG7 architecture assigns each NFC its own optical slice and
// keeps slices independent, so the orchestrator's per-chain bookkeeping
// partitions cleanly by the cluster backing the slice. A ControlShard owns
// the slice of that bookkeeping for the clusters hashed to it:
//
//   * the shard's chain membership, indexed per backing cluster so a fault
//     handler can scope a scan to the clusters its event touched,
//   * its segment of the degraded-chain retry queue,
//   * its own epoch-versioned RouteCache (route-cache keys are per-cluster,
//     so N per-shard caches behave exactly like the disjoint union of one
//     global cache), and
//   * plain per-shard counters.
//
// Threading contract: a shard is only ever touched by the orchestrator
// thread, which is why the counters are plain integers and nothing here
// takes a lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "orchestrator/route_cache.h"
#include "util/ids.h"

namespace alvc::orchestrator {

using alvc::util::ClusterId;
using alvc::util::NfcId;

/// One degraded chain waiting for another restoration attempt.
struct RetryEntry {
  NfcId id;
  std::size_t attempts = 0;
  std::uint64_t not_before = 0;  // earliest recovery epoch for the next try
};

/// Plain per-shard activity counters; only the orchestrator thread touches
/// them, so no atomics are needed.
struct ShardCounters {
  std::uint64_t scans = 0;            // scan passes this shard ran
  std::uint64_t chains_visited = 0;   // classifier invocations
  std::uint64_t findings = 0;         // classifications that produced work
  std::uint64_t retries_enqueued = 0; // entries accepted into the segment
};

/// One classified chain out of a ControlAgent scan. `verdict` carries the
/// classifier's tag (e.g. the orchestrator's sweep verdict).
struct ScanItem {
  NfcId id;
  int verdict = 0;
};

class ControlShard {
 public:
  ControlShard(const alvc::topology::DataCenterTopology& topo, std::size_t index)
      : index_(index), cache_(topo) {}

  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  /// Chains owned by this shard.
  [[nodiscard]] std::size_t chain_count() const noexcept;
  /// Chains registered through `cluster` (ascending id), or null when the
  /// shard has none — the index scoped scans walk.
  [[nodiscard]] const std::vector<NfcId>* cluster_chains(ClusterId cluster) const {
    const auto it = by_cluster_.find(cluster.value());
    return it == by_cluster_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] RouteCache& cache() noexcept { return cache_; }
  [[nodiscard]] const RouteCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const std::vector<RetryEntry>& retries() const noexcept { return retries_; }
  [[nodiscard]] const ShardCounters& counters() const noexcept { return counters_; }

 private:
  friend class ControlAgent;

  /// Registers the chain under `cluster`. Idempotent.
  void add_chain(NfcId id, ClusterId cluster);
  void remove_chain(NfcId id, ClusterId cluster);
  /// Appends unless an entry for the same chain is already queued.
  /// Returns whether the entry was accepted.
  bool enqueue_retry(RetryEntry entry);

  std::size_t index_;
  // Per-cluster membership; each chain is registered through one cluster.
  std::unordered_map<ClusterId::value_type, std::vector<NfcId>> by_cluster_;
  std::vector<RetryEntry> retries_;
  RouteCache cache_;
  ShardCounters counters_;
};

}  // namespace alvc::orchestrator
