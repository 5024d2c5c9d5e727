// One shard of the sharded control plane (DESIGN.md §13).
//
// The paper's FIG7 architecture assigns each NFC its own optical slice and
// keeps slices independent, so the orchestrator's per-chain bookkeeping
// partitions cleanly by the cluster backing the slice. A ControlShard owns
// the slice of that bookkeeping for the clusters hashed to it:
//
//   * the shard's chain membership (ascending NfcId order, the order every
//     merged scan result is produced in), indexed per backing cluster so a
//     fault handler can scope a scan to the clusters its event touched,
//   * its segment of the degraded-chain retry queue,
//   * its own epoch-versioned RouteCache (route-cache keys are per-cluster,
//     so N per-shard caches behave exactly like the disjoint union of one
//     global cache), and
//   * plain per-shard counters.
//
// Threading contract: a shard is only ever touched by (a) the orchestrator
// thread between scans and (b) exactly one worker during a ControlAgent
// scan. Workers never touch another shard's state, which is why the
// counters are plain integers and why nothing here takes a lock — the one
// merge lock lives in ControlAgent.
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

/// Plain per-shard activity counters. Workers touch only their own shard's
/// struct, so no atomics are needed; the orchestrator folds these into
/// aggregate telemetry after a merge (metric macro names must be literals,
/// and no telemetry call may run inside a scan worker).
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
  /// Chains owned by this shard, ascending id.
  [[nodiscard]] const std::vector<NfcId>& chain_ids() const noexcept { return chain_ids_; }
  [[nodiscard]] std::size_t chain_count() const noexcept { return chain_ids_.size(); }
  /// Chains registered through `cluster` (ascending id), or null when the
  /// shard has none — the index scoped scans walk instead of chain_ids_.
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

  /// Registers the chain under `cluster`. Idempotent per (chain, cluster);
  /// a chain spanning several of the shard's clusters is still one entry in
  /// chain_ids_ (one membership) but appears in each cluster's index.
  void add_chain(NfcId id, ClusterId cluster);
  void remove_chain(NfcId id, ClusterId cluster);
  /// Appends unless an entry for the same chain is already queued.
  /// Returns whether the entry was accepted.
  bool enqueue_retry(RetryEntry entry);

  std::size_t index_;
  std::vector<NfcId> chain_ids_;  // ascending
  // Per-cluster membership plus how many clusters each chain is registered
  // through, so removing one registration of a multi-cluster chain keeps
  // its chain_ids_ entry until the last one goes.
  std::unordered_map<ClusterId::value_type, std::vector<NfcId>> by_cluster_;
  std::unordered_map<NfcId::value_type, std::uint32_t> refs_;
  std::vector<RetryEntry> retries_;
  RouteCache cache_;
  ShardCounters counters_;
};

}  // namespace alvc::orchestrator
