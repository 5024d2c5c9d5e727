// Cluster-agent layer of the sharded control plane (DESIGN.md §13).
//
// A ControlAgent partitions the orchestrator's chains across N ControlShards
// by backing cluster (`cluster.value() % shard_count`). A fault touches only
// the few clusters whose AL it hit, so a scoped pass classifies a handful of
// chains and runs inline on the orchestrator thread: a worker hand-off would
// cost more than the work.
//
// Determinism contract: scan_scoped() classifies chains with a
// caller-supplied pure function (no telemetry, no mutation) and returns the
// merged findings sorted by ascending NfcId, so the result is independent
// of shard count. The orchestrator then applies verdicts serially in that
// order.
//
// Threading contract: every method runs on the single orchestrator thread.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "orchestrator/shard.h"
#include "util/ids.h"

namespace alvc::orchestrator {

using alvc::util::ClusterId;

class ControlAgent {
 public:
  /// `shard_count` must be >= 1 (std::invalid_argument otherwise).
  ControlAgent(const alvc::topology::DataCenterTopology& topo, std::size_t shard_count);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Owning shard for a cluster: cluster.value() % shard_count.
  [[nodiscard]] std::size_t shard_of(ClusterId cluster) const noexcept {
    return static_cast<std::size_t>(cluster.value()) % shards_.size();
  }
  [[nodiscard]] ControlShard& shard(std::size_t index) { return shards_[index]; }
  [[nodiscard]] const ControlShard& shard(std::size_t index) const { return shards_[index]; }
  [[nodiscard]] ControlShard& shard_for_cluster(ClusterId cluster) {
    return shards_[shard_of(cluster)];
  }
  [[nodiscard]] const ControlShard& shard_for_cluster(ClusterId cluster) const {
    return shards_[shard_of(cluster)];
  }

  /// Registers a chain with the shard owning its backing cluster.
  void register_chain(NfcId id, ClusterId cluster);
  /// Unregisters a torn-down chain and drops its retry entry. Chain ids
  /// are never reused and a drain skips missing chains, so a drain could
  /// only ever drop the entry; dropping it here keeps torn-down chains out
  /// of retry_count().
  void unregister_chain(NfcId id, ClusterId cluster);

  /// Classifier for scan_scoped(): fill `item` (its `id` is pre-set) and
  /// return whether to include it in the merged result. Runs inline — it
  /// must only read orchestrator state and must not touch telemetry.
  using Classifier = std::function<bool(NfcId id, ScanItem& item)>;

  /// Phase 1 of the two-phase pass: classify the chains registered through
  /// the clusters in `scope` (a fault's blast radius) and return the
  /// findings sorted by ascending id. Each scoped cluster's membership
  /// index is walked once, on its owning shard, so the pass costs
  /// O(affected chains) instead of O(all chains). The caller must
  /// guarantee that every chain NOT in scope would classify to "no work".
  /// Duplicate clusters in `scope` are fine. The result lives in a buffer
  /// the agent reuses: it stays valid until the next scan_scoped call.
  [[nodiscard]] std::span<const ScanItem> scan_scoped(std::span<const ClusterId> scope,
                                                      const Classifier& classify);

  /// Queues a retry on the shard owning `cluster`, unless that shard
  /// already holds an entry for the chain. A chain's cluster never changes,
  /// so per-shard dedupe is global dedupe. Returns whether the entry was
  /// accepted.
  bool enqueue_retry(RetryEntry entry, ClusterId cluster);

  /// Drains every shard's retry segment and returns the union sorted by
  /// ascending id (ids are unique across shards). The result lives in a
  /// buffer the agent reuses: it stays valid until the next drain_retries
  /// call.
  [[nodiscard]] std::span<const RetryEntry> drain_retries();

  /// Retry entries queued across all shards.
  [[nodiscard]] std::size_t retry_count() const noexcept;

  /// Chains registered across all shards.
  [[nodiscard]] std::size_t membership_count() const noexcept;

 private:
  std::vector<ControlShard> shards_;
  /// scan_scoped's and drain_retries' results, reused across calls.
  std::vector<ScanItem> findings_;
  std::vector<RetryEntry> drained_;
};

}  // namespace alvc::orchestrator
