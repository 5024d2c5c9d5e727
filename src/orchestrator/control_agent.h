// Cluster-agent layer of the sharded control plane (DESIGN.md §13).
//
// A ControlAgent partitions the orchestrator's chains across N ControlShards
// by backing cluster (`cluster.value() % shard_count`) and runs the control
// plane's read-only passes shard-parallel on a util::Executor. The design
// follows the heyp cluster-agent shape: independent per-shard passes produce
// partial result sets, one merge lock folds them together, and every mutation
// happens afterwards on the single orchestrator thread.
//
// Determinism contract: scan_scoped() classifies chains with a
// caller-supplied pure function (no telemetry, no mutation — it runs
// concurrently on worker threads) and returns the merged findings sorted by
// ascending NfcId, so the result is independent of shard count, executor
// width, and scheduling. The orchestrator then applies verdicts serially in
// that order. One shard with no executor is the plain inline control plane.
//
// Threading contract: all methods except the scan workers run on the single
// orchestrator thread. merge_mu_ (lock rank 15, a leaf: nothing else is
// locked and no telemetry runs under it) only guards the merge vector while
// workers append their partial results.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "orchestrator/shard.h"
#include "util/executor.h"
#include "util/ids.h"
#include "util/thread_annotations.h"

namespace alvc::orchestrator {

using alvc::util::ClusterId;

class ControlAgent {
 public:
  /// `shard_count` must be >= 1 (std::invalid_argument otherwise).
  /// `executor` may be null: every pass then runs inline in ascending shard
  /// order (same results, no threads).
  ControlAgent(const alvc::topology::DataCenterTopology& topo, std::size_t shard_count,
               alvc::util::Executor* executor);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] alvc::util::Executor* executor() const noexcept { return executor_; }

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
  void unregister_chain(NfcId id, ClusterId cluster);

  /// Classifier for scan_scoped(): fill `item` (its `id` is pre-set) and
  /// return whether to include it in the merged result. Runs concurrently
  /// on worker threads — it must only read orchestrator state and must not
  /// touch telemetry.
  using Classifier = std::function<bool(NfcId id, ScanItem& item)>;

  /// Phase 1 of the two-phase pass: classify the chains registered through
  /// the clusters in `scope` (a fault's blast radius), shard-parallel, and
  /// merge the partial results sorted by ascending id. Each shard walks only
  /// its scoped clusters' membership indexes, so the pass costs
  /// O(affected chains) instead of O(all chains). The caller must guarantee
  /// that every chain NOT in scope would classify to "no work". Duplicate
  /// clusters in `scope` are fine.
  [[nodiscard]] std::vector<ScanItem> scan_scoped(std::span<const ClusterId> scope,
                                                  const Classifier& classify)
      ALVC_EXCLUDES(merge_mu_);

  /// Queues a retry on the shard owning `cluster`, unless that shard
  /// already holds an entry for the chain. A chain's cluster never changes,
  /// so per-shard dedupe is global dedupe. Returns whether the entry was
  /// accepted.
  bool enqueue_retry(RetryEntry entry, ClusterId cluster);

  /// Drains every shard's retry segment and returns the union sorted by
  /// ascending id (ids are unique across shards).
  [[nodiscard]] std::vector<RetryEntry> drain_retries();

  /// Retry entries queued across all shards.
  [[nodiscard]] std::size_t retry_count() const noexcept;

  /// Chains registered across all shards.
  [[nodiscard]] std::size_t membership_count() const noexcept;

 private:
  alvc::util::Executor* executor_;
  std::vector<ControlShard> shards_;
  std::mutex merge_mu_;
};

}  // namespace alvc::orchestrator
