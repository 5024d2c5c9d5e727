#include "orchestrator/control_agent.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/lock_rank.h"

namespace alvc::orchestrator {

ControlAgent::ControlAgent(const alvc::topology::DataCenterTopology& topo,
                           std::size_t shard_count, alvc::util::Executor* executor)
    : executor_(executor) {
  if (shard_count == 0) throw std::invalid_argument("ControlAgent needs at least one shard");
  shards_.reserve(shard_count);
  for (std::size_t index = 0; index < shard_count; ++index) {
    shards_.emplace_back(topo, index);
  }
}

void ControlAgent::register_chain(NfcId id, ClusterId cluster) {
  shards_[shard_of(cluster)].add_chain(id, cluster);
}

void ControlAgent::unregister_chain(NfcId id, ClusterId cluster) {
  shards_[shard_of(cluster)].remove_chain(id, cluster);
}

std::vector<ScanItem> ControlAgent::scan_scoped(std::span<const ClusterId> scope,
                                                const Classifier& classify) {
  // Bucket the scoped clusters by owning shard. Bucket order does not
  // matter: the merged result is sorted by id at the end.
  std::vector<std::vector<ClusterId>> buckets(shards_.size());
  for (ClusterId cluster : scope) {
    std::vector<ClusterId>& bucket = buckets[shard_of(cluster)];
    if (std::find(bucket.begin(), bucket.end(), cluster) == bucket.end()) {
      bucket.push_back(cluster);
    }
  }
  std::vector<ScanItem> merged;
  alvc::util::fan_out_shards(executor_, shards_.size(), [&](std::size_t index) {
    ControlShard& shard = shards_[index];
    ++shard.counters_.scans;
    std::vector<ScanItem> local;
    for (ClusterId cluster : buckets[index]) {
      const std::vector<NfcId>* members = shard.cluster_chains(cluster);
      if (members == nullptr) continue;
      for (NfcId id : *members) {
        ++shard.counters_.chains_visited;
        ScanItem item{.id = id};
        if (classify(id, item)) local.push_back(item);
      }
    }
    shard.counters_.findings += local.size();
    if (local.empty()) return;
    ALVC_LOCK_RANK(alvc::util::lock_rank::kOrchestratorAgentMerge,
                   "orchestrator.agent_merge");
    const std::lock_guard<std::mutex> lock(merge_mu_);
    merged.insert(merged.end(), std::make_move_iterator(local.begin()),
                  std::make_move_iterator(local.end()));
  });
  // A chain is registered through exactly one cluster, so shards never
  // report the same id twice.
  std::sort(merged.begin(), merged.end(),
            [](const ScanItem& a, const ScanItem& b) { return a.id < b.id; });
  return merged;
}

bool ControlAgent::enqueue_retry(RetryEntry entry, ClusterId cluster) {
  return shards_[shard_of(cluster)].enqueue_retry(entry);
}

std::vector<RetryEntry> ControlAgent::drain_retries() {
  std::vector<RetryEntry> drained;
  for (ControlShard& shard : shards_) {
    drained.insert(drained.end(), shard.retries_.begin(), shard.retries_.end());
    shard.retries_.clear();
  }
  std::sort(drained.begin(), drained.end(),
            [](const RetryEntry& a, const RetryEntry& b) { return a.id < b.id; });
  return drained;
}

std::size_t ControlAgent::retry_count() const noexcept {
  std::size_t total = 0;
  for (const ControlShard& shard : shards_) total += shard.retries_.size();
  return total;
}

std::size_t ControlAgent::membership_count() const noexcept {
  std::size_t total = 0;
  for (const ControlShard& shard : shards_) total += shard.chain_count();
  return total;
}

}  // namespace alvc::orchestrator
