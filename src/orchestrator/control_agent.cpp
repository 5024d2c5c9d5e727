#include "orchestrator/control_agent.h"

#include <algorithm>
#include <stdexcept>

namespace alvc::orchestrator {

ControlAgent::ControlAgent(const alvc::topology::DataCenterTopology& topo,
                           std::size_t shard_count) {
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
  for (std::size_t index = 0; index < shards_.size(); ++index) {
    ControlShard& shard = shards_[index];
    ++shard.counters_.scans;
    const std::size_t before = merged.size();
    for (ClusterId cluster : buckets[index]) {
      const std::vector<NfcId>* members = shard.cluster_chains(cluster);
      if (members == nullptr) continue;
      for (NfcId id : *members) {
        ++shard.counters_.chains_visited;
        ScanItem item{.id = id};
        if (classify(id, item)) merged.push_back(item);
      }
    }
    shard.counters_.findings += merged.size() - before;
  }
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
