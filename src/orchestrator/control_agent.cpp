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
  ControlShard& shard = shards_[shard_of(cluster)];
  shard.remove_chain(id, cluster);
  std::erase_if(shard.retries_, [id](const RetryEntry& entry) { return entry.id == id; });
}

std::span<const ScanItem> ControlAgent::scan_scoped(std::span<const ClusterId> scope,
                                                    const Classifier& classify) {
  for (ControlShard& shard : shards_) ++shard.counters_.scans;
  findings_.clear();
  // Visit order does not matter: the classifier is pure and the result is
  // sorted by id at the end. A scope is a handful of clusters, so the
  // duplicate check scans the ones before it.
  for (auto cluster = scope.begin(); cluster != scope.end(); ++cluster) {
    if (std::find(scope.begin(), cluster, *cluster) != cluster) continue;
    ControlShard& shard = shards_[shard_of(*cluster)];
    const std::vector<NfcId>* members = shard.cluster_chains(*cluster);
    if (members == nullptr) continue;
    for (NfcId id : *members) {
      ++shard.counters_.chains_visited;
      ScanItem item{.id = id};
      if (!classify(id, item)) continue;
      findings_.push_back(item);
      ++shard.counters_.findings;
    }
  }
  // A chain is registered through exactly one cluster, so no id is
  // reported twice.
  std::sort(findings_.begin(), findings_.end(),
            [](const ScanItem& a, const ScanItem& b) { return a.id < b.id; });
  return findings_;
}

bool ControlAgent::enqueue_retry(RetryEntry entry, ClusterId cluster) {
  return shards_[shard_of(cluster)].enqueue_retry(entry);
}

std::span<const RetryEntry> ControlAgent::drain_retries() {
  drained_.clear();
  for (ControlShard& shard : shards_) {
    drained_.insert(drained_.end(), shard.retries_.begin(), shard.retries_.end());
    shard.retries_.clear();
  }
  std::sort(drained_.begin(), drained_.end(),
            [](const RetryEntry& a, const RetryEntry& b) { return a.id < b.id; });
  return drained_;
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
