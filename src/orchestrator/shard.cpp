#include "orchestrator/shard.h"

#include <algorithm>

namespace alvc::orchestrator {

void ControlShard::add_chain(NfcId id, ClusterId cluster) {
  std::vector<NfcId>& members = by_cluster_[cluster.value()];
  const auto mit = std::lower_bound(members.begin(), members.end(), id);
  if (mit != members.end() && *mit == id) return;  // already registered here
  members.insert(mit, id);
}

void ControlShard::remove_chain(NfcId id, ClusterId cluster) {
  const auto cit = by_cluster_.find(cluster.value());
  if (cit == by_cluster_.end()) return;
  std::vector<NfcId>& members = cit->second;
  const auto mit = std::lower_bound(members.begin(), members.end(), id);
  if (mit == members.end() || *mit != id) return;
  members.erase(mit);
  if (members.empty()) by_cluster_.erase(cit);
}

std::size_t ControlShard::chain_count() const noexcept {
  std::size_t total = 0;
  for (const auto& [cluster, members] : by_cluster_) total += members.size();
  return total;
}

bool ControlShard::enqueue_retry(RetryEntry entry) {
  for (const RetryEntry& queued : retries_) {
    if (queued.id == entry.id) return false;
  }
  retries_.push_back(entry);
  ++counters_.retries_enqueued;
  return true;
}

}  // namespace alvc::orchestrator
