#include "orchestrator/allocation_index.h"

#include <algorithm>

namespace alvc::orchestrator {

namespace {

std::uint64_t pack(std::size_t lo, std::size_t hi) noexcept {
  return (static_cast<std::uint64_t>(lo) << 32) | static_cast<std::uint64_t>(hi & 0xffffffffULL);
}

}  // namespace

void AllocationIndex::reset(double tor_budget_factor) {
  tor_budget_factor_ = tor_budget_factor;
  resource_of_key_.clear();
  resources_.clear();
  entries_.clear();
  dirty_.clear();
}

std::vector<NfcId> AllocationIndex::take_dirty() {
  std::vector<NfcId> ids = std::move(dirty_);
  dirty_.clear();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::uint32_t AllocationIndex::resource(std::uint64_t key, double capacity_gbps) {
  const auto [it, fresh] =
      resource_of_key_.try_emplace(key, static_cast<std::uint32_t>(resources_.size()));
  if (fresh) resources_.push_back(Resource{.capacity_gbps = capacity_gbps});
  return it->second;
}

void AllocationIndex::erase(NfcId id, std::vector<std::uint32_t>& touched) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  for (const auto& [r, coeff] : it->second.uses) {
    touched.push_back(r);
    auto& users = resources_[r].users;
    users.erase(std::lower_bound(users.begin(), users.end(), id));
  }
  entries_.erase(it);
}

void AllocationIndex::update(NfcId id, alvc::nfv::PriorityClass cls, double demand_gbps,
                             std::span<const std::size_t> walk,
                             std::vector<std::uint32_t>& touched) {
  erase(id, touched);
  if (walk.empty()) return;

  // Each distinct route link is a resource (coeff 1.0, matching the
  // ledger's once-per-distinct-link accounting), plus, when the ToR budget
  // is enabled, one aggregate uplink budget per ToR the route crosses, with
  // coeff = the number of incident route links (a through-ToR hop pays
  // ingress and egress).
  std::vector<std::uint64_t> links;
  for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
    const auto [lo, hi] = std::minmax(walk[i], walk[i + 1]);
    if (lo != hi) links.push_back(pack(lo, hi));
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());

  Entry entry{.cls = cls, .demand_gbps = demand_gbps};
  std::vector<std::pair<std::size_t, double>> tor_links;  // (ToR vertex, incident links)
  for (const std::uint64_t k : links) {
    const auto u = static_cast<std::size_t>(k >> 32);
    const auto v = static_cast<std::size_t>(k & 0xffffffffULL);
    entry.uses.emplace_back(resource(k, ledger_->capacity_gbps(u, v)), 1.0);
    if (tor_budget_factor_ <= 0) continue;
    for (const std::size_t end : {u, v}) {
      if (topo_->is_ops_vertex(end)) continue;
      const auto prior = std::find_if(tor_links.begin(), tor_links.end(),
                                      [&](const auto& use) { return use.first == end; });
      if (prior == tor_links.end()) {
        tor_links.emplace_back(end, 1.0);
      } else {
        prior->second += 1.0;
      }
    }
  }
  std::sort(tor_links.begin(), tor_links.end());
  for (const auto& [tor_vertex, incident] : tor_links) {
    const double budget =
        tor_budget_factor_ * topo_->tor(topo_->vertex_to_tor(tor_vertex)).port_bandwidth_gbps;
    entry.uses.emplace_back(resource(pack(tor_vertex, tor_vertex), budget), incident);
  }
  for (const auto& [r, coeff] : entry.uses) {
    touched.push_back(r);
    auto& users = resources_[r].users;
    users.insert(std::lower_bound(users.begin(), users.end(), id), id);
  }
  entries_.emplace(id, std::move(entry));
}

AllocationIndex::Scope AllocationIndex::collect(std::span<const NfcId> seeds,
                                                std::span<const std::uint32_t> touched) {
  Scope scope;
  ++stamp_;
  std::vector<std::uint32_t> frontier;
  const auto reach_resource = [&](std::uint32_t r) {
    if (resources_[r].stamp == stamp_) return;
    resources_[r].stamp = stamp_;
    frontier.push_back(r);
  };
  const auto reach_chain = [&](NfcId id, Entry& entry) {
    if (entry.stamp == stamp_) return;
    entry.stamp = stamp_;
    scope.ids.push_back(id);
    for (const auto& [r, coeff] : entry.uses) reach_resource(r);
  };
  for (const NfcId id : seeds) {
    if (const auto it = entries_.find(id); it != entries_.end()) reach_chain(id, it->second);
  }
  for (const std::uint32_t r : touched) reach_resource(r);
  while (!frontier.empty()) {
    const std::uint32_t r = frontier.back();
    frontier.pop_back();
    for (const NfcId id : resources_[r].users) reach_chain(id, entries_.at(id));
  }
  std::sort(scope.ids.begin(), scope.ids.end());

  // Renumber the reached resources densely, in first-use order of the
  // id-sorted chains, so the plan input is independent of walk order.
  ++stamp_;
  scope.chains.reserve(scope.ids.size());
  for (const NfcId id : scope.ids) {
    const Entry& entry = entries_.at(id);
    AllocChain chain{.id = id, .cls = entry.cls, .demand_gbps = entry.demand_gbps};
    chain.uses.reserve(entry.uses.size());
    for (const auto& [r, coeff] : entry.uses) {
      Resource& res = resources_[r];
      if (res.stamp != stamp_) {
        res.stamp = stamp_;
        res.local = static_cast<std::uint32_t>(scope.resources.size());
        scope.resources.push_back(AllocResource{res.capacity_gbps});
      }
      chain.uses.emplace_back(res.local, coeff);
    }
    scope.chains.push_back(std::move(chain));
  }
  return scope;
}

}  // namespace alvc::orchestrator
