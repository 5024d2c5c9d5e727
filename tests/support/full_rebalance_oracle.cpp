#include "support/full_rebalance_oracle.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "graph/union_find.h"

namespace alvc::test {

using alvc::orchestrator::AllocationPlan;
using alvc::orchestrator::AllocationPolicy;
using alvc::orchestrator::AllocChain;
using alvc::orchestrator::AllocResource;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::ProvisionedChain;
using alvc::util::NfcId;

std::size_t FullRebalance::would_change() const {
  constexpr double kEps = 1e-9;
  return static_cast<std::size_t>(
      std::count_if(targets.begin(), targets.end(), [](const OracleTarget& t) {
        return t.target_gbps + kEps < t.reserved_gbps || t.target_gbps > t.reserved_gbps + kEps;
      }));
}

FullRebalance full_rebalance_oracle(const NetworkOrchestrator& orch) {
  FullRebalance out;
  const auto& allocator = orch.allocator();
  if (allocator.policy() == AllocationPolicy::kStrictLadder) return out;
  const auto& topo = orch.clusters().topology();
  const double factor = allocator.tor_budget_factor();

  // Snapshot: each routed chain's distinct route links, sorted, ascending
  // id. Parked chains have no route and stay with the retry queue.
  std::vector<const ProvisionedChain*> routed;
  std::vector<std::vector<std::uint64_t>> routed_links;
  for (const ProvisionedChain* chain : orch.chains()) {
    if (chain->route.vertices.empty()) continue;
    std::vector<std::uint64_t> links;
    const auto& walk = chain->route.vertices;
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto [lo, hi] = std::minmax(walk[i], walk[i + 1]);
      if (lo == hi) continue;
      links.push_back((static_cast<std::uint64_t>(lo) << 32) |
                      static_cast<std::uint64_t>(hi & 0xffffffffULL));
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    routed.push_back(chain);
    routed_links.push_back(std::move(links));
  }

  // Index resources in encounter order: each distinct route link (coeff
  // 1.0), plus one aggregate uplink budget per ToR the route crosses, with
  // coeff = the number of incident route links.
  std::vector<AllocChain> alloc;
  std::vector<AllocResource> resources;
  std::unordered_map<std::uint64_t, std::uint32_t> link_index;
  std::unordered_map<std::size_t, std::uint32_t> tor_budget_index;  // ToR vertex -> resource
  for (std::size_t c = 0; c < routed.size(); ++c) {
    const ProvisionedChain& chain = *routed[c];
    AllocChain ac;
    ac.id = chain.record.id;
    ac.cls = chain.record.spec.priority;
    ac.demand_gbps = chain.record.spec.bandwidth_gbps;
    std::vector<std::pair<std::uint32_t, double>> tor_uses;
    for (const std::uint64_t k : routed_links[c]) {
      const auto u = static_cast<std::size_t>(k >> 32);
      const auto v = static_cast<std::size_t>(k & 0xffffffffULL);
      const auto [lit, fresh] =
          link_index.try_emplace(k, static_cast<std::uint32_t>(resources.size()));
      if (fresh) resources.push_back(AllocResource{orch.bandwidth().capacity_gbps(u, v)});
      ac.uses.emplace_back(lit->second, 1.0);
      if (factor <= 0) continue;
      for (const std::size_t end : {u, v}) {
        if (topo.is_ops_vertex(end)) continue;
        const auto [tit, tor_fresh] =
            tor_budget_index.try_emplace(end, static_cast<std::uint32_t>(resources.size()));
        if (tor_fresh) {
          resources.push_back(
              AllocResource{factor * topo.tor(topo.vertex_to_tor(end)).port_bandwidth_gbps});
        }
        const auto prior = std::find_if(tor_uses.begin(), tor_uses.end(),
                                        [&](const auto& use) { return use.first == tit->second; });
        if (prior == tor_uses.end()) {
          tor_uses.emplace_back(tit->second, 1.0);
        } else {
          prior->second += 1.0;
        }
      }
    }
    std::sort(tor_uses.begin(), tor_uses.end());
    ac.uses.insert(ac.uses.end(), tor_uses.begin(), tor_uses.end());
    alloc.push_back(std::move(ac));
  }

  const AllocationPlan plan = allocator.plan(alloc, resources);

  // Component labels: resources joined by a chain that uses them both; a
  // chain without resources is its own component.
  alvc::graph::UnionFind sets(resources.size());
  for (const AllocChain& ac : alloc) {
    for (std::size_t k = 1; k < ac.uses.size(); ++k) {
      sets.unite(ac.uses.front().first, ac.uses[k].first);
    }
  }
  std::unordered_map<std::size_t, NfcId> label_of_root;  // chains arrive id-ascending
  out.targets.reserve(alloc.size());
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    NfcId label = alloc[i].id;
    if (!alloc[i].uses.empty()) {
      label = label_of_root.try_emplace(sets.find(alloc[i].uses.front().first), alloc[i].id)
                  .first->second;
    }
    out.targets.push_back(OracleTarget{.id = alloc[i].id,
                                       .reserved_gbps = routed[i]->reserved_gbps,
                                       .target_gbps = plan.target_gbps[i],
                                       .component = label});
  }
  return out;
}

}  // namespace alvc::test
