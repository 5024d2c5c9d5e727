#include "orchestrator/bandwidth_allocator.h"

#include <algorithm>
#include <limits>

#include "graph/union_find.h"

namespace alvc::orchestrator {

using alvc::nfv::PriorityClass;
using alvc::util::NfcId;

namespace {

constexpr double kEps = 1e-9;

/// Progressive filling over one connected component: raise one common
/// level for every chain in `order`; a chain freezes when it reaches its
/// demand or when a resource it uses saturates. `resources` lists every
/// resource the component's chains use, so a round touches only those.
/// `used` carries reservations already granted (e.g. the HIPRI tier when
/// filling LOPRI) and is updated in place; `weight` is scratch indexed
/// like `capacity`. Returns the final common level; `iterations` counts
/// rounds.
double progressive_fill(std::span<const AllocChain> chains, std::span<const double> capacity,
                        std::span<const std::size_t> order,
                        std::span<const std::uint32_t> resources, std::vector<double>& used,
                        std::vector<double>& weight, std::vector<double>& share,
                        std::size_t& iterations) {
  // frozen[k] belongs to chains[order[k]]: sized by the component, not the
  // whole input, so planning many small components stays linear.
  std::vector<bool> frozen(order.size(), true);
  std::size_t unfrozen = 0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    share[i] = 0;
    if (chains[i].demand_gbps <= kEps) continue;
    if (chains[i].uses.empty()) {
      share[i] = chains[i].demand_gbps;  // uncontended: grant in full
      continue;
    }
    frozen[k] = false;
    ++unfrozen;
  }
  double level = 0;
  while (unfrozen > 0) {
    ++iterations;
    // Active weight per resource: units consumed per unit of level raise.
    for (std::uint32_t r : resources) weight[r] = 0.0;
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (frozen[k]) continue;
      const std::size_t i = order[k];
      delta = std::min(delta, chains[i].demand_gbps - share[i]);
      for (const auto& [r, coeff] : chains[i].uses) weight[r] += coeff;
    }
    for (std::uint32_t r : resources) {
      if (weight[r] <= kEps) continue;
      delta = std::min(delta, (capacity[r] - used[r]) / weight[r]);
    }
    delta = std::max(delta, 0.0);
    level += delta;
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (frozen[k]) continue;
      const std::size_t i = order[k];
      share[i] += delta;
      for (const auto& [r, coeff] : chains[i].uses) used[r] += coeff * delta;
    }
    // Freeze satisfied chains and every chain riding a saturated resource.
    std::size_t froze = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (frozen[k]) continue;
      const std::size_t i = order[k];
      bool stop = share[i] >= chains[i].demand_gbps - kEps;
      if (!stop) {
        for (const auto& [r, coeff] : chains[i].uses) {
          if (capacity[r] - used[r] <= kEps) {
            stop = true;
            break;
          }
        }
      }
      if (stop) {
        frozen[k] = true;
        ++froze;
        --unfrozen;
      }
    }
    // Numerical backstop: a round that froze nothing cannot make progress.
    if (froze == 0) break;
  }
  return level;
}

/// Per-call state plan() shares across components, indexed by resource
/// (capacity, used, weight) or by input position (share). A component
/// only ever reads and writes its own resources' and chains' slots.
struct PlanScratch {
  std::vector<double> capacity;
  std::vector<double> used;
  std::vector<double> weight;
  std::vector<double> share;
};

/// Plans one connected component (`members`, ids ascending, using exactly
/// `resources`) into `out`. Reads and writes only the component's slots of
/// `scratch` and `out`, which is what makes plan() decompose exactly.
void plan_component(AllocationPolicy policy, std::span<const AllocChain> chains,
                    std::span<const std::size_t> members, std::span<const std::uint32_t> resources,
                    PlanScratch& scratch, AllocationPlan& out) {
  using Allocator = BandwidthAllocator;
  const std::vector<double>& capacity = scratch.capacity;
  std::vector<double>& used = scratch.used;
  std::vector<double>& share = scratch.share;
  // HIPRI before LOPRI where classes matter; members arrive id-ascending.
  std::vector<std::size_t> hipri;
  std::vector<std::size_t> lopri;
  for (std::size_t i : members) {
    (chains[i].cls == PriorityClass::kHipri ? hipri : lopri).push_back(i);
  }

  // Continuous max-min shares.
  if (policy == AllocationPolicy::kWaterFill) {
    progressive_fill(chains, capacity, members, resources, used, scratch.weight, share,
                     out.fill_iterations);
  } else {
    // Two-tier: HIPRI fills against raw capacity, LOPRI against what's left.
    progressive_fill(chains, capacity, hipri, resources, used, scratch.weight, share,
                     out.fill_iterations);
    progressive_fill(chains, capacity, lopri, resources, used, scratch.weight, share,
                     out.fill_iterations);
  }

  // Quantize down to the ladder and re-derive usage from the rungs.
  for (std::uint32_t r : resources) used[r] = 0.0;
  for (std::size_t i : members) {
    out.target_gbps[i] = Allocator::quantize_down(chains[i].demand_gbps, share[i]);
    for (const auto& [r, coeff] : chains[i].uses) used[r] += coeff * out.target_gbps[i];
  }

  const auto fits = [&](std::size_t i, double add) {
    for (const auto& [r, coeff] : chains[i].uses) {
      if (used[r] + coeff * add > capacity[r] + kEps) return false;
    }
    return true;
  };
  const auto grant = [&](std::size_t i, double add) {
    out.target_gbps[i] += add;
    for (const auto& [r, coeff] : chains[i].uses) used[r] += coeff * add;
  };
  // Climb a single chain as far as its resources allow, one rung at a time.
  const auto climb_one = [&](std::size_t i) {
    for (;;) {
      const double next = Allocator::next_rung_gbps(chains[i].demand_gbps, out.target_gbps[i]);
      if (next <= 0 || !fits(i, next - out.target_gbps[i])) return;
      grant(i, next - out.target_gbps[i]);
    }
  };
  const auto climb_pass = [&](std::span<const std::size_t> order) {
    for (std::size_t i : order) climb_one(i);
  };

  if (policy == AllocationPolicy::kWaterFill) {
    // Work conservation: quantization can strand up to a rung of headroom
    // per chain; a single ordered pass reclaims it (climbs only consume,
    // so no chain can climb again after its turn).
    climb_pass(members);
    return;
  }
  // kPriorityDowngrade: climb HIPRI first, then shed LOPRI rung-by-rung
  // wherever that unblocks a short HIPRI. The loop terminates because every
  // progressing round removes at least one LOPRI rung. At exit, any still-
  // short HIPRI is blocked on a resource carrying zero LOPRI usage — the
  // priority-feasibility invariant StateAuditor re-derives.
  climb_pass(hipri);
  for (;;) {
    bool progressed = false;
    for (std::size_t h : hipri) {
      climb_one(h);
      for (;;) {
        const double next = Allocator::next_rung_gbps(chains[h].demand_gbps, out.target_gbps[h]);
        if (next <= 0) break;
        const double add = next - out.target_gbps[h];
        // Lowest-id LOPRI holding bandwidth on any resource blocking h.
        std::size_t victim = chains.size();
        for (const auto& [r, coeff] : chains[h].uses) {
          if (used[r] + coeff * add <= capacity[r] + kEps) continue;  // not blocking
          for (std::size_t l : lopri) {
            if (out.target_gbps[l] <= kEps) continue;
            const bool on_r = std::any_of(
                chains[l].uses.begin(), chains[l].uses.end(),
                [&](const std::pair<std::uint32_t, double>& use) { return use.first == r; });
            if (on_r && (victim == chains.size() || chains[l].id < chains[victim].id)) {
              victim = l;
            }
          }
        }
        if (victim == chains.size()) break;
        // Demote the victim one rung (1/8 sheds to zero).
        double demoted = 0;
        for (double fraction : Allocator::kLadder) {
          const double rung = chains[victim].demand_gbps * fraction;
          if (rung < out.target_gbps[victim] - kEps) {
            demoted = rung;
            break;
          }
        }
        grant(victim, demoted - out.target_gbps[victim]);
        ++out.lopri_demotions;
        progressed = true;
        climb_one(h);
      }
    }
    if (!progressed) break;
  }
  // Final work-conservation passes: HIPRI reclaims anything shedding freed
  // beyond what the blocked chains absorbed, then LOPRI takes the rest.
  climb_pass(hipri);
  climb_pass(lopri);
}

}  // namespace

WaterFillResult water_fill(std::span<const double> demands, double capacity_gbps) {
  std::vector<AllocChain> chains(demands.size());
  std::vector<std::size_t> order(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    chains[i].id = NfcId{static_cast<NfcId::value_type>(i)};
    chains[i].demand_gbps = demands[i];
    chains[i].uses = {{0U, 1.0}};
    order[i] = i;
  }
  const std::array<double, 1> capacity{std::max(capacity_gbps, 0.0)};
  const std::array<std::uint32_t, 1> resources{0U};
  std::vector<double> used(1, 0.0);
  std::vector<double> weight(1, 0.0);
  WaterFillResult result;
  result.grants.assign(demands.size(), 0.0);
  result.level = progressive_fill(chains, capacity, order, resources, used, weight, result.grants,
                                  result.iterations);
  return result;
}

double BandwidthAllocator::quantize_down(double demand_gbps, double share_gbps) noexcept {
  if (demand_gbps <= 0) return 0;
  for (double fraction : kLadder) {
    const double rung = demand_gbps * fraction;
    if (rung <= share_gbps + kEps) return rung;
  }
  return 0;
}

double BandwidthAllocator::next_rung_gbps(double demand_gbps, double current_gbps) noexcept {
  if (demand_gbps <= 0 || current_gbps >= demand_gbps - kEps) return 0;
  // kLadder is descending; the smallest rung above the current grant wins.
  double next = demand_gbps;
  for (double fraction : kLadder) {
    const double rung = demand_gbps * fraction;
    if (rung > current_gbps + kEps) next = rung;
  }
  return next;
}

AllocationPlan BandwidthAllocator::plan(std::span<const AllocChain> chains,
                                        std::span<const AllocResource> resources) const {
  AllocationPlan out;
  out.target_gbps.assign(chains.size(), 0.0);
  if (policy_ == AllocationPolicy::kStrictLadder) {
    // Strict behavior lives in the legacy fit path; the plan is a no-op
    // identity so callers never shrink or shed under it.
    for (std::size_t i = 0; i < chains.size(); ++i) out.target_gbps[i] = chains[i].demand_gbps;
    return out;
  }

  // Connected components of the chain <-> resource graph. Two chains
  // interact only through a resource they both use, so every stage below
  // (fill, quantization, climb, shedding) runs per component and the
  // result is bit-identical however the input is split or ordered.
  alvc::graph::UnionFind sets(resources.size());
  for (const AllocChain& chain : chains) {
    for (std::size_t k = 1; k < chain.uses.size(); ++k) {
      sets.unite(chain.uses.front().first, chain.uses[k].first);
    }
  }
  // Deterministic orders: ids ascending within a component. Inputs are
  // not assumed sorted.
  std::vector<std::size_t> by_id(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) by_id[i] = i;
  std::sort(by_id.begin(), by_id.end(),
            [&](std::size_t a, std::size_t b) { return chains[a].id < chains[b].id; });
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> component_of_root(resources.size(), kNone);
  std::vector<std::vector<std::size_t>> components;
  for (std::size_t i : by_id) {
    if (chains[i].uses.empty()) {
      components.push_back({i});  // touches nothing: a component of its own
      continue;
    }
    std::size_t& slot = component_of_root[sets.find(chains[i].uses.front().first)];
    if (slot == kNone) {
      slot = components.size();
      components.emplace_back();
    }
    components[slot].push_back(i);
  }

  PlanScratch scratch;
  scratch.capacity.resize(resources.size());
  for (std::size_t r = 0; r < resources.size(); ++r) {
    scratch.capacity[r] = resources[r].capacity_gbps;
  }
  scratch.used.assign(resources.size(), 0.0);
  scratch.weight.assign(resources.size(), 0.0);
  scratch.share.assign(chains.size(), 0.0);
  std::vector<bool> listed(resources.size(), false);
  std::vector<std::uint32_t> component_resources;
  for (const std::vector<std::size_t>& members : components) {
    component_resources.clear();
    for (std::size_t i : members) {
      for (const auto& [r, coeff] : chains[i].uses) {
        if (listed[r]) continue;
        listed[r] = true;
        component_resources.push_back(r);
      }
    }
    plan_component(policy_, chains, members, component_resources, scratch, out);
  }
  return out;
}

}  // namespace alvc::orchestrator
