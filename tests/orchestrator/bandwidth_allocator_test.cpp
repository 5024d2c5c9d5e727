// BandwidthAllocator: water-filling fairness and the ladder quantization it
// feeds the data plane. Covers the single-resource water_fill() primitive
// (max-min optimality, monotone restore), the rung helpers, and plan()
// under all three policies — including the priority-feasibility guarantee
// kPriorityDowngrade makes: a HIPRI chain is short only if it could not
// climb even with every LOPRI aggregate shed to zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "orchestrator/bandwidth_allocator.h"
#include "support/fixtures.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::PriorityClass;
using alvc::util::NfcId;
using alvc::util::Rng;

constexpr double kTol = 1e-6;

AllocChain make_chain(std::uint32_t id, double demand, PriorityClass cls,
                      std::vector<std::pair<std::uint32_t, double>> uses) {
  AllocChain chain;
  chain.id = NfcId{id};
  chain.cls = cls;
  chain.demand_gbps = demand;
  chain.uses = std::move(uses);
  return chain;
}

bool is_rung(double demand, double target) {
  if (target == 0.0) return true;
  return std::any_of(BandwidthAllocator::kLadder.begin(), BandwidthAllocator::kLadder.end(),
                     [&](double f) { return std::abs(demand * f - target) <= kTol; });
}

TEST(WaterFillTest, SplitsEquallyWhenEveryoneIsShort) {
  const std::vector<double> demands{4.0, 4.0, 4.0};
  const auto result = water_fill(demands, 6.0);
  ASSERT_EQ(result.grants.size(), 3u);
  for (double g : result.grants) EXPECT_NEAR(g, 2.0, kTol);
  EXPECT_NEAR(result.level, 2.0, kTol);
}

TEST(WaterFillTest, SatisfiedDemandsFreezeAndFreeTheRest) {
  const std::vector<double> demands{1.0, 10.0, 5.0};
  const auto result = water_fill(demands, 10.0);
  EXPECT_NEAR(result.grants[0], 1.0, kTol);
  EXPECT_NEAR(result.grants[1], 4.5, kTol);
  EXPECT_NEAR(result.grants[2], 4.5, kTol);
}

TEST(WaterFillTest, ZeroCapacityAndZeroDemandsAreHandled) {
  const std::vector<double> demands{2.0, 0.0};
  const auto dry = water_fill(demands, 0.0);
  EXPECT_NEAR(dry.grants[0], 0.0, kTol);
  EXPECT_NEAR(dry.grants[1], 0.0, kTol);
  const auto empty = water_fill(std::vector<double>{}, 5.0);
  EXPECT_TRUE(empty.grants.empty());
}

// Max-min optimality of the textbook single-resource case: every grant is
// min(demand, level), nothing exceeds capacity, and the split is work
// conserving (all of min(capacity, total demand) is handed out).
TEST(WaterFillTest, MaxMinOptimalityOnRandomInstances) {
  Rng rng(0x5eed0001);
  for (int trial = 0; trial < 200; ++trial) {
    ALVC_TRACE_SEED(trial);
    const std::size_t n = 1 + rng.uniform_index(8);
    std::vector<double> demands(n);
    double total = 0;
    for (double& d : demands) {
      d = rng.uniform(0.1, 10.0);
      total += d;
    }
    const double capacity = rng.uniform(0.0, total * 1.2);
    const auto result = water_fill(demands, capacity);

    double granted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(result.grants[i], std::min(demands[i], result.level), kTol);
      granted += result.grants[i];
    }
    EXPECT_LE(granted, capacity + kTol);
    EXPECT_NEAR(granted, std::min(capacity, total), kTol) << "not work conserving";
  }
}

// Monotone restore: growing the capacity never shrinks anyone's grant.
TEST(WaterFillTest, GrantsAreMonotoneInCapacity) {
  Rng rng(0x5eed0002);
  for (int trial = 0; trial < 100; ++trial) {
    ALVC_TRACE_SEED(trial);
    const std::size_t n = 1 + rng.uniform_index(6);
    std::vector<double> demands(n);
    for (double& d : demands) d = rng.uniform(0.1, 8.0);
    const double lo = rng.uniform(0.0, 20.0);
    const double hi = lo + rng.uniform(0.0, 10.0);
    const auto before = water_fill(demands, lo);
    const auto after = water_fill(demands, hi);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(after.grants[i], before.grants[i] - kTol);
    }
  }
}

TEST(LadderTest, QuantizeDownPicksTheLargestFittingRung) {
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(8.0, 8.0), 8.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(8.0, 7.0), 4.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(8.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(8.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(8.0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::quantize_down(0.0, 5.0), 0.0);
}

TEST(LadderTest, NextRungClimbsOneStepAtATime) {
  EXPECT_DOUBLE_EQ(BandwidthAllocator::next_rung_gbps(8.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::next_rung_gbps(8.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::next_rung_gbps(8.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::next_rung_gbps(8.0, 4.0), 8.0);
  EXPECT_DOUBLE_EQ(BandwidthAllocator::next_rung_gbps(8.0, 8.0), 0.0);
}

TEST(AllocationPlanTest, StrictLadderIsAnIdentityEvenUnderOversubscription) {
  BandwidthAllocator allocator;  // default policy: kStrictLadder
  const std::vector<AllocChain> chains{
      make_chain(0, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
      make_chain(1, 8.0, PriorityClass::kLopri, {{0, 1.0}}),
  };
  const std::vector<AllocResource> resources{{4.0}};  // wildly oversubscribed
  const auto plan = allocator.plan(chains, resources);
  EXPECT_DOUBLE_EQ(plan.target_gbps[0], 8.0);
  EXPECT_DOUBLE_EQ(plan.target_gbps[1], 8.0);
  EXPECT_EQ(plan.fill_iterations, 0u);
  EXPECT_EQ(plan.lopri_demotions, 0u);
}

TEST(AllocationPlanTest, WaterFillSharesAContendedLinkFairly) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kWaterFill);
  const std::vector<AllocChain> chains{
      make_chain(0, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
      make_chain(1, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
      make_chain(2, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
  };
  const std::vector<AllocResource> resources{{12.0}};
  const auto plan = allocator.plan(chains, resources);
  // Continuous shares are 4 each; 4 is the half rung, so quantization is
  // exact and nothing is left to climb.
  for (double t : plan.target_gbps) EXPECT_DOUBLE_EQ(t, 4.0);
}

TEST(AllocationPlanTest, UncontendedChainsAreGrantedInFull) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kWaterFill);
  const std::vector<AllocChain> chains{
      make_chain(0, 6.0, PriorityClass::kHipri, {}),  // no resources: free
      make_chain(1, 2.0, PriorityClass::kLopri, {{0, 1.0}}),
  };
  const std::vector<AllocResource> resources{{2.0}};
  const auto plan = allocator.plan(chains, resources);
  EXPECT_DOUBLE_EQ(plan.target_gbps[0], 6.0);
  EXPECT_DOUBLE_EQ(plan.target_gbps[1], 2.0);
}

/// Random multi-resource instance shared by the plan() property tests.
struct RandomInstance {
  std::vector<AllocChain> chains;
  std::vector<AllocResource> resources;
};

RandomInstance random_instance(Rng& rng, bool mixed_classes) {
  RandomInstance inst;
  const std::size_t r = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < r; ++i) {
    inst.resources.push_back(AllocResource{rng.uniform(1.0, 24.0)});
  }
  const std::size_t n = 1 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<std::uint32_t, double>> uses;
    for (std::uint32_t res = 0; res < r; ++res) {
      if (rng.bernoulli(0.6)) uses.emplace_back(res, rng.bernoulli(0.3) ? 2.0 : 1.0);
    }
    if (uses.empty()) uses.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(r)), 1.0);
    const auto cls = mixed_classes && rng.bernoulli(0.5) ? PriorityClass::kLopri
                                                         : PriorityClass::kHipri;
    inst.chains.push_back(
        make_chain(static_cast<std::uint32_t>(i), rng.uniform(0.5, 10.0), cls, std::move(uses)));
  }
  return inst;
}

void expect_feasible_rung_plan(const RandomInstance& inst, const AllocationPlan& plan) {
  std::vector<double> used(inst.resources.size(), 0.0);
  for (std::size_t i = 0; i < inst.chains.size(); ++i) {
    const auto& chain = inst.chains[i];
    EXPECT_TRUE(is_rung(chain.demand_gbps, plan.target_gbps[i]))
        << plan.target_gbps[i] << " is not a rung of " << chain.demand_gbps;
    EXPECT_LE(plan.target_gbps[i], chain.demand_gbps + kTol);
    for (const auto& [res, coeff] : chain.uses) used[res] += coeff * plan.target_gbps[i];
  }
  for (std::size_t res = 0; res < inst.resources.size(); ++res) {
    EXPECT_LE(used[res], inst.resources[res].capacity_gbps + kTol) << "resource " << res;
  }
}

// Work conservation: no chain may sit below a rung its resources could
// carry — exactly the invariant StateAuditor re-derives from live state.
void expect_work_conserving(const RandomInstance& inst, const AllocationPlan& plan) {
  std::vector<double> used(inst.resources.size(), 0.0);
  for (std::size_t i = 0; i < inst.chains.size(); ++i) {
    for (const auto& [res, coeff] : inst.chains[i].uses) used[res] += coeff * plan.target_gbps[i];
  }
  for (std::size_t i = 0; i < inst.chains.size(); ++i) {
    const auto& chain = inst.chains[i];
    const double next = BandwidthAllocator::next_rung_gbps(chain.demand_gbps, plan.target_gbps[i]);
    if (next <= 0) continue;  // already at full demand
    const double add = next - plan.target_gbps[i];
    bool blocked = false;
    for (const auto& [res, coeff] : chain.uses) {
      if (used[res] + coeff * add > inst.resources[res].capacity_gbps + kTol) {
        blocked = true;
        break;
      }
    }
    EXPECT_TRUE(blocked) << "chain " << i << " is short at " << plan.target_gbps[i]
                         << " yet every resource could carry its next rung";
  }
}

TEST(AllocationPlanTest, WaterFillPlansAreFeasibleRungsAndWorkConserving) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kWaterFill);
  Rng rng(0x5eed0003);
  for (int trial = 0; trial < 200; ++trial) {
    ALVC_TRACE_SEED(trial);
    const auto inst = random_instance(rng, /*mixed_classes=*/false);
    const auto plan = allocator.plan(inst.chains, inst.resources);
    expect_feasible_rung_plan(inst, plan);
    expect_work_conserving(inst, plan);
  }
}

TEST(AllocationPlanTest, PriorityDowngradePlansAreFeasibleRungsAndWorkConserving) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  Rng rng(0x5eed0004);
  for (int trial = 0; trial < 200; ++trial) {
    ALVC_TRACE_SEED(trial);
    const auto inst = random_instance(rng, /*mixed_classes=*/true);
    const auto plan = allocator.plan(inst.chains, inst.resources);
    expect_feasible_rung_plan(inst, plan);
    expect_work_conserving(inst, plan);
  }
}

// Priority-feasibility: any HIPRI chain short of its demand must be blocked
// even with every LOPRI grant excluded from the usage.
TEST(AllocationPlanTest, PriorityDowngradeNeverLeavesHipriBlockedByLopri) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  Rng rng(0x5eed0005);
  for (int trial = 0; trial < 300; ++trial) {
    ALVC_TRACE_SEED(trial);
    const auto inst = random_instance(rng, /*mixed_classes=*/true);
    const auto plan = allocator.plan(inst.chains, inst.resources);

    std::vector<double> used_hipri(inst.resources.size(), 0.0);
    for (std::size_t i = 0; i < inst.chains.size(); ++i) {
      if (inst.chains[i].cls != PriorityClass::kHipri) continue;
      for (const auto& [res, coeff] : inst.chains[i].uses) {
        used_hipri[res] += coeff * plan.target_gbps[i];
      }
    }
    for (std::size_t i = 0; i < inst.chains.size(); ++i) {
      const auto& chain = inst.chains[i];
      if (chain.cls != PriorityClass::kHipri) continue;
      const double next =
          BandwidthAllocator::next_rung_gbps(chain.demand_gbps, plan.target_gbps[i]);
      if (next <= 0) continue;
      const double add = next - plan.target_gbps[i];
      bool blocked_without_lopri = false;
      for (const auto& [res, coeff] : chain.uses) {
        if (used_hipri[res] + coeff * add > inst.resources[res].capacity_gbps + kTol) {
          blocked_without_lopri = true;
          break;
        }
      }
      EXPECT_TRUE(blocked_without_lopri)
          << "HIPRI chain " << i << " is short while LOPRI holds usable capacity";
    }
  }
}

// HIPRI dominance on a single shared resource with equal demands: no LOPRI
// chain ever ends above any HIPRI chain.
TEST(AllocationPlanTest, HipriDominatesLopriAtEqualDemands) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  Rng rng(0x5eed0006);
  for (int trial = 0; trial < 200; ++trial) {
    ALVC_TRACE_SEED(trial);
    const std::size_t n_hipri = 1 + rng.uniform_index(3);
    const std::size_t n_lopri = 1 + rng.uniform_index(3);
    const double demand = rng.uniform(1.0, 8.0);
    std::vector<AllocChain> chains;
    for (std::size_t i = 0; i < n_hipri + n_lopri; ++i) {
      chains.push_back(make_chain(static_cast<std::uint32_t>(i), demand,
                                  i < n_hipri ? PriorityClass::kHipri : PriorityClass::kLopri,
                                  {{0, 1.0}}));
    }
    const std::vector<AllocResource> resources{
        {rng.uniform(0.0, demand * static_cast<double>(n_hipri + n_lopri))}};
    const auto plan = allocator.plan(chains, resources);
    double min_hipri = demand;
    double max_lopri = 0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      if (i < n_hipri) {
        min_hipri = std::min(min_hipri, plan.target_gbps[i]);
      } else {
        max_lopri = std::max(max_lopri, plan.target_gbps[i]);
      }
    }
    EXPECT_GE(min_hipri, max_lopri - kTol);
  }
}

TEST(AllocationPlanTest, PriorityDowngradeStarvesLopriBeforeTouchingHipri) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  const std::vector<AllocChain> chains{
      make_chain(0, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
      make_chain(1, 8.0, PriorityClass::kLopri, {{0, 1.0}}),
  };
  // Capacity fits exactly one full demand: HIPRI takes it all.
  const std::vector<AllocResource> one_demand{{8.0}};
  const auto tight = allocator.plan(chains, one_demand);
  EXPECT_DOUBLE_EQ(tight.target_gbps[0], 8.0);
  EXPECT_DOUBLE_EQ(tight.target_gbps[1], 0.0);
  // With slack beyond the HIPRI demand, LOPRI picks up the residual rung.
  const std::vector<AllocResource> with_slack{{12.0}};
  const auto slack = allocator.plan(chains, with_slack);
  EXPECT_DOUBLE_EQ(slack.target_gbps[0], 8.0);
  EXPECT_DOUBLE_EQ(slack.target_gbps[1], 4.0);
}

// A hand-built instance where the shedding loop actually fires: the LOPRI
// rung sits on a resource that blocks a quantization-stranded HIPRI.
TEST(AllocationPlanTest, SheddingDemotesLopriOnABlockingResource) {
  BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  const std::vector<AllocChain> chains{
      make_chain(0, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
      make_chain(1, 8.0, PriorityClass::kHipri, {{0, 1.0}, {1, 1.0}}),
      make_chain(2, 8.0, PriorityClass::kLopri, {{1, 1.0}}),
  };
  const std::vector<AllocResource> resources{{13.0}, {8.0}};
  const auto plan = allocator.plan(chains, resources);
  // Chain 0 climbs into chain 1's quantization slack on resource 0; chain 1
  // is left short and blocked on both resources, so the LOPRI rung on
  // resource 1 is shed — and may climb back only after the loop proves the
  // real blocker is resource 0, which carries no LOPRI at all.
  EXPECT_DOUBLE_EQ(plan.target_gbps[0], 8.0);
  EXPECT_DOUBLE_EQ(plan.target_gbps[1], 4.0);
  EXPECT_DOUBLE_EQ(plan.target_gbps[2], 4.0);
  EXPECT_GE(plan.lopri_demotions, 1u);
}

// ---- exact decomposition over connected components ----

/// Seeded instance made of `components` independent sub-instances with
/// disjoint resources, interleaved: chain ids and resource indices of the
/// components are shuffled together, plus resources nobody uses, chains
/// with no resources, and (optionally) an isolated single-chain component.
struct MultiComponentInstance {
  RandomInstance whole;
  std::vector<RandomInstance> parts;  // each renumbered from 0
  std::vector<std::vector<std::size_t>> part_to_whole;  // chain positions in `whole`
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

MultiComponentInstance multi_component_instance(Rng& rng, std::size_t components) {
  MultiComponentInstance inst;
  std::vector<RandomInstance> parts;
  for (std::size_t c = 0; c < components; ++c) parts.push_back(random_instance(rng, true));
  // A chain that touches no resource, and an isolated single-chain part.
  RandomInstance free_chain;
  free_chain.chains.push_back(make_chain(0, rng.uniform(0.5, 10.0), PriorityClass::kLopri, {}));
  parts.push_back(std::move(free_chain));
  RandomInstance isolated;
  isolated.resources.push_back(AllocResource{rng.uniform(0.5, 4.0)});
  isolated.chains.push_back(make_chain(0, rng.uniform(0.5, 10.0), PriorityClass::kHipri,
                                       {{0, 1.0}}));
  parts.push_back(std::move(isolated));

  // Global resource numbering: every part's resources plus unused ones,
  // shuffled together.
  std::size_t resource_total = 3;  // resources with no users
  for (const auto& part : parts) resource_total += part.resources.size();
  std::vector<std::uint32_t> slots(resource_total);
  for (std::uint32_t r = 0; r < resource_total; ++r) slots[r] = r;
  shuffle(slots, rng);
  inst.whole.resources.assign(resource_total, AllocResource{rng.uniform(1.0, 24.0)});
  std::size_t next_slot = 0;
  std::vector<std::vector<std::uint32_t>> resource_map(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (const AllocResource& res : parts[p].resources) {
      resource_map[p].push_back(slots[next_slot]);
      inst.whole.resources[slots[next_slot++]] = res;
    }
  }
  // Global chain ids: distinct, shuffled across parts; input order shuffled.
  std::vector<std::pair<std::size_t, std::size_t>> members;  // (part, chain)
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (std::size_t i = 0; i < parts[p].chains.size(); ++i) members.emplace_back(p, i);
  }
  std::vector<std::uint32_t> ids(members.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = 10 * i + 3;
  shuffle(ids, rng);
  shuffle(members, rng);
  inst.part_to_whole.resize(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    inst.part_to_whole[p].resize(parts[p].chains.size());
  }
  for (std::size_t k = 0; k < members.size(); ++k) {
    const auto [p, i] = members[k];
    AllocChain chain = parts[p].chains[i];
    chain.id = NfcId{ids[k]};
    parts[p].chains[i].id = chain.id;  // the part plans under the same ids
    for (auto& [r, coeff] : chain.uses) r = resource_map[p][r];
    inst.whole.chains.push_back(std::move(chain));
    inst.part_to_whole[p][i] = k;
  }
  inst.parts = std::move(parts);
  return inst;
}

void expect_plan_decomposes(AllocationPolicy policy, std::uint64_t seed) {
  BandwidthAllocator allocator;
  allocator.set_policy(policy);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    ALVC_TRACE_SEED(trial);
    const auto inst = multi_component_instance(rng, 1 + rng.uniform_index(4));
    const AllocationPlan whole = allocator.plan(inst.whole.chains, inst.whole.resources);
    std::size_t iterations = 0;
    for (std::size_t p = 0; p < inst.parts.size(); ++p) {
      const AllocationPlan part = allocator.plan(inst.parts[p].chains, inst.parts[p].resources);
      iterations += part.fill_iterations;
      for (std::size_t i = 0; i < part.target_gbps.size(); ++i) {
        // Bit for bit, not within a tolerance.
        EXPECT_EQ(whole.target_gbps[inst.part_to_whole[p][i]], part.target_gbps[i])
            << "part " << p << " chain " << i;
      }
    }
    EXPECT_EQ(whole.fill_iterations, iterations) << "rounds are summed over components";
    expect_feasible_rung_plan(inst.whole, whole);
    expect_work_conserving(inst.whole, whole);

    // Permuting the input order changes nothing.
    std::vector<std::size_t> order(inst.whole.chains.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    std::vector<AllocChain> permuted;
    for (std::size_t i : order) permuted.push_back(inst.whole.chains[i]);
    const AllocationPlan again = allocator.plan(permuted, inst.whole.resources);
    for (std::size_t k = 0; k < order.size(); ++k) {
      EXPECT_EQ(again.target_gbps[k], whole.target_gbps[order[k]]);
    }
    EXPECT_EQ(again.fill_iterations, whole.fill_iterations);
  }
}

TEST(AllocationPlanDecompositionTest, WaterFillPlanEqualsStitchedComponentPlans) {
  expect_plan_decomposes(AllocationPolicy::kWaterFill, 0x5eed0010);
}

TEST(AllocationPlanDecompositionTest, PriorityDowngradePlanEqualsStitchedComponentPlans) {
  expect_plan_decomposes(AllocationPolicy::kPriorityDowngrade, 0x5eed0011);
}

TEST(AllocationPlanDecompositionTest, EdgeCasesPlanAsTheirOwnComponents) {
  for (const AllocationPolicy policy :
       {AllocationPolicy::kWaterFill, AllocationPolicy::kPriorityDowngrade}) {
    BandwidthAllocator allocator;
    allocator.set_policy(policy);
    // Resource 1 has no users; chain 5 has an empty uses list; chain 7 is
    // alone on resource 2; chains 3 and 4 contend on resource 0.
    const std::vector<AllocChain> chains{
        make_chain(4, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
        make_chain(7, 8.0, PriorityClass::kLopri, {{2, 1.0}}),
        make_chain(5, 6.0, PriorityClass::kLopri, {}),
        make_chain(3, 8.0, PriorityClass::kHipri, {{0, 1.0}}),
    };
    const std::vector<AllocResource> resources{{8.0}, {0.5}, {3.0}};
    const auto plan = allocator.plan(chains, resources);
    EXPECT_DOUBLE_EQ(plan.target_gbps[0], 4.0);
    EXPECT_DOUBLE_EQ(plan.target_gbps[3], 4.0);
    EXPECT_DOUBLE_EQ(plan.target_gbps[1], 2.0) << "isolated chain: largest rung under 3 Gbps";
    EXPECT_DOUBLE_EQ(plan.target_gbps[2], 6.0) << "no resources: granted in full";

    // Each one alone gives the same answer.
    const std::vector<AllocChain> just_isolated{chains[1]};
    EXPECT_EQ(allocator.plan(just_isolated, resources).target_gbps[0], plan.target_gbps[1]);
    const std::vector<AllocChain> just_free{chains[2]};
    EXPECT_EQ(allocator.plan(just_free, {}).target_gbps[0], plan.target_gbps[2]);
    // No chains at all: an empty plan, whatever the resources.
    EXPECT_TRUE(allocator.plan({}, resources).target_gbps.empty());
  }
}

}  // namespace
}  // namespace alvc::orchestrator
