// Incremental rebalance vs. the whole-fabric oracle.
//
// rebalance_bandwidth() re-plans only the connected components of the
// chain <-> resource graph that hold (or held) a chain whose route or
// reservation changed. This suite replays 20 seeds under each QoS policy
// — the overload soak's flash crowd, diurnal ramp and LOPRI churn, its
// MTBF/MTTR faults and whole-AL outage, elastic control-loop ticks, and
// operator migrations — and after every event settles the allocator and
// checks every routed chain's reservation against the whole-fabric plan
// of support/full_rebalance_oracle, bit for bit.
//
// The schedule also covers the index's rebuild paths: every run starts
// under kStrictLadder and switches to its QoS policy mid-run, and later
// tightens the ToR budget factor. Operator migrations are deliberately
// NOT followed by a rebalance, so the next event's pass must pick up the
// migrated chain from the dirty set. Per seed, at least one event must
// merge or split components AND change a chain's reservation, or the
// comparison would be vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/alvc.h"
#include "elastic/controller.h"
#include "faults/fault_injector.h"
#include "support/fixtures.h"
#include "support/full_rebalance_oracle.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultInjector;
using alvc::faults::LoadEvent;
using alvc::faults::OverloadInjector;
using alvc::nfv::HostRef;
using alvc::nfv::NfcSpec;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::test::FullRebalance;
using alvc::test::full_rebalance_oracle;
using alvc::util::NfcId;
using alvc::util::ServiceId;

constexpr std::uint64_t kSeeds = 20;
constexpr double kHorizonS = 40.0;
constexpr double kPolicySwitchS = 4.0;
constexpr double kBudgetChangeS = 24.0;

NfcSpec make_spec(const core::DataCenter& dc, std::uint32_t service, double gbps,
                  PriorityClass cls) {
  NfcSpec spec;
  spec.service = ServiceId{service};
  spec.name = "load-" + std::to_string(service);
  spec.bandwidth_gbps = gbps;
  spec.priority = cls;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                    *dc.catalog().find_by_type(VnfType::kNat)};
  return spec;
}

constexpr std::uint32_t kServices = 12;

/// Eight racks of three servers and twelve two-server services, laid out
/// in server order (as in the end-to-end churn workload), so every other
/// service straddles two racks. Chains then share ToR budgets along the
/// row, and arrivals and departures merge and split components. The run
/// starts under the default kStrictLadder; the schedule switches to the
/// QoS policy mid-run.
core::DataCenter make_dc(std::uint64_t seed) {
  core::DataCenterConfig config;
  config.topology.rack_count = 8;
  config.topology.servers_per_rack = 3;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 32;
  config.topology.tor_ops_degree = 6;
  config.topology.uplink_locality = 1.0;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = kServices;
  config.topology.server_local_services = true;
  config.topology.seed = seed * 7 + 1;
  config.seed = seed;
  core::DataCenter dc(config);
  auto clusters = dc.build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  dc.orchestrator().set_tor_budget_factor(1.0);
  ALVC_IGNORE_STATUS(
      dc.provision_chain(make_spec(dc, 0, 8.0, PriorityClass::kHipri),
                         core::PlacementAlgorithm::kGreedyOptical),
      "warm-up: capacity conflicts just mean fewer live chains");
  return dc;
}

alvc::elastic::ElasticParams elastic_params(std::uint64_t seed) {
  alvc::elastic::ElasticParams params;
  params.demand.seed = seed * 5 + 2;
  params.demand.horizon_s = kHorizonS;
  params.scaling.cooldown_s = 1.0;
  params.scaling.max_scale = 2.0;
  params.migration.hot_utilization = 0.6;
  params.migration.cooldown_s = 2.0;
  params.mode = alvc::elastic::ExecutionMode::kIncremental;
  return params;
}

enum class Step { kFault, kLoad, kTick, kMigrate, kSwitchPolicy, kBudgetFactor };

struct Event {
  double time_s = 0;
  Step step = Step::kTick;
  std::size_t index = 0;  // into the fault or load list
};

/// Moves function 0 of the lowest-id healthy chain to the first other
/// host of its slice that takes it. Returns whether a migration happened.
bool migrate_one(NetworkOrchestrator& orch) {
  const auto& topo = orch.clusters().topology();
  for (const ProvisionedChain* chain : orch.chains()) {
    if (chain->degraded || chain->placement.hosts.empty()) continue;
    const auto* vc = orch.clusters().find(chain->cluster);
    if (vc == nullptr) continue;
    const HostRef current = chain->placement.hosts.front();
    std::vector<HostRef> targets;
    for (const auto ops : vc->layer.opss) targets.emplace_back(ops);
    for (const auto tor : vc->layer.tors) {
      for (const auto server : topo.tor(tor).servers) {
        if (topo.server_usable(server)) targets.emplace_back(server);
      }
    }
    for (const HostRef& target : targets) {
      if (target == current) continue;
      if (orch.migrate_function(chain->record.id, 0, target).is_ok()) return true;
    }
  }
  return false;
}

/// Component label of every routed chain present in both oracles,
/// relabelled by the smallest such chain, so only merges and splits among
/// surviving chains show up as a difference.
std::map<NfcId, NfcId> shared_partition(const FullRebalance& a, const FullRebalance& b) {
  std::unordered_map<NfcId, bool> in_b;
  for (const auto& t : b.targets) in_b[t.id] = true;
  std::map<NfcId, NfcId> first_of_label;
  std::map<NfcId, NfcId> out;
  for (const auto& t : a.targets) {  // ascending id
    if (!in_b.contains(t.id)) continue;
    out[t.id] = first_of_label.try_emplace(t.component, t.id).first->second;
  }
  return out;
}

bool merged_or_split(const FullRebalance& before, const FullRebalance& after) {
  return shared_partition(before, after) != shared_partition(after, before);
}

struct SeedReport {
  std::size_t events_checked = 0;
  std::size_t migrations = 0;
  std::size_t settle_passes = 0;     // extra passes a shed-to-zero needed
  std::size_t topology_changes = 0;  // events that merged or split components
  std::size_t merge_split_with_changes = 0;
  std::size_t chains_checked = 0;
};

SeedReport run_seed(std::uint64_t seed, AllocationPolicy policy) {
  SeedReport report;
  auto dc = make_dc(seed);
  NetworkOrchestrator& orch = dc.orchestrator();
  const GreedyOpticalPlacement placement;
  alvc::elastic::ElasticController controller(orch, placement, elastic_params(seed));

  alvc::faults::FaultScheduleParams fault_params;
  fault_params.ops = {.mtbf_s = 35, .mttr_s = 7};
  fault_params.tor = {.mtbf_s = 55, .mttr_s = 6};
  fault_params.server = {.mtbf_s = 45, .mttr_s = 5};
  fault_params.link = {.mtbf_s = 40, .mttr_s = 6};
  fault_params.horizon_s = kHorizonS;
  fault_params.seed = seed;
  auto faults = FaultInjector::generate(dc.topology(), fault_params);
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    const auto outage = FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
    faults.insert(faults.end(), outage.begin(), outage.end());
  }

  // Load side, from the overload soak's generators: a flash crowd over
  // every service inside the whole-AL outage, a diurnal ramp of heavy
  // HIPRI demands, and Poisson LOPRI churn throughout.
  const double gbps[] = {2.0, 4.0, 6.0, 8.0};
  std::vector<NfcSpec> crowd;
  for (std::uint32_t service = 0; service < kServices; ++service) {
    crowd.push_back(make_spec(dc, service, gbps[(service + seed) % 4],
                              service % 3 == 0 ? PriorityClass::kLopri : PriorityClass::kHipri));
  }
  std::vector<NfcSpec> heavy;
  for (std::uint32_t service = 1; service < kServices; service += 3) {
    heavy.push_back(make_spec(dc, service, 8.0, PriorityClass::kHipri));
  }
  auto load = OverloadInjector::flash_crowd(crowd, 13.0, 0.3, 10.0, /*first_key=*/1000);
  const auto ramp = OverloadInjector::diurnal_ramp(heavy, 20.0, kHorizonS, /*first_key=*/2000);
  const auto churn = OverloadInjector::lopri_churn(crowd, 3.0, 5.0, kHorizonS, seed * 11 + 3,
                                                   /*first_key=*/3000);
  load.insert(load.end(), ramp.begin(), ramp.end());
  load.insert(load.end(), churn.begin(), churn.end());

  // One timeline; on a time tie, faults land first, then load, ticks,
  // migrations, and the knob changes.
  std::vector<Event> events;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    events.push_back({faults[i].time_s, Step::kFault, i});
  }
  for (std::size_t i = 0; i < load.size(); ++i) events.push_back({load[i].time_s, Step::kLoad, i});
  for (double t = 0.5; t < kHorizonS; t += 0.5) events.push_back({t, Step::kTick, 0});
  for (double t = 1.75; t < kHorizonS; t += 3.0) events.push_back({t, Step::kMigrate, 0});
  events.push_back({kPolicySwitchS, Step::kSwitchPolicy, 0});
  events.push_back({kBudgetChangeS, Step::kBudgetFactor, 0});
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.time_s < b.time_s; });

  std::unordered_map<std::uint32_t, NfcId> live_keys;
  FullRebalance before = full_rebalance_oracle(orch);
  for (const Event& event : events) {
    const auto& stats = orch.stats();
    const std::size_t moved_before = stats.alloc_downgrades + stats.alloc_restores;
    bool check = true;
    switch (event.step) {
      case Step::kFault:
        EXPECT_TRUE(alvc::faults::apply_fault(orch, faults[event.index]).has_value());
        break;
      case Step::kLoad: {
        const LoadEvent& le = load[event.index];
        if (le.provision) {
          if (auto id = orch.provision_chain(le.spec, placement)) live_keys[le.key] = *id;
        } else if (const auto it = live_keys.find(le.key); it != live_keys.end()) {
          if (orch.chain(it->second) != nullptr) {
            EXPECT_TRUE(orch.teardown_chain(it->second).is_ok());
          }
          live_keys.erase(it);
        }
        break;
      }
      case Step::kTick:
        controller.tick(event.time_s);
        break;
      case Step::kMigrate:
        // No rebalance and no check: the next event's pass must pick the
        // migrated chain up from the dirty set.
        if (migrate_one(orch)) ++report.migrations;
        check = false;
        break;
      case Step::kSwitchPolicy:
        orch.set_allocation_policy(policy);
        break;
      case Step::kBudgetFactor:
        orch.set_tor_budget_factor(0.5);
        break;
    }
    if (!check) continue;

    // Settle: a pass that sheds a chain to zero parks it, which changes
    // its component, so the next pass re-plans it (as a whole-fabric pass
    // would). A pass that changes nothing leaves nothing dirty.
    std::size_t passes = 0;
    while (orch.rebalance_bandwidth() > 0) {
      if (++passes >= 16) {
        ADD_FAILURE() << "rebalance never settled at t=" << event.time_s;
        break;
      }
    }
    report.settle_passes += passes;

    const FullRebalance after = full_rebalance_oracle(orch);
    for (const auto& t : after.targets) {
      // Bit for bit: the incremental plan is the whole-fabric plan.
      EXPECT_EQ(t.reserved_gbps, t.target_gbps)
          << "chain " << t.id.value() << " at t=" << event.time_s;
    }
    EXPECT_EQ(after.would_change(), 0u) << "t=" << event.time_s;
    ++report.events_checked;
    report.chains_checked += after.targets.size();

    const std::size_t moved = stats.alloc_downgrades + stats.alloc_restores - moved_before;
    if (merged_or_split(before, after)) {
      ++report.topology_changes;
      if (moved > 0) ++report.merge_split_with_changes;
    }
    before = after;
  }
  return report;
}

class IncrementalRebalanceDifferentialTest
    : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(IncrementalRebalanceDifferentialTest, MatchesTheWholeFabricPlanAfterEveryEvent) {
  SeedReport total;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    const SeedReport r = run_seed(seed, GetParam());
    // Non-vacuity per seed: some event reshaped the component graph and
    // the incremental pass moved bandwidth because of it.
    EXPECT_GT(r.merge_split_with_changes, 0u) << "no event merged or split components "
                                                 "while changing a reservation";
    total.events_checked += r.events_checked;
    total.migrations += r.migrations;
    total.settle_passes += r.settle_passes;
    total.topology_changes += r.topology_changes;
    total.merge_split_with_changes += r.merge_split_with_changes;
    total.chains_checked += r.chains_checked;
  }
  EXPECT_GT(total.migrations, 0u) << "no operator migration ever landed";
  std::cout << "[ policy " << to_string(GetParam()) << " ] " << total.events_checked
            << " events checked, " << total.chains_checked << " chain targets compared, "
            << total.topology_changes << " merged/split components ("
            << total.merge_split_with_changes << " with reservation changes), "
            << total.migrations << " unrebalanced migrations, " << total.settle_passes
            << " extra settle passes\n";
}

INSTANTIATE_TEST_SUITE_P(QosPolicies, IncrementalRebalanceDifferentialTest,
                         ::testing::Values(AllocationPolicy::kWaterFill,
                                           AllocationPolicy::kPriorityDowngrade),
                         [](const ::testing::TestParamInfo<AllocationPolicy>& info) {
                           return info.param == AllocationPolicy::kWaterFill
                                      ? std::string("WaterFill")
                                      : std::string("PriorityDowngrade");
                         });

}  // namespace
}  // namespace alvc::orchestrator
