// Overload survival and graceful-downgrade throughput.
//
// Experiment: the same overload schedule — a flash crowd landing inside a
// whole-AL outage, a diurnal ramp of sustained oversubscription, and
// adversarial LOPRI churn — driven end-to-end through ChaosRunner under
// each allocation policy, with silent-loss accounting. kStrictLadder is the
// legacy baseline (no rebalance ever runs); kWaterFill shares contended
// capacity fairly; kPriorityDowngrade additionally sheds LOPRI first so
// HIPRI chains ride out the crowd. Benchmarks: the water-filling planner at
// growing aggregate counts, one rebalance call on a loaded control plane
// where nothing changed (the incremental rebalance finds nothing dirty), a
// teardown + provision pair on the same plane (each re-plans only the
// components the chain touches), and the whole overload soak per policy —
// the "overload events per second" the control plane can absorb.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <vector>

#include "core/alvc.h"
#include "faults/chaos.h"
#include "faults/fault_injector.h"
#include "orchestrator/bandwidth_allocator.h"
#include "util/rng.h"

namespace {

using namespace alvc;
using nfv::PriorityClass;
using nfv::VnfType;
using orchestrator::AllocationPolicy;

nfv::NfcSpec make_spec(const core::DataCenter& dc, std::uint32_t service, double gbps,
                       PriorityClass cls) {
  nfv::NfcSpec spec;
  spec.service = util::ServiceId{service};
  spec.name = "load-" + std::to_string(service);
  spec.bandwidth_gbps = gbps;
  spec.priority = cls;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                    *dc.catalog().find_by_type(VnfType::kNat)};
  return spec;
}

core::DataCenter make_qos_dc(std::uint64_t seed, AllocationPolicy policy) {
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = seed * 7 + 1;
  config.seed = seed;
  core::DataCenter dc(config);
  if (auto built = dc.build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  dc.orchestrator().set_allocation_policy(policy);
  // Demand above the 10 Gbps uplink ports: QoS policies admit at a reduced
  // rung where the strict ladder would simply run degraded.
  (void)dc.provision_chain(make_spec(dc, 0, 16.0, PriorityClass::kHipri),
                           core::PlacementAlgorithm::kGreedyOptical);
  return dc;
}

faults::ChaosParams make_overload_params(const core::DataCenter& dc, std::uint64_t seed) {
  faults::ChaosParams params;
  params.schedule.ops = {.mtbf_s = 35, .mttr_s = 7};
  params.schedule.tor = {.mtbf_s = 55, .mttr_s = 6};
  params.schedule.server = {.mtbf_s = 45, .mttr_s = 5};
  params.schedule.link = {.mtbf_s = 40, .mttr_s = 6};
  params.schedule.horizon_s = 40;
  params.schedule.seed = seed;
  params.flow_rate_per_s = 20;
  params.traffic_seed = seed * 3 + 1;
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    params.scripted = faults::FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
  }

  const std::vector<nfv::NfcSpec> crowd{
      make_spec(dc, 0, 16.0, PriorityClass::kHipri),
      make_spec(dc, 1, 16.0, PriorityClass::kLopri),
      make_spec(dc, 2, 16.0, PriorityClass::kHipri),
  };
  const std::vector<nfv::NfcSpec> heavy{
      make_spec(dc, 1, 16.0, PriorityClass::kHipri),
      make_spec(dc, 2, 8.0, PriorityClass::kLopri),
  };
  auto load = faults::OverloadInjector::flash_crowd(crowd, 13.0, 0.3, 10.0, /*first_key=*/1000);
  const auto ramp = faults::OverloadInjector::diurnal_ramp(heavy, 20.0, 40.0, /*first_key=*/2000);
  const auto churn = faults::OverloadInjector::lopri_churn(crowd, 0.4, 5.0, 40.0, seed * 11 + 3,
                                                           /*first_key=*/3000);
  load.insert(load.end(), ramp.begin(), ramp.end());
  load.insert(load.end(), churn.begin(), churn.end());
  params.load = std::move(load);
  return params;
}

void print_experiment() {
  std::cout << "=== Overload downgrade: flash crowd + sustained oversubscription ===\n\n";
  core::TextTable table({"policy", "load events", "admitted", "admitted degraded", "rejected",
                         "torn down", "downgrades", "restores", "unaccounted", "audit"});
  for (const AllocationPolicy policy :
       {AllocationPolicy::kStrictLadder, AllocationPolicy::kWaterFill,
        AllocationPolicy::kPriorityDowngrade}) {
    std::size_t load_events = 0, admitted = 0, admitted_degraded = 0, rejected = 0;
    std::size_t torn_down = 0, downgrades = 0, restores = 0, unaccounted = 0, violations = 0;
    for (const std::uint64_t seed : {3u, 9u, 17u}) {
      auto dc = make_qos_dc(seed, policy);
      faults::ChaosRunner runner(dc.orchestrator(), make_overload_params(dc, seed));
      const auto report = runner.run();
      load_events += report.load_events;
      admitted += report.load_provisioned;
      admitted_degraded += report.load_provisioned_degraded;
      rejected += report.load_rejected;
      torn_down += report.load_torn_down;
      downgrades += dc.orchestrator().stats().alloc_downgrades;
      restores += dc.orchestrator().stats().alloc_restores;
      unaccounted += report.chains_unaccounted;
      violations += report.audit_violations;
    }
    table.add_row_values(to_string(policy), load_events, admitted, admitted_degraded, rejected,
                         torn_down, downgrades, restores, unaccounted,
                         violations == 0 ? "OK" : "VIOLATED");
  }
  table.print();
  std::cout << "\nExpected shape: the QoS policies convert strict-ladder rejections into\n"
               "degraded admissions, the priority policy sheds and restores LOPRI around\n"
               "the crowd, and every row reads 0 unaccounted chains and an OK audit.\n\n";
}

/// Seeded synthetic allocation instance: `n` chains drawing on sqrt-ish
/// many shared resources, mixed classes, oversubscribed on purpose.
std::pair<std::vector<orchestrator::AllocChain>, std::vector<orchestrator::AllocResource>>
make_instance(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t resources = 2 + n / 4;
  std::vector<orchestrator::AllocResource> caps(resources);
  for (auto& r : caps) r.capacity_gbps = rng.uniform(4.0, 24.0);
  std::vector<orchestrator::AllocChain> chains(n);
  for (std::size_t i = 0; i < n; ++i) {
    chains[i].id = util::NfcId{static_cast<util::NfcId::value_type>(i)};
    chains[i].cls = rng.bernoulli(0.5) ? PriorityClass::kHipri : PriorityClass::kLopri;
    chains[i].demand_gbps = rng.uniform(0.5, 10.0);
    for (std::uint32_t r = 0; r < resources; ++r) {
      if (rng.bernoulli(0.3)) chains[i].uses.emplace_back(r, rng.bernoulli(0.25) ? 2.0 : 1.0);
    }
    if (chains[i].uses.empty()) {
      chains[i].uses.emplace_back(static_cast<std::uint32_t>(i % resources), 1.0);
    }
  }
  return {std::move(chains), std::move(caps)};
}

void BM_WaterFillPlan(benchmark::State& state) {
  const auto [chains, caps] = make_instance(static_cast<std::size_t>(state.range(0)), 0xa110c);
  orchestrator::BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kWaterFill);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.plan(chains, caps));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_WaterFillPlan)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_PriorityDowngradePlan(benchmark::State& state) {
  const auto [chains, caps] = make_instance(static_cast<std::size_t>(state.range(0)), 0xa110c);
  orchestrator::BandwidthAllocator allocator;
  allocator.set_policy(AllocationPolicy::kPriorityDowngrade);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.plan(chains, caps));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PriorityDowngradePlan)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_RebalancePass(benchmark::State& state) {
  auto dc = make_qos_dc(7, AllocationPolicy::kPriorityDowngrade);
  // Load the remaining services so the rebalance walks a real chain set.
  (void)dc.provision_chain(make_spec(dc, 1, 16.0, PriorityClass::kLopri),
                           core::PlacementAlgorithm::kGreedyOptical);
  (void)dc.provision_chain(make_spec(dc, 2, 8.0, PriorityClass::kHipri),
                           core::PlacementAlgorithm::kGreedyOptical);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().rebalance_bandwidth());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebalancePass)->Unit(benchmark::kMicrosecond);

void BM_RebalanceAfterChurn(benchmark::State& state) {
  auto dc = make_qos_dc(7, AllocationPolicy::kPriorityDowngrade);
  // BM_RebalancePass's loaded plane; its service-2 chain is the one that
  // departs and re-arrives (a cluster backs one slice, so churn reuses it).
  (void)dc.provision_chain(make_spec(dc, 1, 16.0, PriorityClass::kLopri),
                           core::PlacementAlgorithm::kGreedyOptical);
  const auto churn = make_spec(dc, 2, 8.0, PriorityClass::kHipri);
  auto id = dc.provision_chain(churn, core::PlacementAlgorithm::kGreedyOptical);
  for (auto _ : state) {
    if (!id || !dc.teardown_chain(*id).is_ok()) {
      state.SkipWithError("the churning chain did not provision");
      break;
    }
    id = dc.provision_chain(churn, core::PlacementAlgorithm::kGreedyOptical);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebalanceAfterChurn)->Unit(benchmark::kMicrosecond);

void BM_OverloadSoak(benchmark::State& state) {
  const auto policy = static_cast<AllocationPolicy>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto dc = make_qos_dc(7, policy);
    auto params = make_overload_params(dc, 7);
    params.audit_every_event = false;  // measure the control plane, not the audit
    state.ResumeTiming();
    faults::ChaosRunner runner(dc.orchestrator(), std::move(params));
    const auto report = runner.run();
    events += report.fault_events + report.load_events;
    if (!report.clean()) state.SkipWithError("overload soak not clean");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(to_string(policy));
}
BENCHMARK(BM_OverloadSoak)
    ->Arg(static_cast<int>(AllocationPolicy::kStrictLadder))
    ->Arg(static_cast<int>(AllocationPolicy::kWaterFill))
    ->Arg(static_cast<int>(AllocationPolicy::kPriorityDowngrade))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
