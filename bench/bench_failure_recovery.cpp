// Failure-recovery throughput and chain-survival accounting.
//
// Experiment: chaos runs (stochastic MTBF/MTTR fault schedules mixed with
// correlated whole-AL outages and live traffic) over a loaded DC, reporting
// how chains end up: still healthy, degraded, restored, lost, or silently
// unaccounted (which must never happen). Benchmarks: the cost of a full
// failure+recovery cycle per hardware class — the "repairs per second" the
// control plane can sustain.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/alvc.h"
#include "faults/chaos.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"

namespace {

using namespace alvc;
using nfv::VnfType;

core::DataCenter make_loaded_dc(std::uint64_t seed, std::size_t ops_count = 16) {
  core::DataCenterConfig config;
  config.topology.rack_count = 8;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = ops_count;
  config.topology.tor_ops_degree = 6;
  config.topology.service_count = 3;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.seed = seed;
  core::DataCenter dc(config);
  if (auto built = dc.build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    (void)dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
  }
  return dc;
}

void print_experiment() {
  std::cout << "=== Failure recovery: chain survival under chaos schedules ===\n\n";
  core::TextTable table({"seed", "fault events", "healthy", "degraded(end)", "restored", "lost",
                         "unaccounted", "flows served", "audit"});
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    auto dc = make_loaded_dc(seed, /*ops_count=*/10);  // tight spare pool
    faults::ChaosParams params;
    params.schedule.ops = {.mtbf_s = 35, .mttr_s = 7};
    params.schedule.tor = {.mtbf_s = 55, .mttr_s = 6};
    params.schedule.server = {.mtbf_s = 45, .mttr_s = 5};
    params.schedule.link = {.mtbf_s = 40, .mttr_s = 6};
    params.schedule.horizon_s = 40;
    params.schedule.seed = seed;
    params.flow_rate_per_s = 20;
    params.traffic_seed = seed + 1;
    const auto* vc0 = dc.clusters().clusters().front();
    if (!vc0->layer.opss.empty()) {
      params.scripted = faults::FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
    }
    faults::ChaosRunner runner(dc.orchestrator(), params);
    const auto report = runner.run();
    table.add_row_values(seed, report.fault_events, report.chains_live_healthy,
                         report.chains_live_degraded, report.chains_restored, report.chains_lost,
                         report.chains_unaccounted, report.flows_served,
                         report.audit_violations == 0 ? "OK" : "VIOLATED");
  }
  table.print();
  std::cout << "\nExpected shape: chains ride out the fault schedule — repairs and degraded\n"
               "mode absorb every outage, restorations follow recoveries, and no chain is\n"
               "ever lost silently. The audit column must read OK on every row.\n\n";
}

void BM_OpsFailureRecoveryCycle(benchmark::State& state) {
  auto dc = make_loaded_dc(7);
  // Cycle an owned OPS: failure evicts + repairs the AL and sweeps chains;
  // recovery re-integrates it and drains the retry queue.
  const util::OpsId victim = dc.clusters().clusters().front()->layer.opss.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().handle_ops_failure(victim));
    benchmark::DoNotOptimize(dc.orchestrator().handle_ops_recovery(victim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_OpsFailureRecoveryCycle)->Unit(benchmark::kMicrosecond);

void BM_TorFailureRecoveryCycle(benchmark::State& state) {
  auto dc = make_loaded_dc(7);
  const util::TorId victim{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().handle_tor_failure(victim));
    benchmark::DoNotOptimize(dc.orchestrator().handle_tor_recovery(victim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_TorFailureRecoveryCycle)->Unit(benchmark::kMicrosecond);

void BM_LinkFailureRecoveryCycle(benchmark::State& state) {
  auto dc = make_loaded_dc(7);
  const util::TorId tor{0};
  const util::OpsId ops = dc.topology().tor(tor).uplinks.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().handle_link_failure(tor, ops));
    benchmark::DoNotOptimize(dc.orchestrator().handle_link_recovery(tor, ops));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_LinkFailureRecoveryCycle)->Unit(benchmark::kMicrosecond);

/// The fault_storm fabric (e2e_bench): 1024 racks x 4 servers, 512
/// two-rack clusters (block services), ToR-OPS degree 3 over local uplink
/// windows, one single-function chain per cluster. Heap-allocated —
/// DataCenter must never be moved.
std::unique_ptr<core::DataCenter> make_fault_storm_dc() {
  core::DataCenterConfig config;
  config.topology.rack_count = 1024;
  config.topology.servers_per_rack = 4;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 1024;
  config.topology.tor_ops_degree = 3;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.service_count = 512;
  config.topology.server_local_services = true;
  config.topology.seed = 20160627;
  auto dc = std::make_unique<core::DataCenter>(config);
  if (auto built = dc->build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  for (std::uint32_t s = 0; s < 512; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc->catalog().find_by_type(VnfType::kFirewall)};
    if (!dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical).has_value()) {
      throw std::runtime_error("provisioning chain " + std::to_string(s) + " failed");
    }
  }
  return dc;
}

/// The fault_storm fabric with `degraded` clusters (every `stride`-th,
/// from cluster 0) held degraded behind dead ToRs, plus the link the cycle
/// flips at a ToR of healthy cluster 300: one of its AL links, or with
/// `off_layer` an uplink that no AL holding that ToR uses. Built once per
/// process: re-running the set-up would kill each victim's second rack.
struct FaultStormLinkFixture {
  std::unique_ptr<core::DataCenter> dc = make_fault_storm_dc();
  util::TorId tor = util::TorId::invalid();
  util::OpsId ops = util::OpsId::invalid();

  FaultStormLinkFixture(std::size_t degraded, std::size_t stride, bool off_layer = false) {
    const auto clusters = dc->clusters().clusters();
    for (std::size_t i = 0; i < degraded; ++i) {
      const util::TorId dead = clusters[i * stride]->layer.tors.front();
      if (!dc->orchestrator().handle_tor_failure(dead).has_value()) {
        throw std::runtime_error("ToR failure failed");
      }
    }
    if (dc->clusters().degraded_cluster_ids().size() != degraded) {
      throw std::runtime_error("expected exactly " + std::to_string(degraded) +
                               " degraded clusters");
    }
    const cluster::VirtualCluster& healthy = *clusters[300];
    if (off_layer) {
      for (util::TorId t : healthy.layer.tors) {
        const auto holders = dc->clusters().clusters_containing_tor(t);
        for (util::OpsId o : dc->topology().tor(t).uplinks) {
          const bool used = std::any_of(holders.begin(), holders.end(), [&](util::ClusterId id) {
            return dc->clusters().find(id)->layer.contains_ops(o);
          });
          if (used) continue;
          tor = t;
          ops = o;
          return;
        }
      }
      throw std::runtime_error("every uplink of cluster 300's ToRs is in an AL");
    }
    tor = healthy.layer.tors.front();
    for (util::OpsId o : dc->topology().tor(tor).uplinks) {
      if (healthy.layer.contains_ops(o)) ops = o;
    }
    if (!ops.valid()) throw std::runtime_error("healthy cluster has no AL uplink on its ToR");
  }
};

/// One link failure + recovery of `f`'s healthy link.
void run_link_cycle(benchmark::State& state, FaultStormLinkFixture& f) {
  auto& orch = f.dc->orchestrator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(orch.handle_link_failure(f.tor, f.ops));
    benchmark::DoNotOptimize(orch.handle_link_recovery(f.tor, f.ops));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

/// One link failure + recovery on a healthy cluster of the fault_storm
/// fabric while 4 other clusters sit degraded: the failure repairs the
/// cluster whose AL rides the link, and the recovery's restore pass checks
/// the degraded clusters that the repair's writes reach (none here: they
/// sit on other racks) — the cluster-layer work fault_storm's link events
/// pay.
void BM_FaultStormLinkCycle(benchmark::State& state) {
  static FaultStormLinkFixture f(4, 64);
  run_link_cycle(state, f);
}
BENCHMARK(BM_FaultStormLinkCycle)->Unit(benchmark::kMicrosecond);

/// The same cycle with 64 clusters (every 8th) held degraded, none of
/// whose footprints the cycle writes to: the restore pass wakes none of
/// them, so the row must cost what the 4-degraded row does
/// (scripts/bench_gate.py bounds the ratio).
void BM_FaultStormLinkCycleManyDegraded(benchmark::State& state) {
  static FaultStormLinkFixture f(64, 8);
  run_link_cycle(state, f);
}
BENCHMARK(BM_FaultStormLinkCycleManyDegraded)->Unit(benchmark::kMicrosecond);

/// The BM_FaultStormLinkCycle set-up, but the flipped link is an uplink of
/// cluster 300's ToR that no AL on that ToR uses, as most of fault_storm's
/// link cuts are: the failure repairs no cluster and sweeps no chain, and
/// the recovery checks no degraded cluster.
void BM_FaultStormLinkCycleOffLayer(benchmark::State& state) {
  static FaultStormLinkFixture f(4, 64, /*off_layer=*/true);
  run_link_cycle(state, f);
}
BENCHMARK(BM_FaultStormLinkCycleOffLayer)->Unit(benchmark::kMicrosecond);

void BM_StateAudit(benchmark::State& state) {
  auto dc = make_loaded_dc(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(faults::StateAuditor::audit(dc.orchestrator()));
  }
}
BENCHMARK(BM_StateAudit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
