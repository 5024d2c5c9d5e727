// ABL2 — Scalability and flexibility (the claim of the authors' companion
// work, ref [15]: the AL-based distributed architecture scales).
//
// Experiment: sweep the DC from hundreds to ~100k VMs; report wall time
// for topology construction, service clustering + AL construction, chain
// orchestration, and a traffic epoch, plus approximate memory footprint
// (element counts). The paper's architecture claims each stage stays
// tractable because ALs localise work per cluster.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/alvc.h"

namespace {

using namespace alvc;
using nfv::VnfType;

core::DataCenterConfig scale_config(std::size_t racks) {
  core::DataCenterConfig config;
  config.topology.rack_count = racks;
  config.topology.servers_per_rack = 8;
  config.topology.vms_per_server = 8;
  config.topology.ops_count = std::max<std::size_t>(16, racks * 2);
  config.topology.tor_ops_degree = 8;
  // Large DCs wire racks to nearby optical switches (compact ALs). The
  // stage-3 connectivity augmentation is disabled here: it is an extension
  // beyond the paper's two-stage algorithm, and with few services covering
  // every rack it consumes transit OPSs quadratically (FIG4/FIG5 measure it
  // at realistic per-cluster scale). With local uplinks the two-stage ALs
  // come out connected through shared ToRs anyway — reported below.
  config.topology.uplink_locality = 0.9;
  config.ensure_al_connectivity = false;
  config.topology.service_count = 4;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.core = topology::CoreKind::kTorus2D;
  config.topology.seed = 81;
  return config;
}

void print_experiment() {
  std::cout << "=== ABL2: scalability — wall time per stage vs DC size ===\n\n";
  core::TextTable table({"racks", "VMs", "OPSs", "build topo (ms)", "clusters+ALs (ms)",
                         "connected ALs", "4 chains (ms)", "10k flows (ms)", "rules resident"});
  for (const std::size_t racks : {8u, 32u, 128u, 512u, 1600u}) {
    const auto config = scale_config(racks);

    core::Stopwatch sw_topo;
    core::DataCenter dc(config);
    const double topo_ms = sw_topo.elapsed_ms();

    core::Stopwatch sw_cluster;
    const auto clusters = dc.build_clusters();
    const double cluster_ms = sw_cluster.elapsed_ms();
    if (!clusters) {
      table.add_row_values(racks, dc.topology().vm_count(), dc.topology().ops_count(),
                           core::fmt(topo_ms, 1), "failed", "-", "-", "-", "-");
      continue;
    }
    std::size_t connected_als = 0;
    cluster::AlBuildScratch scratch;
    for (const auto* vc : dc.clusters().clusters()) {
      if (cluster::cluster_subgraph_connected(dc.topology(), vc->layer, scratch)) ++connected_als;
    }

    core::Stopwatch sw_chains;
    std::size_t chains_ok = 0;
    for (std::size_t t = 0; t < 4; ++t) {
      nfv::NfcSpec spec;
      spec.service = util::ServiceId{static_cast<util::ServiceId::value_type>(t)};
      spec.name = "scale-" + std::to_string(t);
      spec.bandwidth_gbps = 1.0;
      spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                        *dc.catalog().find_by_type(VnfType::kNat)};
      if (dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical)) ++chains_ok;
    }
    const double chains_ms = sw_chains.elapsed_ms();

    core::Stopwatch sw_sim;
    sim::SimulationConfig sim_config;
    sim_config.flow_count = 10'000;
    const auto metrics = sim::simulate_traffic(dc.clusters(), sim_config);
    const double sim_ms = sw_sim.elapsed_ms();

    table.add_row_values(racks, dc.topology().vm_count(), dc.topology().ops_count(),
                         core::fmt(topo_ms, 1), core::fmt(cluster_ms, 1),
                         std::to_string(connected_als) + "/" +
                             std::to_string(dc.clusters().cluster_count()),
                         core::fmt(chains_ms, 1) + " (" + std::to_string(chains_ok) + " ok)",
                         core::fmt(sim_ms, 1),
                         dc.orchestrator().controller().tables().total_rules());
    (void)metrics;
  }
  table.print();
  std::cout << "\nExpected shape: every stage grows near-linearly in DC size; 100k-VM AL\n"
               "construction stays in seconds — the ref-[15] scalability claim. The\n"
               "'connected ALs' column shows the cost of skipping stage-3 augmentation:\n"
               "two-stage ALs cover every rack but are rarely connected subgraphs, so only\n"
               "chains whose slice happens to be connected can route (the '<n> ok' counts).\n"
               "FIG4/FIG5 measure augmentation at realistic per-cluster scale.\n\n";
}

void BM_EndToEndSmall(benchmark::State& state) {
  for (auto _ : state) {
    core::DataCenter dc(scale_config(8));
    benchmark::DoNotOptimize(dc.build_clusters());
  }
}
BENCHMARK(BM_EndToEndSmall)->Unit(benchmark::kMillisecond);

void BM_ClusterBuildOnly(benchmark::State& state) {
  const auto config = scale_config(static_cast<std::size_t>(state.range(0)));
  const auto topo = topology::build_topology(config.topology);
  const auto groups = cluster::group_vms_by_service(topo);
  const cluster::VertexCoverAlBuilder builder;
  cluster::AlBuildScratch scratch;
  for (auto _ : state) {
    cluster::OpsOwnership ownership(topo.ops_count());
    for (const auto& group : groups) {
      if (group.empty()) continue;
      benchmark::DoNotOptimize(
          builder.build(topo, group, ownership, util::ClusterId::invalid(), scratch));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topo.vm_count()));
}
BENCHMARK(BM_ClusterBuildOnly)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
