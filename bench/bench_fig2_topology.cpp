// FIG2 — Hybrid ToR/OPS topology (paper Fig. 2, §III-B).
//
// Claim: the core is built from optical packet switches "in order to
// achieve higher bandwidth with small energy consumption"; O/E/O
// conversions are the expensive part.
//
// Experiment: for each OPS-core family (ref [29] evaluates several),
// report core diameter / mean ToR-to-ToR path length and the per-flow
// transport energy split between optical and electronic hops — optical
// cores shorten paths and keep bytes in the cheap domain. Also benchmarks
// topology construction throughput at increasing scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "core/alvc.h"
#include "graph/shortest_path.h"
#include "topology/validation.h"

namespace {

using namespace alvc;

topology::TopologyParams base_params(topology::CoreKind core, std::size_t ops = 16) {
  topology::TopologyParams params;
  params.rack_count = 12;
  params.ops_count = ops;
  params.tor_ops_degree = 4;
  params.core = core;
  params.core_degree = 4;
  params.service_count = 4;
  params.seed = 17;
  return params;
}

struct PathStats {
  double mean_hops = 0;
  double max_hops = 0;
  double optical_fraction = 0;  // of traversed links
};

PathStats tor_to_tor_paths(const topology::DataCenterTopology& topo) {
  const auto& g = topo.switch_graph();
  util::SampleSet hops;
  double optical_links = 0;
  double total_links = 0;
  for (std::size_t t = 0; t < topo.tor_count(); ++t) {
    const auto tree = graph::bfs(g, topo.tor_vertex(util::TorId{static_cast<util::TorId::value_type>(t)}));
    for (std::size_t u = 0; u < topo.tor_count(); ++u) {
      if (u == t) continue;
      const auto path = graph::extract_path(tree, topo.tor_vertex(util::TorId{static_cast<util::TorId::value_type>(u)}));
      if (!path) continue;
      hops.add(static_cast<double>(path->size() - 1));
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        ++total_links;
        if (topo.is_ops_vertex((*path)[i]) && topo.is_ops_vertex((*path)[i + 1])) ++optical_links;
      }
    }
  }
  return PathStats{hops.mean(), hops.max(),
                   total_links == 0 ? 0 : optical_links / total_links};
}

void print_experiment() {
  std::cout << "=== FIG2: hybrid topology — OPS core families (ref [29]) ===\n\n";
  core::TextTable table({"core", "OPSs", "core links", "connected", "mean ToR-ToR hops",
                         "max hops", "optical link fraction"});
  for (const auto core : {topology::CoreKind::kNone, topology::CoreKind::kRing,
                          topology::CoreKind::kTorus2D, topology::CoreKind::kRandomRegular,
                          topology::CoreKind::kFullMesh}) {
    const auto params = base_params(core);
    const auto topo = topology::build_topology(params);
    std::size_t core_links = 0;
    for (const auto& o : topo.opss()) core_links += o.peer_links.size();
    core_links /= 2;
    const auto stats = tor_to_tor_paths(topo);
    table.add_row_values(topology::to_string(core), topo.ops_count(), core_links,
                         topology::switch_layer_connected(topo) ? "yes" : "no",
                         core::fmt(stats.mean_hops, 2), core::fmt(stats.max_hops, 0),
                         core::fmt(stats.optical_fraction, 3));
  }
  table.print();
  std::cout << "\nExpected shape: richer cores (torus/full-mesh) shorten ToR-to-ToR paths and\n"
               "raise the fraction of links that stay optical — the paper's motivation for\n"
               "an OPS-built core.\n\n";
}

void print_core_energy() {
  // §III-B: "the proposed topology can be constructed using electronic
  // switches. However, in order to achieve higher bandwidth with small
  // energy consumption, we use OPS." Model both: same torus core, per-hop
  // transport energy at optical vs electronic rates.
  std::cout << "=== FIG2(b): transport energy — optical core vs electronic core ===\n\n";
  // Sparse uplinks + ring core so ToR-to-ToR paths actually traverse the
  // core (with dense uplinks most paths are ToR-OPS-ToR and the core never
  // gets exercised).
  auto params = base_params(topology::CoreKind::kRing, 16);
  params.rack_count = 16;
  params.tor_ops_degree = 1;
  params.uplink_locality = 1.0;
  const auto topo = topology::build_topology(params);
  const auto stats = tor_to_tor_paths(topo);
  const orchestrator::OeoCostModel model;
  core::TextTable table({"flow size (bytes)", "optical core (J)", "electronic core (J)",
                         "savings factor"});
  for (const double bytes : {1e6, 1e9, 1e12}) {
    // Mean path: core hops ride at the respective domain rate; edge hops
    // (ToR attachment) are electronic in both designs.
    const double core_hops = stats.mean_hops * stats.optical_fraction;
    const double edge_hops = stats.mean_hops - core_hops;
    const double optical_j = bytes * (core_hops * model.optical_joules_per_byte_hop +
                                      edge_hops * model.electronic_joules_per_byte_hop);
    const double electronic_j =
        bytes * stats.mean_hops * model.electronic_joules_per_byte_hop;
    table.add_row_values(core::fmt(bytes, 0), core::fmt(optical_j, 6),
                         core::fmt(electronic_j, 6),
                         core::fmt(electronic_j / optical_j, 2));
  }
  table.print();
  std::cout << "\nExpected shape: the optical core's advantage equals the per-byte-hop rate\n"
               "ratio on the core fraction of the path, and grows linearly with flow size —\n"
               "the §III-B justification for building the core from OPSs.\n\n";
}

void BM_BuildTopology(benchmark::State& state) {
  auto params = base_params(topology::CoreKind::kRing);
  params.rack_count = static_cast<std::size_t>(state.range(0));
  params.ops_count = params.rack_count * 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::build_topology(params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.total_vms()));
}
BENCHMARK(BM_BuildTopology)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_SwitchGraphRebuild(benchmark::State& state) {
  auto params = base_params(topology::CoreKind::kTorus2D);
  params.rack_count = static_cast<std::size_t>(state.range(0));
  auto topo = topology::build_topology(params);
  for (auto _ : state) {
    // Force a rebuild by touching the structure.
    const auto ops = topo.add_ops();
    topo.connect_tor_ops(util::TorId{0}, ops);
    benchmark::DoNotOptimize(topo.switch_graph());
  }
}
BENCHMARK(BM_SwitchGraphRebuild)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_SwitchGraphLinkFlip(benchmark::State& state) {
  // One ToR-OPS cable cut and repaired, then the graph read the next
  // routing call makes: what a flapping link costs the topology layer.
  auto params = base_params(topology::CoreKind::kTorus2D);
  params.rack_count = static_cast<std::size_t>(state.range(0));
  params.ops_count = std::max<std::size_t>(16, params.rack_count / 2);
  auto topo = topology::build_topology(params);
  const util::TorId tor{0};
  const util::OpsId ops = topo.tor(tor).uplinks.front();
  benchmark::DoNotOptimize(topo.switch_graph());
  for (auto _ : state) {
    ALVC_IGNORE_STATUS(topo.set_link_failed(tor, ops, true), "the link exists by construction");
    ALVC_IGNORE_STATUS(topo.set_link_failed(tor, ops, false), "the link exists by construction");
    benchmark::DoNotOptimize(topo.switch_graph());
  }
}
BENCHMARK(BM_SwitchGraphLinkFlip)->Arg(16)->Arg(128)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_ValidateTopology(benchmark::State& state) {
  auto params = base_params(topology::CoreKind::kRing);
  params.rack_count = static_cast<std::size_t>(state.range(0));
  const auto topo = topology::build_topology(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::validate(topo));
  }
}
BENCHMARK(BM_ValidateTopology)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  print_core_energy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
