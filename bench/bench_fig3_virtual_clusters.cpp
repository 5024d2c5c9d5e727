// FIG3 — Virtual clusters and OPS exclusivity (paper Fig. 3, §III-C).
//
// Claim: "one OPS cannot be part of two ALs at the same time" — exclusivity
// is the resource that limits how many VCs a fixed OPS pool can carry.
//
// Experiment: with a fixed DC, sweep the number of services (= requested
// VCs) and the OPS pool size; report how many clusters the pool admits
// before exhaustion, the OPSs consumed, and the residual pool. Benchmarks
// whole-DC cluster construction.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/alvc.h"

namespace {

using namespace alvc;

topology::TopologyParams params_for(std::size_t services, std::size_t ops_count,
                                    std::size_t degree) {
  topology::TopologyParams params;
  params.rack_count = 10;
  params.ops_count = ops_count;
  params.tor_ops_degree = degree;
  params.service_count = services;
  params.service_skew = 0.0;  // even groups: the cleanest capacity readout
  params.core = topology::CoreKind::kRing;
  params.seed = 23;
  return params;
}

void print_experiment() {
  std::cout << "=== FIG3: virtual clusters vs OPS pool (exclusivity pressure) ===\n\n";
  core::TextTable table({"services requested", "OPS pool", "ToR degree", "clusters built",
                         "OPSs used", "OPSs free", "exhausted?"});
  for (const std::size_t services : {2u, 4u, 6u, 8u, 12u}) {
    for (const std::size_t ops : {16u, 32u, 64u}) {
      const std::size_t degree = std::min<std::size_t>(8, ops / 2);
      auto topo = topology::build_topology(params_for(services, ops, degree));
      cluster::ClusterManager manager(topo);
      const cluster::VertexCoverAlBuilder builder;
      const auto groups = cluster::group_vms_by_service(topo);
      std::size_t built = 0;
      bool exhausted = false;
      for (std::size_t s = 0; s < groups.size(); ++s) {
        if (groups[s].empty()) continue;
        const auto id = manager.create_cluster(
            util::ServiceId{static_cast<util::ServiceId::value_type>(s)}, groups[s], builder);
        if (id) {
          ++built;
        } else {
          exhausted = true;
        }
      }
      const std::size_t free = manager.ownership().free_count();
      table.add_row_values(services, ops, degree, built, ops - free, free,
                           exhausted ? "yes" : "no");
    }
  }
  table.print();
  std::cout << "\nExpected shape: cluster count saturates once per-ToR free uplinks run out —\n"
               "each additional service needs roughly one disjoint OPS per covered ToR.\n\n";
}

void BM_CreateClustersByService(benchmark::State& state) {
  const auto services = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto topo = topology::build_topology(params_for(services, 16 * services, 8));
    cluster::ClusterManager manager(topo);
    const cluster::VertexCoverAlBuilder builder;
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.create_clusters_by_service(builder));
  }
}
BENCHMARK(BM_CreateClustersByService)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_OwnershipAcquireRelease(benchmark::State& state) {
  cluster::OpsOwnership ownership(1024);
  std::vector<util::OpsId> batch;
  for (std::uint32_t i = 0; i < 64; ++i) batch.push_back(util::OpsId{i});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ownership.acquire(batch, util::ClusterId{1}));
    ownership.release(batch, util::ClusterId{1});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_OwnershipAcquireRelease)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
