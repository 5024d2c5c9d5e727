// Serial vs parallel AL construction (batch build).
//
// The paper's per-group AL construction (§III-C) is independent work, so
// ClusterManager::build_all_clusters fans it out to a util::Executor.
// These benches measure the whole batch — speculative builds plus the
// deterministic commit pass — against the serial baseline, on two
// topology shapes:
//
//  * Partitioned: each service group owns its racks and a private OPS
//    block, so speculative read sets never overlap and every group
//    commits its parallel result (`spec_commits == groups`). This is the
//    embarrassingly-parallel headline case; on a 4+-core host the
//    parallel path should clear 2x for 8+ groups.
//  * Contended (random wiring, Zipf-mixed services): groups share ToRs,
//    speculative ALs collide, and most groups fall back to the serial
//    rebuild (`serial_rebuilds` dominates) — the speedup floor.
//
// Parallel benches use real time: google-benchmark's default CPU pacing
// only sees the main thread, which mostly blocks in wait_all.
//
// Run:   ./bench_parallel_al_build
// Repro: see EXPERIMENTS.md "PAR1".
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "cluster/cluster_manager.h"
#include "topology/builder.h"
#include "util/executor.h"

namespace {

using alvc::cluster::BatchBuildStats;
using alvc::cluster::ClusterManager;
using alvc::cluster::ResilientAlBuilder;
using alvc::cluster::VertexCoverAlBuilder;
using alvc::topology::CoreKind;
using alvc::topology::DataCenterTopology;
using alvc::topology::Resources;
using alvc::topology::TopologyParams;
using alvc::util::Executor;
using alvc::util::OpsId;
using alvc::util::ServiceId;
using alvc::util::TorId;

constexpr std::size_t kRacksPerGroup = 6;
constexpr std::size_t kServersPerRack = 6;
constexpr std::size_t kVmsPerServer = 6;
constexpr std::size_t kUplinksPerTor = 4;

/// Rack-partitioned DC: group g's VMs all live on its own racks, wired to
/// a private ring-connected OPS block. Builds are trivially feasible and
/// the groups' ownership read sets are disjoint, so every speculative
/// build commits.
DataCenterTopology make_partitioned(std::size_t groups) {
  DataCenterTopology topo;
  const Resources server_capacity{.cpu_cores = 32, .memory_gb = 128, .storage_gb = 1024};
  for (std::size_t g = 0; g < groups; ++g) {
    // A private OPS block: one per rack plus slack for the resilience pass.
    std::vector<OpsId> block;
    for (std::size_t o = 0; o < kRacksPerGroup + 4; ++o) {
      block.push_back(topo.add_ops(/*optoelectronic=*/o % 2 == 0));
    }
    for (std::size_t i = 0; i < block.size(); ++i) {
      topo.connect_ops_ops(block[i], block[(i + 1) % block.size()]);
    }
    for (std::size_t r = 0; r < kRacksPerGroup; ++r) {
      const TorId tor = topo.add_tor();
      for (std::size_t u = 0; u < kUplinksPerTor; ++u) {
        topo.connect_tor_ops(tor, block[(r + u) % block.size()]);
      }
      for (std::size_t s = 0; s < kServersPerRack; ++s) {
        const auto server = topo.add_server(tor, server_capacity);
        for (std::size_t v = 0; v < kVmsPerServer; ++v) {
          topo.add_vm(server, ServiceId{static_cast<ServiceId::value_type>(g)});
        }
      }
    }
  }
  return topo;
}

/// Random wiring, Zipf-mixed services: every group touches most racks, so
/// speculative builds read overlapping ownership cells and the commit
/// pass rebuilds most groups serially. Feasible for 8 groups.
TopologyParams contended_params(std::size_t groups) {
  TopologyParams params;
  params.rack_count = 48;
  params.servers_per_rack = kServersPerRack;
  params.vms_per_server = kVmsPerServer;
  params.ops_count = 16 * groups;
  params.tor_ops_degree = 2 * groups;
  params.core = CoreKind::kTorus2D;
  params.service_count = groups;
  params.service_skew = 0.3;
  params.optoelectronic_fraction = 0.5;
  params.seed = 99;
  return params;
}

void report_groups(benchmark::State& state, const BatchBuildStats& stats, std::size_t runs) {
  if (runs == 0) return;
  state.counters["groups"] = static_cast<double>(stats.groups) / static_cast<double>(runs);
  state.counters["spec_commits"] =
      static_cast<double>(stats.parallel_commits) / static_cast<double>(runs);
  state.counters["serial_rebuilds"] =
      static_cast<double>(stats.serial_rebuilds) / static_cast<double>(runs);
}

DataCenterTopology make_topo(std::size_t groups, bool contended) {
  return contended ? alvc::topology::build_topology(contended_params(groups))
                   : make_partitioned(groups);
}

void BM_SerialBuildAllClusters(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  DataCenterTopology topo = make_topo(groups, state.range(1) != 0);
  const ResilientAlBuilder builder;  // heaviest realistic per-group work
  BatchBuildStats stats;
  std::size_t runs = 0;
  for (auto _ : state) {
    ClusterManager manager(topo);
    auto ids = manager.build_all_clusters(builder, /*executor=*/nullptr, &stats);
    ++runs;
    if (!ids) {
      state.SkipWithError(ids.error().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(ids);
  }
  report_groups(state, stats, runs);
}

void BM_ParallelBuildAllClusters(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  DataCenterTopology topo = make_topo(groups, state.range(1) != 0);
  const ResilientAlBuilder builder;
  Executor exec(0);  // all hardware threads
  BatchBuildStats stats;
  std::size_t runs = 0;
  for (auto _ : state) {
    ClusterManager manager(topo);
    auto ids = manager.build_all_clusters(builder, &exec, &stats);
    ++runs;
    if (!ids) {
      state.SkipWithError(ids.error().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(ids);
  }
  report_groups(state, stats, runs);
  state.counters["threads"] = static_cast<double>(exec.thread_count());
}

// {groups, contended}: partitioned fans out cleanly (speedup headline);
// contended shows the serial-rebuild floor.
BENCHMARK(BM_SerialBuildAllClusters)
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelBuildAllClusters)
    ->Args({8, 0})
    ->Args({16, 0})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
