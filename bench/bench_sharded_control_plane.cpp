// Sharded control-plane throughput: fault sweep + recovery cost vs shard
// count (DESIGN.md §13).
//
// Experiment: per-event sweep work at mid scale — the control plane walks
// only the event's blast radius through the per-cluster membership
// indexes, at any shard count; the table shows visited chains per event
// against the total.
//
// Benchmarks: an OPS failure+recovery cycle (AL repair, scoped sweep,
// retry drain, rebalance) and a ToR cycle, parameterized by shard count
// (1 = the inline control plane). Mid scale (400 clusters / 400 chains) always runs;
// the million-VM shape (12,500 racks, 100k clusters, 100k chains) is
// registered only under ALVC_BENCH_SCALE=full because its one-off build
// dominates a default bench run.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/alvc.h"
#include "util/executor.h"

namespace {

using namespace alvc;
using nfv::VnfType;

struct ScaleShape {
  std::size_t racks = 100;
  std::size_t servers_per_rack = 4;
  std::size_t vms_per_server = 4;
  // Slices bind 1:1 to chains: one service/cluster/chain per server.
  [[nodiscard]] std::size_t services() const noexcept { return racks * servers_per_rack; }
};

/// Same layout as the scale soak: block service assignment gives service s
/// exactly server s's VMs, so each AL is one ToR plus one exclusive window
/// OPS. Heap-allocated — DataCenter must never be moved.
std::unique_ptr<core::DataCenter> make_scale_dc(const ScaleShape& shape) {
  core::DataCenterConfig config;
  config.topology.rack_count = shape.racks;
  config.topology.servers_per_rack = shape.servers_per_rack;
  config.topology.vms_per_server = shape.vms_per_server;
  config.topology.ops_count = shape.services();
  config.topology.tor_ops_degree = shape.servers_per_rack;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 1.0;
  config.topology.service_count = shape.services();
  config.topology.server_local_services = true;
  config.topology.seed = 42;
  config.seed = 42;
  auto dc = std::make_unique<core::DataCenter>(config);

  alvc::util::Executor build_exec(4);
  const auto builder = core::DataCenter::make_al_builder(config.al_algorithm, config.seed,
                                                         config.ensure_al_connectivity);
  const auto built = dc->clusters().build_all_clusters(*builder, &build_exec);
  if (!built.has_value()) throw std::runtime_error(built.error().to_string());

  for (std::uint32_t s = 0; s < shape.services(); ++s) {
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

core::DataCenter& mid_dc() {
  static auto dc = make_scale_dc(ScaleShape{});
  return *dc;
}

core::DataCenter& million_vm_dc() {
  static auto dc =
      make_scale_dc(ScaleShape{.racks = 12500, .servers_per_rack = 8, .vms_per_server = 10});
  return *dc;
}

void configure_sharding(core::DataCenter& dc, std::int64_t shards) {
  dc.orchestrator().set_sharding(static_cast<std::size_t>(shards));
}

util::OpsId owned_ops(const core::DataCenter& dc) {
  return dc.clusters().clusters().front()->layer.opss.front();
}

void ops_cycle_bench(benchmark::State& state, core::DataCenter& dc) {
  configure_sharding(dc, state.range(0));
  const util::OpsId victim = owned_ops(dc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().handle_ops_failure(victim));
    benchmark::DoNotOptimize(dc.orchestrator().handle_ops_recovery(victim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_MidScaleOpsCycle(benchmark::State& state) { ops_cycle_bench(state, mid_dc()); }
BENCHMARK(BM_MidScaleOpsCycle)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_MidScaleTorCycle(benchmark::State& state) {
  core::DataCenter& dc = mid_dc();
  configure_sharding(dc, state.range(0));
  const util::TorId victim{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().handle_tor_failure(victim));
    benchmark::DoNotOptimize(dc.orchestrator().handle_tor_recovery(victim));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_MidScaleTorCycle)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_MillionVmOpsCycle(benchmark::State& state) {
  ops_cycle_bench(state, million_vm_dc());
}

void print_experiment() {
  std::cout << "=== Sharded control plane: per-event sweep work vs shard count ===\n\n";
  core::TextTable table({"shards", "chains", "cycles", "chains visited", "visited/event"});
  core::DataCenter& dc = mid_dc();
  constexpr int kCycles = 20;
  const util::OpsId victim = owned_ops(dc);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
    // set_sharding starts a fresh agent, so its counters start at zero.
    dc.orchestrator().set_sharding(shards);
    for (int i = 0; i < kCycles; ++i) {
      if (!dc.orchestrator().handle_ops_failure(victim).has_value() ||
          !dc.orchestrator().handle_ops_recovery(victim).has_value()) {
        throw std::runtime_error("fault cycle failed");
      }
    }
    std::uint64_t visited = 0;
    const auto* agent = dc.orchestrator().agent();
    for (std::size_t s = 0; s < agent->shard_count(); ++s) {
      visited += agent->shard(s).counters().chains_visited;
    }
    table.add_row_values(std::to_string(shards), dc.orchestrator().chain_count(), kCycles * 2,
                         visited, visited / (kCycles * 2));
  }
  table.print();
  std::cout << "\nExpected shape: every row visits only the failing OPS's blast radius (one\n"
               "cluster, one chain) plus whatever the recovery restore pass touches,\n"
               "independent of total chain count and of the shard count.\n\n";
  dc.orchestrator().set_sharding(1);
}

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  if (const char* env = std::getenv("ALVC_BENCH_SCALE");
      env != nullptr && std::string(env) == "full") {
    benchmark::RegisterBenchmark("BM_MillionVmOpsCycle", BM_MillionVmOpsCycle)
        ->Arg(1)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(3);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
