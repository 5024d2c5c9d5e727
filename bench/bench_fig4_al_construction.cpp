// FIG4 — Abstraction-layer construction (paper Fig. 4, §III-C): the
// vertex-cover + max-weight algorithm versus the random baseline (the
// authors' earlier approach, ref [15]), a direct greedy set cover, and the
// exact optimum.
//
// Outputs:
//   1. the paper's worked Fig. 4 instance, step by step;
//   2. AL size (number of OPSs) per builder across DC scale and
//      multi-homing sweeps — the paper's "minimum set of switches" claim;
//   3. google-benchmark timings per builder.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "core/alvc.h"

namespace {

using namespace alvc;

/// The exact Fig. 4 instance (mirrors the golden unit test).
struct Fig4Instance {
  topology::DataCenterTopology topo;
  std::vector<util::VmId> group;

  Fig4Instance() {
    using util::OpsId;
    using util::TorId;
    for (int i = 0; i < 4; ++i) topo.add_ops();
    topo.connect_ops_ops(OpsId{1}, OpsId{2});
    for (int i = 0; i < 4; ++i) topo.add_tor();
    topo.connect_tor_ops(TorId{0}, OpsId{0});
    topo.connect_tor_ops(TorId{0}, OpsId{1});
    topo.connect_tor_ops(TorId{1}, OpsId{1});
    topo.connect_tor_ops(TorId{1}, OpsId{2});
    topo.connect_tor_ops(TorId{2}, OpsId{2});
    topo.connect_tor_ops(TorId{2}, OpsId{3});
    topo.connect_tor_ops(TorId{3}, OpsId{3});
    const auto s0 = topo.add_server(TorId{0}, {});
    const auto s1 = topo.add_server(TorId{0}, {});
    topo.add_server_homing(s1, TorId{1});
    const auto s2 = topo.add_server(TorId{2}, {});
    const auto s3 = topo.add_server(TorId{2}, {});
    topo.add_server_homing(s3, TorId{3});
    group.push_back(topo.add_vm(s0, util::ServiceId{0}));
    group.push_back(topo.add_vm(s1, util::ServiceId{0}));
    group.push_back(topo.add_vm(s1, util::ServiceId{0}));
    group.push_back(topo.add_vm(s0, util::ServiceId{0}));
    group.push_back(topo.add_vm(s2, util::ServiceId{0}));
    group.push_back(topo.add_vm(s3, util::ServiceId{0}));
  }
};

void print_paper_instance() {
  std::cout << "=== FIG4(a): the paper's worked example ===\n"
            << "6 VMs, 4 ToRs (ToR2's machines multi-homed under ToR1, 'ToR N' sees one VM),\n"
            << "4 OPSs. Paper's walk-through: select ToR 1 (covers 4 VMs), skip ToR 2 (already\n"
            << "covered), select ToR 3; then pick the OPSs for the selected ToRs.\n\n";
  Fig4Instance fig;
  cluster::AlBuildScratch scratch;
  core::TextTable table({"builder", "selected ToRs", "AL (OPS ids)", "AL size", "connected"});
  for (const auto algorithm :
       {core::AlAlgorithm::kVertexCover, core::AlAlgorithm::kRandom,
        core::AlAlgorithm::kGreedySetCover, core::AlAlgorithm::kExact}) {
    const auto builder = core::DataCenter::make_al_builder(algorithm, 3,
                                                           /*ensure_connectivity=*/false);
    cluster::OpsOwnership ownership(fig.topo.ops_count());
    const auto result =
        builder->build(fig.topo, fig.group, ownership, util::ClusterId::invalid(), scratch);
    if (!result) {
      table.add_row_values(builder->name(), "-", result.error().to_string(), "-", "-");
      continue;
    }
    std::string tors;
    for (auto t : result->layer.tors) {
      if (!tors.empty()) tors += ",";
      tors += std::to_string(t.value() + 1);  // paper numbers ToRs from 1
    }
    std::string opss;
    for (auto o : result->layer.opss) {
      if (!opss.empty()) opss += ",";
      opss += std::to_string(o.value());
    }
    table.add_row_values(builder->name(), tors, opss, result->layer.opss.size(),
                         result->connected ? "yes" : "no");
  }
  table.print();
  std::cout << "\nPaper expectation: vertex-cover selects ToRs {1,3} and a 2-OPS AL; the\n"
               "random baseline keeps all group ToRs and typically needs more OPSs.\n\n";
}

void print_sweep() {
  std::cout << "=== FIG4(b): AL size sweep — builder quality across DC scale ===\n\n";
  core::TextTable table({"racks", "OPSs", "dual-homing", "vertex-cover", "random",
                         "greedy-set-cover", "exact", "vc/exact ratio"});
  cluster::AlBuildScratch scratch;
  for (const std::size_t racks : {6u, 12u, 24u}) {
    for (const double homing : {0.0, 0.4}) {
      topology::TopologyParams params;
      params.rack_count = racks;
      params.ops_count = racks * 2;
      params.tor_ops_degree = 4;
      params.service_count = 1;  // one big group isolates builder quality
      params.dual_homing_probability = homing;
      params.core = topology::CoreKind::kRing;
      params.seed = 31;
      const auto topo = topology::build_topology(params);
      const auto groups = cluster::group_vms_by_service(topo);

      std::vector<double> sizes;
      for (const auto algorithm :
           {core::AlAlgorithm::kVertexCover, core::AlAlgorithm::kRandom,
            core::AlAlgorithm::kGreedySetCover, core::AlAlgorithm::kExact}) {
        // Average the stochastic baseline over several seeds.
        const int repeats = algorithm == core::AlAlgorithm::kRandom ? 10 : 1;
        double total = 0;
        for (int r = 0; r < repeats; ++r) {
          const auto builder = core::DataCenter::make_al_builder(
              algorithm, 100 + static_cast<std::uint64_t>(r), /*ensure_connectivity=*/false);
          cluster::OpsOwnership ownership(topo.ops_count());
          const auto result =
              builder->build(topo, groups[0], ownership, util::ClusterId::invalid(), scratch);
          total += result ? static_cast<double>(result->layer.opss.size()) : 0.0;
        }
        sizes.push_back(total / repeats);
      }
      table.add_row_values(racks, racks * 2, core::fmt(homing, 1), core::fmt(sizes[0], 1),
                           core::fmt(sizes[1], 1), core::fmt(sizes[2], 1),
                           core::fmt(sizes[3], 1),
                           core::fmt(sizes[3] > 0 ? sizes[0] / sizes[3] : 0.0, 2));
    }
  }
  table.print();
  std::cout << "\nExpected shape: vertex-cover <= random everywhere (the paper's improvement\n"
               "over ref [15]); the greedy stays within a small factor of the exact optimum;\n"
               "dual homing lets the ToR-minimisation stage shrink ALs further.\n\n";
}

void print_augmentation_cost() {
  std::cout << "=== FIG4(c): stage-3 connectivity augmentation cost ===\n"
            << "(extra OPSs recruited so the AL + its ToRs form a connected subgraph)\n\n";
  core::TextTable table({"racks", "core", "2-stage AL size", "augmented AL size",
                         "extra OPSs", "connected"});
  cluster::AlBuildScratch scratch;
  for (const std::size_t racks : {6u, 12u, 24u}) {
    for (const auto core : {topology::CoreKind::kRing, topology::CoreKind::kTorus2D,
                            topology::CoreKind::kFullMesh}) {
      topology::TopologyParams params;
      params.rack_count = racks;
      params.ops_count = racks * 2;
      params.tor_ops_degree = 4;
      params.service_count = 1;
      params.core = core;
      params.seed = 31;
      const auto topo = topology::build_topology(params);
      const auto groups = cluster::group_vms_by_service(topo);
      cluster::OpsOwnership bare_own(topo.ops_count());
      const cluster::VertexCoverAlBuilder bare{
          cluster::AlBuilderOptions{.ensure_connectivity = false}};
      const auto without =
          bare.build(topo, groups[0], bare_own, util::ClusterId::invalid(), scratch);
      cluster::OpsOwnership aug_own(topo.ops_count());
      const cluster::VertexCoverAlBuilder augmented;
      const auto with =
          augmented.build(topo, groups[0], aug_own, util::ClusterId::invalid(), scratch);
      if (!without || !with) {
        table.add_row_values(racks, topology::to_string(core), "failed", "-", "-", "-");
        continue;
      }
      table.add_row_values(racks, topology::to_string(core), without->layer.opss.size(),
                           with->layer.opss.size(), with->augmented_ops,
                           with->connected ? "yes" : "no");
    }
  }
  table.print();
  std::cout << "\nExpected shape: richer cores need fewer bridge OPSs (full-mesh: at most one\n"
               "extra hop connects anything); sparse rings pay the most. This is the price of\n"
               "the architectural requirement that an AL 'provides connectivity to all the\n"
               "machines of the group'.\n\n";
}

topology::DataCenterTopology bench_topo(std::size_t racks) {
  topology::TopologyParams params;
  params.rack_count = racks;
  params.ops_count = racks * 2;
  params.tor_ops_degree = 4;
  params.service_count = 1;
  params.dual_homing_probability = 0.3;
  params.seed = 37;
  return topology::build_topology(params);
}

template <typename Builder>
void run_builder_bench(benchmark::State& state, const Builder& builder) {
  const auto topo = bench_topo(static_cast<std::size_t>(state.range(0)));
  const auto groups = cluster::group_vms_by_service(topo);
  cluster::AlBuildScratch scratch;
  for (auto _ : state) {
    cluster::OpsOwnership ownership(topo.ops_count());
    benchmark::DoNotOptimize(
        builder.build(topo, groups[0], ownership, util::ClusterId::invalid(), scratch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(groups[0].size()));
}

void BM_VertexCoverAl(benchmark::State& state) {
  run_builder_bench(state, cluster::VertexCoverAlBuilder{});
}
BENCHMARK(BM_VertexCoverAl)->Arg(8)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_RandomAl(benchmark::State& state) {
  run_builder_bench(state, cluster::RandomAlBuilder{1});
}
BENCHMARK(BM_RandomAl)->Arg(8)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GreedySetCoverAl(benchmark::State& state) {
  run_builder_bench(state, cluster::GreedySetCoverAlBuilder{});
}
BENCHMARK(BM_GreedySetCoverAl)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ExactAl(benchmark::State& state) {
  run_builder_bench(state, cluster::ExactAlBuilder{});
}
BENCHMARK(BM_ExactAl)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_paper_instance();
  print_sweep();
  print_augmentation_cost();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
