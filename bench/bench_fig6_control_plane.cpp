// FIG6 — NFV functional blocks (paper Fig. 6, §IV-B): SDN controller +
// Cloud/NFV manager.
//
// Claim: the virtualization layer rests on two managers — the SDN
// controller (provisions virtual connectivity, installs paths) and the
// Cloud/NFV manager (VM/storage resources, VNF lifecycle: creation,
// scaling, termination, update).
//
// Experiment: replay a full VNF lifecycle fleet through the Cloud/NFV
// manager and a path-churn workload through the SDN controller; report
// operation counts, lifecycle transition balance, and throughput.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/alvc.h"
#include "graph/shortest_path.h"

namespace {

using namespace alvc;
using nfv::VnfType;

void print_lifecycle_experiment() {
  std::cout << "=== FIG6(a): Cloud/NFV manager — VNF lifecycle fleet ===\n\n";
  core::DataCenterConfig config;
  config.topology.rack_count = 8;
  config.topology.ops_count = 32;
  config.topology.tor_ops_degree = 8;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.seed = 43;
  core::DataCenter dc(config);

  sdn::CloudNfvManager cloud(dc.catalog(), dc.topology());
  util::Rng rng(7);
  std::vector<nfv::VnfInstanceId> live;
  std::size_t deploy_attempts = 0;
  core::Stopwatch sw;
  for (int step = 0; step < 5000; ++step) {
    const double action = rng.uniform01();
    if (action < 0.45) {
      // Deploy a random VNF on a random host kind.
      const util::VnfId fn{static_cast<util::VnfId::value_type>(
          rng.uniform_index(dc.catalog().size()))};
      nfv::HostRef host;
      if (rng.bernoulli(0.4)) {
        const util::OpsId ops{static_cast<util::OpsId::value_type>(
            rng.uniform_index(dc.topology().ops_count()))};
        host = ops;
      } else {
        const util::ServerId server{static_cast<util::ServerId::value_type>(
            rng.uniform_index(dc.topology().server_count()))};
        host = server;
      }
      ++deploy_attempts;
      if (const auto id = cloud.deploy(fn, host)) live.push_back(*id);
    } else if (action < 0.65 && !live.empty()) {
      (void)cloud.scale(live[rng.uniform_index(live.size())], 1.0 + rng.uniform01());
    } else if (action < 0.8 && !live.empty()) {
      (void)cloud.update(live[rng.uniform_index(live.size())]);
    } else if (!live.empty()) {
      const std::size_t i = rng.uniform_index(live.size());
      (void)cloud.terminate(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  const double ms = sw.elapsed_ms();
  const auto& stats = cloud.stats();
  core::TextTable table({"metric", "value"});
  table.add_row_values("deploy attempts", deploy_attempts);
  table.add_row_values("deployed", stats.deployed);
  table.add_row_values("rejected (capacity/domain)", stats.rejected);
  table.add_row_values("scaled", stats.scaled);
  table.add_row_values("updated", stats.updated);
  table.add_row_values("terminated", stats.terminated);
  table.add_row_values("still active", cloud.lifecycle().active_count());
  const auto& lifecycle = cloud.lifecycle();
  for (auto state : {nfv::VnfState::kInstantiating, nfv::VnfState::kActive,
                     nfv::VnfState::kScaling, nfv::VnfState::kUpdating,
                     nfv::VnfState::kTerminating, nfv::VnfState::kTerminated}) {
    table.add_row_values("transitions to " + std::string(nfv::to_string(state)),
                         lifecycle.transitions_to(state));
  }
  table.add_row_values("pool consistent", cloud.pool().is_consistent() ? "yes" : "no");
  table.add_row_values("wall time (ms)", core::fmt(ms, 1));
  table.print();

  // The manager drives every transient state through a paired helper
  // (activate, scale, update, terminate), so each one is left again:
  // every entry into instantiating, scaling or updating returns to active,
  // and every terminating instance ends terminated.
  using nfv::VnfState;
  const bool balanced =
      lifecycle.transitions_to(VnfState::kActive) ==
          lifecycle.transitions_to(VnfState::kInstantiating) +
              lifecycle.transitions_to(VnfState::kScaling) +
              lifecycle.transitions_to(VnfState::kUpdating) &&
      lifecycle.transitions_to(VnfState::kTerminated) ==
          lifecycle.transitions_to(VnfState::kTerminating);
  std::cout << "\nTransition balance (every transient state left again): "
            << (balanced ? "OK" : "BROKEN") << "\n\n";
}

void print_controller_experiment() {
  std::cout << "=== FIG6(b): SDN controller — path churn ===\n\n";
  core::DataCenterConfig config;
  config.topology.rack_count = 12;
  config.topology.ops_count = 48;
  config.topology.tor_ops_degree = 8;
  config.topology.core = topology::CoreKind::kTorus2D;
  config.topology.seed = 47;
  core::DataCenter dc(config);
  sdn::SdnController controller(dc.topology());

  const auto& g = dc.topology().switch_graph();
  util::Rng rng(3);
  core::Stopwatch sw;
  std::size_t installed_paths = 0;
  for (std::uint32_t chain = 0; chain < 2000; ++chain) {
    const std::size_t src =
        dc.topology().tor_vertex(util::TorId{static_cast<util::TorId::value_type>(
            rng.uniform_index(dc.topology().tor_count()))});
    const std::size_t dst =
        dc.topology().tor_vertex(util::TorId{static_cast<util::TorId::value_type>(
            rng.uniform_index(dc.topology().tor_count()))});
    if (src == dst) continue;
    const auto tree = graph::bfs(g, src);
    const auto path = graph::extract_path(tree, dst);
    if (!path) continue;
    if (controller.install_path(util::NfcId{chain}, *path).is_ok()) ++installed_paths;
    if (chain % 3 == 0) controller.remove_chain(util::NfcId{chain});
  }
  const double ms = sw.elapsed_ms();
  core::TextTable table({"metric", "value"});
  table.add_row_values("paths installed", installed_paths);
  table.add_row_values("rules installed", controller.stats().rules_installed);
  table.add_row_values("rules removed", controller.stats().rules_removed);
  table.add_row_values("rules resident", controller.tables().total_rules());
  table.add_row_values("wall time (ms)", core::fmt(ms, 1));
  table.add_row_values("ops/sec", core::fmt(
      (controller.stats().rules_installed + controller.stats().rules_removed) / (ms / 1000.0), 0));
  table.print();
  std::cout << '\n';
}

void BM_DeployTerminate(benchmark::State& state) {
  core::DataCenterConfig config;
  config.topology.seed = 1;
  core::DataCenter dc(config);
  sdn::CloudNfvManager cloud(dc.catalog(), dc.topology());
  const auto fn = *dc.catalog().find_by_type(VnfType::kFirewall);
  const nfv::HostRef host{util::ServerId{0}};
  for (auto _ : state) {
    const auto id = cloud.deploy(fn, host);
    if (id) (void)cloud.terminate(*id);
  }
}
BENCHMARK(BM_DeployTerminate)->Unit(benchmark::kMicrosecond);

void BM_FlowRuleInstall(benchmark::State& state) {
  sdn::FlowTable table;
  std::uint32_t i = 0;
  for (auto _ : state) {
    table.install(util::NfcId{i % 4096}, i);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowRuleInstall);

void BM_LifecycleTransition(benchmark::State& state) {
  nfv::VnfLifecycleManager lifecycle;
  const auto id = lifecycle.create(util::VnfId{0}, nfv::HostRef{util::ServerId{0}});
  (void)lifecycle.activate(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lifecycle.scale(id, 2.0));
    benchmark::DoNotOptimize(lifecycle.scale(id, 1.0));
  }
}
BENCHMARK(BM_LifecycleTransition);

}  // namespace

int main(int argc, char** argv) {
  print_lifecycle_experiment();
  print_controller_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
