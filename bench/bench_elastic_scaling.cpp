// Elastic scaling and live migration: incremental AL re-optimisation vs
// the scale-by-reprovision baseline.
//
// Experiment: the elastic soak scenario — demand waves (diurnal + flash
// crowds + churn) over a fault-injected fabric, the ElasticController
// ticking on the chaos queue — executed once per migration mode. The
// UpdateCostLedger measures what each relief action cost the control
// plane: incremental live migration touches the abstraction layer twice
// (terminate + deploy), while tearing the chain down and re-admitting it
// costs 2k + 2 AL updates for a k-function chain, so the per-action ratio
// must come out >= 3x for the firewall+nat chains used here. Benchmarks:
// a single controller tick on a plane of a few hundred chains at two
// history lengths, the same tick once the first scale-outs have settled,
// and the full elastic soak per mode (events per second the control plane
// absorbs).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <optional>
#include <vector>

#include "core/alvc.h"
#include "elastic/controller.h"
#include "faults/chaos.h"
#include "faults/fault_injector.h"

namespace {

using namespace alvc;
using elastic::ActionKind;
using elastic::ExecutionMode;
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

core::DataCenter make_elastic_dc(std::uint64_t seed) {
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
  dc.orchestrator().set_allocation_policy(AllocationPolicy::kPriorityDowngrade);
  (void)dc.provision_chain(make_spec(dc, 0, 4.0, PriorityClass::kHipri),
                           core::PlacementAlgorithm::kGreedyOptical);
  return dc;
}

elastic::ElasticParams make_elastic_params(std::uint64_t seed, ExecutionMode mode) {
  elastic::ElasticParams params;
  params.demand.seed = seed * 5 + 2;
  params.demand.horizon_s = 40.0;
  params.scaling.cooldown_s = 1.0;
  params.scaling.max_scale = 2.0;  // a firewall+nat pair fits a 4-core OE router at 2x
  params.migration.hot_utilization = 0.6;
  params.migration.cooldown_s = 2.0;
  params.mode = mode;
  return params;
}

faults::ChaosParams make_chaos_params(const core::DataCenter& dc, std::uint64_t seed,
                                      elastic::ElasticController& controller) {
  faults::ChaosParams params;
  params.schedule.ops = {.mtbf_s = 90, .mttr_s = 5};
  params.schedule.tor = {.mtbf_s = 140, .mttr_s = 4};
  params.schedule.server = {.mtbf_s = 120, .mttr_s = 4};
  params.schedule.link = {.mtbf_s = 100, .mttr_s = 4};
  params.schedule.horizon_s = 40;
  params.schedule.seed = seed;
  params.flow_rate_per_s = 20;
  params.traffic_seed = seed * 3 + 1;
  params.tick_period_s = 0.5;
  params.on_tick = [&controller](double now_s) { controller.tick(now_s); };
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    params.scripted = faults::FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
  }

  const std::vector<nfv::NfcSpec> crowd{
      make_spec(dc, 0, 4.0, PriorityClass::kHipri),
      make_spec(dc, 1, 4.0, PriorityClass::kLopri),
      make_spec(dc, 2, 4.0, PriorityClass::kHipri),
  };
  const std::vector<nfv::NfcSpec> heavy{
      make_spec(dc, 1, 4.0, PriorityClass::kHipri),
      make_spec(dc, 2, 2.0, PriorityClass::kLopri),
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
  std::cout << "=== Elastic chains: incremental AL re-optimisation vs reprovision ===\n\n";
  core::TextTable table({"mode", "scale-outs", "scale-ins", "moves", "AL updates/move",
                         "flow rules/move", "latency s/move", "SLO viol rate", "audit"});
  double per_move[2] = {0, 0};
  int row = 0;
  for (const ExecutionMode mode : {ExecutionMode::kIncremental, ExecutionMode::kReprovision}) {
    std::size_t scale_outs = 0, scale_ins = 0, moves = 0, violations = 0;
    std::size_t al_updates = 0, flow_rules = 0;
    double latency = 0, slo_num = 0, slo_den = 0;
    for (const std::uint64_t seed : {3u, 9u, 17u}) {
      auto dc = make_elastic_dc(seed);
      const orchestrator::GreedyOpticalPlacement placement;
      elastic::ElasticController controller(dc.orchestrator(), placement,
                                            make_elastic_params(seed, mode));
      faults::ChaosRunner runner(dc.orchestrator(), make_chaos_params(dc, seed, controller));
      const auto report = runner.run();
      violations += report.audit_violations + report.handler_errors + report.chains_unaccounted;
      scale_outs += controller.scaling().stats().scale_outs;
      scale_ins += controller.scaling().stats().scale_ins;
      const ActionKind kind =
          mode == ExecutionMode::kIncremental ? ActionKind::kMigration : ActionKind::kReprovision;
      const auto& totals = controller.ledger().totals(kind);
      moves += totals.actions;
      al_updates += totals.al_updates;
      flow_rules += totals.flow_rule_churn;
      latency += totals.latency_s;
      slo_num += static_cast<double>(controller.stats().slo_violations);
      slo_den += static_cast<double>(controller.stats().chain_observations);
    }
    const double updates_per_move =
        moves == 0 ? 0.0 : static_cast<double>(al_updates) / static_cast<double>(moves);
    per_move[row++] = updates_per_move;
    table.add_row_values(to_string(mode), scale_outs, scale_ins, moves, updates_per_move,
                         moves == 0 ? 0.0 : static_cast<double>(flow_rules) / moves,
                         moves == 0 ? 0.0 : latency / static_cast<double>(moves),
                         slo_den == 0 ? 0.0 : slo_num / slo_den,
                         violations == 0 ? "OK" : "VIOLATED");
  }
  table.print();
  std::cout << "\nExpected shape: incremental relief costs 2 AL updates per move (terminate\n"
               "+ deploy inside the live slice); the reprovision baseline pays 2k + 2 for\n"
               "the k=2 chains here — a "
            << (per_move[0] > 0 ? per_move[1] / per_move[0] : 0.0)
            << "x ratio (>= 3x required). Both rows must read OK.\n\n";
}

/// Mid-size plane for the tick benchmark: the e2e elastic_mixed fabric at
/// half its size — one service (slot) per pair of servers, each
/// slot's AL local to its rack, 3/4 of the OPSs optoelectronic.
core::DataCenter make_tick_dc() {
  constexpr std::size_t kRacks = 128;
  core::DataCenterConfig config;
  topology::TopologyParams& topo = config.topology;
  topo.rack_count = kRacks;
  topo.servers_per_rack = 4;
  topo.vms_per_server = 2;
  topo.ops_count = 2 * kRacks;
  topo.tor_ops_degree = 4;
  topo.uplink_locality = 1.0;
  topo.core = topology::CoreKind::kNone;
  topo.optoelectronic_fraction = 0.75;
  topo.service_count = 2 * kRacks;
  topo.server_local_services = true;
  topo.seed = 20160627;
  config.seed = topo.seed;
  core::DataCenter dc(config);
  if (auto built = dc.build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  dc.orchestrator().set_allocation_policy(AllocationPolicy::kPriorityDowngrade);
  return dc;
}

/// A plane of a few hundred live chains with a history behind it, built
/// for BM_ElasticTick*: `history_s` seconds of prior churn (4
/// provision/teardown pairs per second on the one slot kept free) and a
/// demand horizon of the same length.
struct TickPlane {
  core::DataCenter dc = make_tick_dc();
  orchestrator::GreedyOpticalPlacement placement;
  std::optional<elastic::ElasticController> controller;

  /// False when the history churn failed.
  bool build(std::size_t history_s) {
    const std::size_t slots = dc.topology().service_count();
    // History first, on the one slot kept free, so it stays cheap to build.
    const auto churn_spec =
        make_spec(dc, static_cast<std::uint32_t>(slots - 1), 2.0, PriorityClass::kLopri);
    for (std::size_t i = 0; i < 4 * history_s; ++i) {
      const auto id = dc.orchestrator().provision_chain(churn_spec, placement);
      if (!id || !dc.orchestrator().teardown_chain(*id).is_ok()) return false;
    }
    for (std::size_t slot = 0; slot + 1 < slots; ++slot) {
      (void)dc.provision_chain(
          make_spec(dc, static_cast<std::uint32_t>(slot), slot % 2 == 0 ? 2.0 : 4.0,
                    slot % 3 == 0 ? PriorityClass::kHipri : PriorityClass::kLopri),
          core::PlacementAlgorithm::kGreedyOptical);
    }
    auto params = make_elastic_params(7, ExecutionMode::kIncremental);
    params.demand.horizon_s = static_cast<double>(history_s);
    controller.emplace(dc.orchestrator(), placement, params);
    return true;
  }

  void report(benchmark::State& state) const {
    benchmark::DoNotOptimize(controller->stats());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["chains"] = static_cast<double>(dc.orchestrator().chain_count());
    state.counters["log_events"] = static_cast<double>(dc.orchestrator().control_log().size());
  }
};

/// One controller tick on a plane of a few hundred live chains with a
/// history behind it. The argument is the history length in seconds: the
/// demand horizon (flash onsets are drawn over all of it) and the prior
/// control log (4 provision/teardown pairs per second, 16 log entries).
/// A tick whose cost grows with either shows up as a gap between the rows.
void BM_ElasticTick(benchmark::State& state) {
  TickPlane plane;
  if (!plane.build(static_cast<std::size_t>(state.range(0)))) {
    state.SkipWithError("history churn failed");
    return;
  }
  double now_s = 0;
  for (auto _ : state) {
    plane.controller->tick(now_s);
    now_s += 0.5;
  }
  plane.report(state);
}
// A fixed tick count: every run times the same 20 simulated seconds (the
// early ticks act the most), so rows compare across runs and trees.
BENCHMARK(BM_ElasticTick)->Arg(60)->Arg(1500)->Iterations(40)->Unit(benchmark::kMicrosecond);

/// The same plane once the first rush of scale-outs has settled: 30
/// simulated seconds of ticks run untimed, then the row times the next
/// 60 seconds, inside the demand horizon. A tick there acts on about 9
/// chains, against about 17 in the first 40 ticks, so deciding weighs
/// more, as in a long-running loop.
void BM_ElasticTickSteady(benchmark::State& state) {
  TickPlane plane;
  if (!plane.build(static_cast<std::size_t>(state.range(0)))) {
    state.SkipWithError("history churn failed");
    return;
  }
  double now_s = 0;
  for (; now_s < 30.0; now_s += 0.5) plane.controller->tick(now_s);
  for (auto _ : state) {
    plane.controller->tick(now_s);
    now_s += 0.5;
  }
  plane.report(state);
}
BENCHMARK(BM_ElasticTickSteady)->Arg(120)->Iterations(120)->Unit(benchmark::kMicrosecond);

void BM_ElasticSoak(benchmark::State& state) {
  const auto mode = static_cast<ExecutionMode>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto dc = make_elastic_dc(7);
    const orchestrator::GreedyOpticalPlacement placement;
    elastic::ElasticController controller(dc.orchestrator(), placement,
                                          make_elastic_params(7, mode));
    auto params = make_chaos_params(dc, 7, controller);
    params.audit_every_event = false;  // measure the control plane, not the audit
    state.ResumeTiming();
    faults::ChaosRunner runner(dc.orchestrator(), std::move(params));
    const auto report = runner.run();
    events += report.fault_events + report.load_events + report.controller_ticks;
    if (!report.clean()) state.SkipWithError("elastic soak not clean");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(std::string(to_string(mode)));
}
BENCHMARK(BM_ElasticSoak)
    ->Arg(static_cast<int>(ExecutionMode::kIncremental))
    ->Arg(static_cast<int>(ExecutionMode::kReprovision))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
