// Elastic soak: 20 seeds of faults + load churn with the full elastic
// control loop (demand tracking, hysteretic scaling, hot-host migration)
// ticking on the same event queue — so scale-outs land mid-outage,
// migrations race repairs, and the StateAuditor re-checks every invariant
// (including the new instance-accounting ones: per-chain instance-count
// bounds, no orphaned instances, demand-reservation conservation) after
// every fault, load event, and controller tick.
//
// Both execution modes run. Incremental migration keeps chain ids stable;
// the reprovision baseline tears a chain down and re-admits it under a new
// id mid-tick, which is the one way a tick changes the chain set it walks.
// ChaosRunner's silent-loss accounting still holds there: the teardown is
// logged, and the new chain is not part of the baseline.
//
// Every seed's totals are pinned exactly. Elastic decisions are a pure
// function of the seed, so a change meant to leave them alone (a cheaper
// tick, a new index) must leave these numbers as they are; a change that
// alters a decision on purpose re-records them and says why.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/alvc.h"
#include "elastic/controller.h"
#include "faults/chaos.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::elastic {
namespace {

using alvc::faults::ChaosParams;
using alvc::faults::ChaosReport;
using alvc::faults::ChaosRunner;
using alvc::faults::FaultInjector;
using alvc::faults::OverloadInjector;
using alvc::nfv::NfcSpec;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::orchestrator::AllocationPolicy;

constexpr std::uint64_t kSeeds = 20;

NfcSpec make_spec(const core::DataCenter& dc, std::uint32_t service, double gbps,
                  PriorityClass cls) {
  NfcSpec spec;
  spec.service = alvc::util::ServiceId{service};
  spec.name = "load-" + std::to_string(service);
  spec.bandwidth_gbps = gbps;
  spec.priority = cls;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                    *dc.catalog().find_by_type(VnfType::kNat)};
  return spec;
}

core::DataCenter make_qos_dc(std::uint64_t seed) {
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
  auto clusters = dc.build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  dc.orchestrator().set_allocation_policy(AllocationPolicy::kPriorityDowngrade);
  // Warm-up chain within port capacity: the elastic soak needs headroom to
  // scale into — the QoS overload soak owns the saturated-fabric regime.
  ALVC_IGNORE_STATUS(
      dc.provision_chain(make_spec(dc, 0, 4.0, PriorityClass::kHipri),
                         core::PlacementAlgorithm::kGreedyOptical),
      "warm-up: capacity conflicts just mean fewer live chains");
  return dc;
}

ElasticParams make_elastic_params(std::uint64_t seed, ExecutionMode mode) {
  ElasticParams params;
  params.demand.seed = seed * 5 + 2;
  params.demand.horizon_s = 40.0;
  // Faster loop than the defaults so a 40 s horizon exercises every
  // branch: shorter cooldowns, and a hot threshold the small OE routers
  // actually cross once a chain scales out on them.
  params.scaling.cooldown_s = 1.0;
  // The generated optoelectronic routers hold 4 cores: a firewall+nat pair
  // fits at 2x but not beyond, so cap the target where it can still land.
  params.scaling.max_scale = 2.0;
  // A firewall+nat pair at scale 1 puts a 4-core OE router at 0.5
  // utilization; 0.6 makes hosts hot only once something scaled out.
  params.migration.hot_utilization = 0.6;
  params.migration.cooldown_s = 2.0;
  params.mode = mode;
  return params;
}

/// One ledger row: ActionTotals without the modelled latency.
struct KindTotals {
  std::size_t actions = 0;
  std::size_t al_updates = 0;
  std::size_t flow_rule_churn = 0;
  std::size_t oeo_changes = 0;
  friend bool operator==(const KindTotals&, const KindTotals&) = default;
};

/// What one seed's run did. Every seed ticks kTicksPerSeed times.
struct SeedTotals {
  std::uint64_t seed = 0;
  std::size_t chain_observations = 0;
  std::size_t slo_violations = 0;
  std::size_t scale_outs = 0;
  std::size_t scale_ins = 0;
  std::size_t migrations = 0;
  std::size_t reprovisions = 0;
  /// Indexed by ActionKind: scale-out, scale-in, migration, reprovision.
  std::array<KindTotals, kActionKindCount> ledger{};
  friend bool operator==(const SeedTotals&, const SeedTotals&) = default;
};

void PrintTo(const SeedTotals& t, std::ostream* os) {
  *os << "{" << t.seed << ", " << t.chain_observations << ", " << t.slo_violations << ", "
      << t.scale_outs << ", " << t.scale_ins << ", " << t.migrations << ", " << t.reprovisions
      << ", {";
  for (std::size_t k = 0; k < t.ledger.size(); ++k) {
    const KindTotals& l = t.ledger[k];
    *os << (k > 0 ? ", " : "") << "{" << l.actions << ", " << l.al_updates << ", "
        << l.flow_rule_churn << ", " << l.oeo_changes << "}";
  }
  *os << "}}";
}

constexpr std::size_t kTicksPerSeed = 79;  // 0.5 s period over a 40 s horizon

const std::array<SeedTotals, kSeeds> kIncrementalTotals{{
    {1, 193, 117, 18, 1, 9, 0, {{{18, 0, 0, 0}, {1, 0, 0, 0}, {9, 18, 53, 0}, {0, 0, 0, 0}}}},
    {2, 168, 95, 22, 0, 11, 0, {{{22, 0, 0, 0}, {0, 0, 0, 0}, {11, 22, 103, 5}, {0, 0, 0, 0}}}},
    {3, 170, 94, 22, 1, 11, 0, {{{22, 0, 0, 0}, {1, 0, 0, 0}, {11, 22, 87, 5}, {0, 0, 0, 0}}}},
    {4, 163, 42, 23, 2, 10, 0, {{{23, 0, 0, 0}, {2, 0, 0, 0}, {10, 20, 65, 5}, {0, 0, 0, 0}}}},
    {5, 189, 58, 26, 2, 11, 0, {{{26, 0, 0, 0}, {2, 0, 0, 0}, {11, 22, 76, 4}, {0, 0, 0, 0}}}},
    {6, 169, 63, 20, 2, 9, 0, {{{20, 0, 0, 0}, {2, 0, 0, 0}, {9, 18, 60, 4}, {0, 0, 0, 0}}}},
    {7, 181, 53, 27, 2, 12, 0, {{{27, 0, 0, 0}, {2, 0, 0, 0}, {12, 24, 77, 6}, {0, 0, 0, 0}}}},
    {8, 162, 43, 18, 3, 7, 0, {{{18, 0, 0, 0}, {3, 0, 0, 0}, {7, 14, 50, 1}, {0, 0, 0, 0}}}},
    {9, 179, 59, 24, 2, 11, 0, {{{24, 0, 0, 0}, {2, 0, 0, 0}, {11, 22, 76, 3}, {0, 0, 0, 0}}}},
    {10, 159, 90, 14, 2, 4, 0, {{{14, 0, 0, 0}, {2, 0, 0, 0}, {4, 8, 26, 2}, {0, 0, 0, 0}}}},
    {11, 192, 52, 23, 4, 11, 0, {{{23, 0, 0, 0}, {4, 0, 0, 0}, {11, 22, 61, 7}, {0, 0, 0, 0}}}},
    {12, 156, 86, 18, 3, 9, 0, {{{18, 0, 0, 0}, {3, 0, 0, 0}, {9, 18, 57, 4}, {0, 0, 0, 0}}}},
    {13, 189, 89, 18, 0, 9, 0, {{{18, 0, 0, 0}, {0, 0, 0, 0}, {9, 18, 74, 3}, {0, 0, 0, 0}}}},
    {14, 161, 92, 27, 3, 10, 0, {{{27, 0, 0, 0}, {3, 0, 0, 0}, {10, 20, 63, 4}, {0, 0, 0, 0}}}},
    {15, 171, 60, 21, 1, 9, 0, {{{21, 0, 0, 0}, {1, 0, 0, 0}, {9, 18, 46, 3}, {0, 0, 0, 0}}}},
    {16, 171, 90, 14, 1, 6, 0, {{{14, 0, 0, 0}, {1, 0, 0, 0}, {6, 12, 47, 0}, {0, 0, 0, 0}}}},
    {17, 179, 117, 27, 3, 11, 0, {{{27, 0, 0, 0}, {3, 0, 0, 0}, {11, 22, 89, 2}, {0, 0, 0, 0}}}},
    {18, 180, 126, 14, 1, 6, 0, {{{14, 0, 0, 0}, {1, 0, 0, 0}, {6, 12, 38, 3}, {0, 0, 0, 0}}}},
    {19, 180, 131, 8, 1, 4, 0, {{{8, 0, 0, 0}, {1, 0, 0, 0}, {4, 8, 32, 2}, {0, 0, 0, 0}}}},
    {20, 161, 64, 14, 0, 7, 0, {{{14, 0, 0, 0}, {0, 0, 0, 0}, {7, 14, 58, 0}, {0, 0, 0, 0}}}},
}};

const std::array<SeedTotals, kSeeds> kReprovisionTotals{{
    {1, 229, 127, 36, 2, 0, 32, {{{36, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {32, 192, 162, 0}}}},
    {2, 226, 138, 48, 1, 0, 43, {{{48, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {43, 258, 378, 0}}}},
    {3, 218, 135, 45, 2, 0, 41, {{{45, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {41, 246, 325, 0}}}},
    {4, 227, 93, 48, 2, 0, 43, {{{48, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {43, 258, 240, 0}}}},
    {5, 220, 98, 59, 2, 0, 52, {{{59, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {52, 312, 401, 0}}}},
    {6, 231, 103, 62, 0, 0, 58, {{{62, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {58, 348, 378, 0}}}},
    {7, 227, 100, 63, 3, 0, 52, {{{63, 0, 0, 0}, {3, 0, 0, 0}, {0, 0, 0, 0}, {52, 312, 300, 0}}}},
    {8, 222, 124, 56, 1, 0, 49, {{{56, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {49, 294, 351, 0}}}},
    {9, 225, 100, 63, 2, 0, 55, {{{63, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {55, 330, 352, 0}}}},
    {10, 219, 130, 30, 3, 0, 21, {{{30, 0, 0, 0}, {3, 0, 0, 0}, {0, 0, 0, 0}, {21, 126, 118, 0}}}},
    {11, 228, 88, 43, 2, 0, 37, {{{43, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 0, 0}, {37, 222, 215, 0}}}},
    {12, 222, 104, 40, 0, 0, 36, {{{40, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {36, 216, 239, 0}}}},
    {13, 218, 140, 34, 1, 0, 28, {{{34, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {28, 168, 201, 0}}}},
    {14, 228, 113, 45, 1, 0, 37, {{{45, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {37, 222, 229, 0}}}},
    {15, 223, 82, 57, 1, 0, 51, {{{57, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {51, 306, 273, 0}}}},
    {16, 208, 113, 32, 1, 0, 29, {{{32, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {29, 174, 156, 0}}}},
    {17, 226, 113, 41, 3, 0, 33, {{{41, 0, 0, 0}, {3, 0, 0, 0}, {0, 0, 0, 0}, {33, 198, 269, 0}}}},
    {18, 223, 162, 32, 0, 0, 28, {{{32, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {28, 168, 187, 0}}}},
    {19, 223, 194, 17, 1, 0, 15, {{{17, 0, 0, 0}, {1, 0, 0, 0}, {0, 0, 0, 0}, {15, 90, 121, 0}}}},
    {20, 219, 142, 25, 0, 0, 22, {{{25, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {22, 132, 172, 0}}}},
}};

/// Runs one seed of the soak in `mode`, checks the per-seed contract and
/// returns the seed's totals.
SeedTotals run_seed(std::uint64_t seed, ExecutionMode mode) {
  ALVC_TRACE_SEED(seed);
  auto dc = make_qos_dc(seed);
  const alvc::orchestrator::GreedyOpticalPlacement placement;
  ElasticController controller(dc.orchestrator(), placement, make_elastic_params(seed, mode));

  ChaosParams params;
  // Gentler rates than the overload soak: chains must spend real time
  // healthy or the elastic loop has nothing to act on (it leaves
  // degraded chains to the recovery path by design). The scripted
  // whole-AL outage still blacks out a slice mid-run.
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
    params.scripted = FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
  }

  const std::vector<NfcSpec> crowd{
      make_spec(dc, 0, 4.0, PriorityClass::kHipri),
      make_spec(dc, 1, 4.0, PriorityClass::kLopri),
      make_spec(dc, 2, 4.0, PriorityClass::kHipri),
  };
  const std::vector<NfcSpec> heavy{
      make_spec(dc, 1, 4.0, PriorityClass::kHipri),
      make_spec(dc, 2, 2.0, PriorityClass::kLopri),
  };
  auto load = OverloadInjector::flash_crowd(crowd, 13.0, 0.3, 10.0, /*first_key=*/1000);
  const auto ramp = OverloadInjector::diurnal_ramp(heavy, 20.0, 40.0, /*first_key=*/2000);
  const auto churn = OverloadInjector::lopri_churn(crowd, 0.4, 5.0, 40.0, seed * 11 + 3,
                                                  /*first_key=*/3000);
  load.insert(load.end(), ramp.begin(), ramp.end());
  load.insert(load.end(), churn.begin(), churn.end());
  params.load = std::move(load);

  ChaosRunner runner(dc.orchestrator(), params);
  const ChaosReport report = runner.run();

  // The hard contract, per seed: every audit clean (instance accounting
  // and the chain index included), no handler errors, no silently lost
  // chains, none lost on re-admission.
  EXPECT_EQ(report.handler_errors, 0u);
  EXPECT_EQ(report.audit_violations, 0u)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.chains_unaccounted, 0u) << "a chain was silently lost";
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.controller_ticks, kTicksPerSeed);
  EXPECT_EQ(controller.stats().ticks, kTicksPerSeed);
  EXPECT_EQ(controller.migration().stats().lost, 0u);

  SeedTotals totals{.seed = seed,
                    .chain_observations = controller.stats().chain_observations,
                    .slo_violations = controller.stats().slo_violations,
                    .scale_outs = controller.scaling().stats().scale_outs,
                    .scale_ins = controller.scaling().stats().scale_ins,
                    .migrations = controller.migration().stats().migrations,
                    .reprovisions = controller.migration().stats().reprovisions};
  for (std::size_t k = 0; k < kActionKindCount; ++k) {
    const ActionTotals& t = controller.ledger().totals(static_cast<ActionKind>(k));
    totals.ledger[k] = {t.actions, t.al_updates, t.flow_rule_churn, t.oeo_changes};
  }
  return totals;
}

/// Sums of every seed's totals (the seed field is unused).
SeedTotals sum(const std::vector<SeedTotals>& seeds) {
  SeedTotals total;
  for (const SeedTotals& s : seeds) {
    total.chain_observations += s.chain_observations;
    total.slo_violations += s.slo_violations;
    total.scale_outs += s.scale_outs;
    total.scale_ins += s.scale_ins;
    total.migrations += s.migrations;
    total.reprovisions += s.reprovisions;
    for (std::size_t k = 0; k < kActionKindCount; ++k) {
      total.ledger[k].actions += s.ledger[k].actions;
      total.ledger[k].al_updates += s.ledger[k].al_updates;
      total.ledger[k].flow_rule_churn += s.ledger[k].flow_rule_churn;
      total.ledger[k].oeo_changes += s.ledger[k].oeo_changes;
    }
  }
  return total;
}

std::vector<SeedTotals> run_all(ExecutionMode mode,
                                const std::array<SeedTotals, kSeeds>& pinned) {
  std::vector<SeedTotals> seeds;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    seeds.push_back(run_seed(seed, mode));
    EXPECT_EQ(seeds.back(), pinned[seed - 1]) << to_string(mode) << " totals moved";
  }
  return seeds;
}

std::size_t al_updates(const SeedTotals& totals, ActionKind kind) {
  return totals.ledger[static_cast<std::size_t>(kind)].al_updates;
}

TEST(ElasticSoakTest, ElasticLoopSurvivesFaultsAndChurnCleanly) {
  const SeedTotals total = sum(run_all(ExecutionMode::kIncremental, kIncrementalTotals));

  // Non-vacuousness: across 20 seeds the loop must actually have scaled
  // out, scaled back in, and migrated — otherwise the soak proves nothing.
  EXPECT_GT(total.chain_observations, 0u);
  EXPECT_GT(total.scale_outs, 0u) << "demand waves never forced a scale-out";
  EXPECT_GT(total.scale_ins, 0u) << "no chain ever shrank back";
  EXPECT_GT(total.migrations, 0u) << "no hot host was ever relieved";
  EXPECT_EQ(total.reprovisions, 0u);

  // Cost shape of the incremental mode, measured across every action the
  // whole soak took: in-place scaling never touches the AL, and every
  // migration touches it exactly twice.
  EXPECT_EQ(al_updates(total, ActionKind::kScaleOut) + al_updates(total, ActionKind::kScaleIn),
            0u);
  EXPECT_EQ(al_updates(total, ActionKind::kMigration), 2 * total.migrations);
}

TEST(ElasticSoakTest, ReprovisionBaselineSurvivesFaultsAndChurnCleanly) {
  const SeedTotals total = sum(run_all(ExecutionMode::kReprovision, kReprovisionTotals));

  EXPECT_GT(total.scale_outs, 0u);
  EXPECT_GT(total.reprovisions, 0u) << "no hot host was ever relieved";
  EXPECT_EQ(total.migrations, 0u);

  // The baseline redeploys the whole k = 2 chain and churns its slice:
  // 2k + 2 = 6 AL updates per move, against the incremental mode's 2.
  EXPECT_EQ(al_updates(total, ActionKind::kScaleOut) + al_updates(total, ActionKind::kScaleIn),
            0u);
  EXPECT_EQ(al_updates(total, ActionKind::kReprovision), 6 * total.reprovisions);
}

}  // namespace
}  // namespace alvc::elastic
