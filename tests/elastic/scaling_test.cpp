// ScalingController: hysteresis, cooldown, QoS protection, and the
// fit-limited rejection path — each decision branch pinned on the shared
// slice fixture with a quiet (noise-free) demand model so the controller
// sees exactly the demand the test dials in.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/alvc.h"
#include "elastic/scaling.h"
#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/placement.h"
#include "support/fixtures.h"

namespace alvc::elastic {
namespace {

using alvc::faults::StateAuditor;
using alvc::nfv::NfcSpec;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::orchestrator::AllocationPolicy;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::test::ClusterFixture;
using alvc::util::NfcId;
using alvc::util::ServiceId;

/// Cluster + orchestrator + a noise-free demand model: demand for every
/// tracked chain is exactly its base, so each test dials in the demand it
/// wants to see and nothing else moves.
struct ScalingFixture : ::testing::Test, ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};
  alvc::orchestrator::GreedyOpticalPlacement placement;
  DemandModel demand{quiet_params()};
  UpdateCostLedger ledger;

  static DemandParams quiet_params() {
    DemandParams p;
    p.diurnal_amplitude = 0;
    p.flash_rate_per_s = 0;
    p.churn_amplitude = 0;
    return p;
  }

  NfcId provision(double gbps = 1.0, PriorityClass cls = PriorityClass::kHipri,
                  std::vector<VnfType> types = {VnfType::kFirewall, VnfType::kNat},
                  ServiceId service = ServiceId{0}) {
    NfcSpec spec;
    spec.name = "elastic";
    spec.service = service;
    spec.bandwidth_gbps = gbps;
    spec.priority = cls;
    for (VnfType type : types) spec.functions.push_back(*catalog.find_by_type(type));
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }

  double scale_of(NfcId id) const {
    return ScalingController::chain_scale(orch, *orch.chain(id));
  }
};

TEST_F(ScalingFixture, ScaleOutTracksDemandAndCostsZeroAlUpdates) {
  const NfcId id = provision(1.0);
  demand.track(id, 2.0);  // demand = 2x the granted 1 Gbps
  ScalingController controller(orch, demand, ledger);

  EXPECT_EQ(controller.tick(0.0), 1u);
  EXPECT_DOUBLE_EQ(scale_of(id), 2.0);
  EXPECT_EQ(controller.stats().scale_outs, 1u);
  EXPECT_EQ(controller.stats().scale_ins, 0u);

  // Scaling in place re-reserves capacity but never touches instances,
  // slices, or flow rules — the cheapest elastic action by construction.
  EXPECT_EQ(ledger.totals(ActionKind::kScaleOut).actions, 1u);
  EXPECT_EQ(ledger.totals(ActionKind::kScaleOut).al_updates, 0u);
  EXPECT_EQ(ledger.totals(ActionKind::kScaleOut).flow_rule_churn, 0u);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

TEST_F(ScalingFixture, HysteresisBandHoldsSteady) {
  const NfcId id = provision(1.0);
  // Just above granted but under the 1.1x out-threshold: no action.
  demand.track(id, 1.05);
  ScalingController controller(orch, demand, ledger);
  EXPECT_EQ(controller.tick(0.0), 0u);
  EXPECT_DOUBLE_EQ(scale_of(id), 1.0);

  // Now at scale 2 with demand inside (0.5x, 1.1x) of served: still no
  // action in either direction — that is the hysteresis band.
  demand.forget(id);
  demand.track(id, 2.0);
  EXPECT_EQ(controller.tick(10.0), 1u);
  ASSERT_DOUBLE_EQ(scale_of(id), 2.0);
  demand.forget(id);
  demand.track(id, 1.2);  // 0.5*2 = 1.0 < 1.2 < 1.1*2 = 2.2
  EXPECT_EQ(controller.tick(20.0), 0u);
  EXPECT_DOUBLE_EQ(scale_of(id), 2.0);
}

TEST_F(ScalingFixture, CooldownDefersThenScaleInLands) {
  const NfcId id = provision(1.0);
  demand.track(id, 2.0);
  ScalingController controller(orch, demand, ledger);  // cooldown_s = 2.0
  ASSERT_EQ(controller.tick(0.0), 1u);
  ASSERT_DOUBLE_EQ(scale_of(id), 2.0);

  // Demand collapses below the scale-in threshold, but the chain acted
  // 1 s ago — the cooldown must hold the action back.
  demand.forget(id);
  demand.track(id, 0.4);
  EXPECT_EQ(controller.tick(1.0), 0u);
  EXPECT_EQ(controller.stats().skipped_cooldown, 1u);
  EXPECT_DOUBLE_EQ(scale_of(id), 2.0);

  // Past the window the scale-in goes through.
  EXPECT_EQ(controller.tick(3.0), 1u);
  EXPECT_DOUBLE_EQ(scale_of(id), 1.0);
  EXPECT_EQ(controller.stats().scale_ins, 1u);
}

// One VC backs one slice, so two concurrent chains need two services —
// a generated data center (as in the soak) provides the clusters.
struct ThreeServiceDc {
  core::DataCenter dc{config()};

  ThreeServiceDc() {
    if (auto built = dc.build_clusters(); !built) {
      throw std::runtime_error(built.error().to_string());
    }
    dc.orchestrator().set_allocation_policy(AllocationPolicy::kPriorityDowngrade);
  }

  static core::DataCenterConfig config() {
    core::DataCenterConfig config;
    config.topology.rack_count = 6;
    config.topology.servers_per_rack = 2;
    config.topology.vms_per_server = 2;
    config.topology.ops_count = 16;
    config.topology.tor_ops_degree = 6;
    config.topology.optoelectronic_fraction = 0.75;
    config.topology.service_count = 3;
    config.topology.seed = 8;
    config.seed = 1;
    return config;
  }

  NfcId provision(std::uint32_t service, double gbps, PriorityClass cls) {
    NfcSpec spec;
    spec.name = "qos";
    spec.service = ServiceId{service};
    spec.bandwidth_gbps = gbps;
    spec.priority = cls;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    auto id = dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST(ScalingQosTest, LopriScaleOutDefersWhileHipriIsImpaired) {
  ThreeServiceDc plane;
  auto& orch = plane.dc.orchestrator();
  const auto provision = [&](std::uint32_t service, double gbps, PriorityClass cls) {
    return plane.provision(service, gbps, cls);
  };

  // HIPRI asking for more than the 10 Gbps ports carry: admitted at a
  // reduced grant under priority-downgrade — the "HIPRI impaired"
  // condition the protection watches.
  const NfcId hipri = provision(0, 16.0, PriorityClass::kHipri);
  ASSERT_LT(orch.chain(hipri)->reserved_gbps, 16.0);
  const NfcId lopri = provision(1, 1.0, PriorityClass::kLopri);

  DemandModel demand{ScalingFixture::quiet_params()};
  demand.track(lopri, 2.0);
  UpdateCostLedger ledger;

  ScalingController guarded(orch, demand, ledger);
  EXPECT_EQ(guarded.tick(0.0), 0u);
  EXPECT_EQ(guarded.stats().deferred_hipri_protect, 1u);
  EXPECT_DOUBLE_EQ(ScalingController::chain_scale(orch, *orch.chain(lopri)), 1.0);

  // Same orchestrator state, protection off: the scale-out goes through —
  // proving the deferral above was the guard, not a capacity accident.
  ScalingPolicy open;
  open.protect_hipri = false;
  ScalingController unguarded(orch, demand, ledger, open);
  EXPECT_EQ(unguarded.tick(0.0), 1u);
  EXPECT_DOUBLE_EQ(ScalingController::chain_scale(orch, *orch.chain(lopri)), 2.0);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

TEST(ScalingCooldownTest, TableHoldsOnlyLiveChains) {
  ThreeServiceDc plane;
  auto& orch = plane.dc.orchestrator();
  const NfcId a = plane.provision(0, 1.0, PriorityClass::kHipri);
  const NfcId b = plane.provision(1, 1.0, PriorityClass::kHipri);
  const NfcId c = plane.provision(2, 1.0, PriorityClass::kHipri);
  DemandModel demand{ScalingFixture::quiet_params()};
  for (const NfcId id : {a, b, c}) demand.track(id, 2.0);
  UpdateCostLedger ledger;
  ScalingController controller(orch, demand, ledger);  // cooldown_s = 2.0

  const auto stamped_ids = [&] {
    std::vector<NfcId> ids;
    for (const auto& [id, at_s] : controller.cooldown_stamps()) ids.push_back(id);
    return ids;
  };
  ASSERT_EQ(controller.tick(0.0), 3u);
  EXPECT_EQ(stamped_ids(), (std::vector<NfcId>{a, b, c}));

  // The middle chain goes: the next pass drops its stamp and keeps the
  // others' times.
  ASSERT_TRUE(orch.teardown_chain(b).is_ok());
  demand.forget(b);
  EXPECT_EQ(controller.tick(0.5), 0u);
  EXPECT_EQ(stamped_ids(), (std::vector<NfcId>{a, c}));
  for (const auto& [id, at_s] : controller.cooldown_stamps()) EXPECT_EQ(at_s, 0.0);

  // The survivors' stamps still hold the cooldown.
  for (const NfcId id : {a, c}) {
    demand.forget(id);
    demand.track(id, 0.4);
  }
  EXPECT_EQ(controller.tick(1.0), 0u);
  EXPECT_EQ(controller.stats().skipped_cooldown, 2u);

  // The last chain goes too; past the window the scale-in restamps `a`.
  ASSERT_TRUE(orch.teardown_chain(c).is_ok());
  demand.forget(c);
  EXPECT_EQ(controller.tick(3.0), 1u);
  ASSERT_EQ(controller.cooldown_stamps().size(), 1u);
  EXPECT_EQ(controller.cooldown_stamps().front().first, a);
  EXPECT_EQ(controller.cooldown_stamps().front().second, 3.0);

  // No live chains, no stamps.
  ASSERT_TRUE(orch.teardown_chain(a).is_ok());
  EXPECT_EQ(controller.tick(4.0), 0u);
  EXPECT_TRUE(controller.cooldown_stamps().empty());
}

TEST_F(ScalingFixture, DegradedChainsAreLeftToTheRecoveryPath) {
  const NfcId id = provision(1.0);
  demand.track(id, 4.0);
  // Kill every OPS: the chain parks degraded with zero bandwidth.
  for (std::size_t i = 0; i < topo.ops_count(); ++i) {
    ASSERT_TRUE(
        orch.handle_ops_failure(alvc::util::OpsId{static_cast<std::uint32_t>(i)}).has_value());
  }
  ASSERT_TRUE(orch.chain(id)->degraded);

  ScalingController controller(orch, demand, ledger);
  EXPECT_EQ(controller.tick(0.0), 0u);
  EXPECT_EQ(controller.stats().skipped_degraded, 1u);
  EXPECT_EQ(controller.stats().scale_outs, 0u);
}

TEST_F(ScalingFixture, HostFitLimitsScaleOutAtomically) {
  const NfcId id = provision(1.0);
  // Target 5x firewall = 5 cores: more than any 4-core optoelectronic
  // router holds, so every per-function scale attempt must be refused
  // with the reservations untouched.
  demand.track(id, 5.0);
  ScalingController controller(orch, demand, ledger);
  EXPECT_EQ(controller.tick(0.0), 0u);
  EXPECT_EQ(controller.stats().rejected, 2u);
  EXPECT_DOUBLE_EQ(scale_of(id), 1.0);
  EXPECT_TRUE(orch.cloud().pool().is_consistent());
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

}  // namespace
}  // namespace alvc::elastic
