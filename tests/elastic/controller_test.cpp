// ElasticController: the phases of one tick share a snapshot, and observe
// must see every chain's scale factor as the actuators left it. A tick that
// scales a chain out and then migrates one of its functions (which
// redeploys it at scale 1) is the case where a scale read once, during the
// scale pass, would go stale.
#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>

#include "elastic/controller.h"
#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/placement.h"
#include "support/fixtures.h"

namespace alvc::elastic {
namespace {

using alvc::faults::StateAuditor;
using alvc::nfv::HostRef;
using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::test::ClusterFixture;
using alvc::util::NfcId;
using alvc::util::OpsId;
using alvc::util::ServiceId;

struct ElasticControllerTest : ::testing::Test, ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};
  alvc::orchestrator::GreedyOpticalPlacement placement;

  NfcId provision_firewall() {
    NfcSpec spec;
    spec.name = "elastic";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*catalog.find_by_type(VnfType::kFirewall)};
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST_F(ElasticControllerTest, ObserveSeesTheScaleAMigrationLeftBehind) {
  const NfcId id = provision_firewall();
  const HostRef home = orch.chain(id)->placement.hosts[0];
  ASSERT_TRUE(std::holds_alternative<OpsId>(home));
  const double idle = orch.cloud().pool().utilization(home);
  ASSERT_GT(idle, 0.0);

  // Demand is the diurnal wave alone, and the tick runs at a time where it
  // sits between 1.2x and 1.8x the granted 1 Gbps: the scale pass doubles
  // the firewall, served capacity 2 Gbps covers the demand, 1 Gbps does not.
  ElasticParams params;
  params.demand.seed = 3;
  params.demand.diurnal_amplitude = 1.0;
  params.demand.flash_rate_per_s = 0;
  params.demand.churn_amplitude = 0;
  // Hot once the firewall runs at 2x on its router, not at 1x: the migrate
  // pass then moves it, in the same tick, to a fresh instance at scale 1.
  params.migration.hot_utilization = 1.5 * idle;
  DemandModel twin{params.demand};
  twin.track(id, 1.0);
  double now_s = 0;
  while (now_s < params.demand.diurnal_period_s &&
         !(twin.demand_gbps(id, now_s) > 1.2 && twin.demand_gbps(id, now_s) < 1.8)) {
    now_s += 0.25;
  }
  const double demand = twin.demand_gbps(id, now_s);
  ASSERT_GT(demand, 1.2);
  ASSERT_LT(demand, 1.8);

  ElasticController controller(orch, placement, params);
  controller.tick(now_s);

  // Both actuators acted on the chain in this one tick.
  ASSERT_EQ(controller.scaling().stats().scale_outs, 1u);
  ASSERT_EQ(controller.migration().stats().migrations, 1u);
  const auto* chain = orch.chain(id);
  ASSERT_NE(chain, nullptr);
  EXPECT_FALSE(chain->placement.hosts[0] == home);
  const double scale = ScalingController::chain_scale(orch, *chain);
  EXPECT_DOUBLE_EQ(scale, 1.0);

  // Observe counts the violation that the post-migration scale implies; a
  // scale still reading 2x would report demand as served.
  const bool violated = demand > chain->reserved_gbps * scale + 1e-9;
  ASSERT_TRUE(violated);
  EXPECT_EQ(controller.stats().chain_observations, 1u);
  EXPECT_EQ(controller.stats().slo_violations, 1u);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

}  // namespace
}  // namespace alvc::elastic
