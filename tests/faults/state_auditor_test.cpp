// StateAuditor: a healthy control plane audits clean; out-of-band hardware
// mutation (bypassing the recovery workflows) is caught; the orchestrator's
// own repair paths always leave an auditable state behind.
#include <gtest/gtest.h>

#include <variant>

#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::faults {
namespace {

using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::NfcId;
using alvc::util::OpsId;
using alvc::util::ServiceId;

struct AuditFixture : ClusterFixture {
  orchestrator::NetworkOrchestrator orch{manager, catalog};

  NfcId provision() {
    NfcSpec spec;
    spec.name = "chain";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*catalog.find_by_type(VnfType::kFirewall),
                      *catalog.find_by_type(VnfType::kNat)};
    const orchestrator::GreedyOpticalPlacement placement;
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST(StateAuditorTest, HealthyDeploymentAuditsClean) {
  AuditFixture f;
  ALVC_IGNORE_STATUS(f.provision(), "the fixture throws on failure; the id is unused");
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty());
}

TEST(StateAuditorTest, DetectsOutOfBandHardwareFailure) {
  AuditFixture f;
  const auto id = f.provision();
  const auto* chain = f.orch.chain(id);
  ASSERT_NE(chain, nullptr);
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);

  // Flip the hardware flag directly, without going through the recovery
  // workflows: placement, route, and AL invariants all break at once.
  ASSERT_TRUE(f.topo.set_ops_failed(*host_ops, true).is_ok());
  const auto violations = StateAuditor::audit(f.orch);
  EXPECT_FALSE(violations.empty());

  ASSERT_TRUE(f.topo.set_ops_failed(*host_ops, false).is_ok());
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty());
}

TEST(StateAuditorTest, RecoveryWorkflowLeavesAuditableState) {
  AuditFixture f;
  const auto id = f.provision();
  const auto* chain = f.orch.chain(id);
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  // A copy: the failure relocates the VNF, which rewrites the placement
  // `host_ops` points into.
  const OpsId failed = *host_ops;

  // The same failure through the proper workflow must keep every invariant:
  // the AL is repaired, the VNF relocated, the route re-programmed.
  ASSERT_TRUE(f.orch.handle_ops_failure(failed).has_value());
  EXPECT_FALSE(f.topo.ops_usable(failed));
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty());

  ASSERT_TRUE(f.orch.handle_ops_recovery(failed).has_value());
  EXPECT_TRUE(f.topo.ops_usable(failed));
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty());
}

TEST(StateAuditorTest, DegradedChainsPassTheAudit) {
  AuditFixture f;
  ALVC_IGNORE_STATUS(f.provision(), "the fixture throws on failure; the id is unused");
  // Strand the whole optical layer and both racks' uplinks: coverage is
  // unrepairable, so the chain must park degraded — and still audit clean.
  for (std::size_t o = 0; o < f.topo.ops_count(); ++o) {
    ASSERT_TRUE(f.orch.handle_ops_failure(OpsId{static_cast<OpsId::value_type>(o)}).has_value());
  }
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty())
      << StateAuditor::audit(f.orch).front();
  EXPECT_GT(f.orch.degraded_chain_count(), 0u);

  // Recovery drains the retry queue; the chain comes back at full service.
  for (std::size_t o = 0; o < f.topo.ops_count(); ++o) {
    ASSERT_TRUE(f.orch.handle_ops_recovery(OpsId{static_cast<OpsId::value_type>(o)}).has_value());
  }
  EXPECT_TRUE(StateAuditor::audit(f.orch).empty());
  EXPECT_EQ(f.orch.degraded_chain_count(), 0u);
  EXPECT_GT(f.orch.stats().chains_restored, 0u);
}

}  // namespace
}  // namespace alvc::faults
