#include "sdn/events.h"

#include <gtest/gtest.h>

#include "orchestrator/orchestrator.h"
#include "support/fixtures.h"

namespace alvc::sdn {
namespace {

TEST(ControlPlaneLogTest, AppendAndQuery) {
  ControlPlaneLog log;
  EXPECT_TRUE(log.empty());
  log.append(ControlEventType::kChainProvisioned, 1, "alpha");
  log.append(ControlEventType::kChainTornDown, 1);
  log.append(ControlEventType::kChainProvisioned, 2, "beta");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(ControlEventType::kChainProvisioned), 2u);
  EXPECT_EQ(log.count(ControlEventType::kOpsFailed), 0u);
  const auto provisioned = log.by_type(ControlEventType::kChainProvisioned);
  ASSERT_EQ(provisioned.size(), 2u);
  EXPECT_EQ(provisioned[0].subject, 1u);
  EXPECT_EQ(provisioned[0].detail, "alpha");
  EXPECT_EQ(provisioned[1].subject, 2u);
  EXPECT_TRUE(log.is_ordered());

  // count() is a running per-type counter; it must agree with a scan of
  // the log for every type, after a mixed sequence and across clear().
  const auto expect_counts_match_scan = [&log] {
    for (std::size_t t = 0; t < kControlEventTypeCount; ++t) {
      const auto type = static_cast<ControlEventType>(t);
      EXPECT_EQ(log.count(type), log.by_type(type).size()) << to_string(type);
    }
  };
  for (std::uint32_t i = 0; i < 100; ++i) {
    log.append(static_cast<ControlEventType>((i * 7) % kControlEventTypeCount), i);
  }
  expect_counts_match_scan();
  EXPECT_GT(log.count(ControlEventType::kChainRestored), 0u);
  log.clear();
  EXPECT_TRUE(log.empty());
  expect_counts_match_scan();
  log.append(ControlEventType::kSliceAllocated, 7);
  log.append(ControlEventType::kSliceReleased, 7);
  log.append(ControlEventType::kSliceAllocated, 8);
  expect_counts_match_scan();
  EXPECT_EQ(log.count(ControlEventType::kSliceAllocated), 2u);
  EXPECT_EQ(log.count(ControlEventType::kSliceReleased), 1u);
  EXPECT_EQ(log.count(ControlEventType::kChainProvisioned), 0u);
  EXPECT_TRUE(log.is_ordered());
}

TEST(ControlPlaneLogTest, EventTypeNames) {
  EXPECT_EQ(to_string(ControlEventType::kChainProvisioned), "chain-provisioned");
  EXPECT_EQ(to_string(ControlEventType::kVnfRelocated), "vnf-relocated");
  EXPECT_EQ(to_string(ControlEventType::kOpsFailed), "ops-failed");
  EXPECT_EQ(to_string(ControlEventType::kAlRepaired), "al-repaired");
}

TEST(ControlPlaneLogTest, OrchestratorWritesAuditTrail) {
  alvc::test::ClusterFixture f;
  alvc::orchestrator::NetworkOrchestrator orch(f.manager, f.catalog);
  alvc::nfv::NfcSpec spec;
  spec.name = "audited";
  spec.service = alvc::util::ServiceId{0};
  spec.bandwidth_gbps = 1.0;
  spec.functions = {*f.catalog.find_by_type(alvc::nfv::VnfType::kFirewall)};
  const alvc::orchestrator::GreedyOpticalPlacement placement;
  const auto id = orch.provision_chain(spec, placement);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(orch.control_log().count(ControlEventType::kChainProvisioned), 1u);
  EXPECT_EQ(orch.control_log().count(ControlEventType::kSliceAllocated), 1u);
  const auto events = orch.control_log().by_type(ControlEventType::kChainProvisioned);
  EXPECT_EQ(events[0].detail, "audited");

  ASSERT_TRUE(orch.teardown_chain(*id).is_ok());
  EXPECT_EQ(orch.control_log().count(ControlEventType::kChainTornDown), 1u);
  EXPECT_EQ(orch.control_log().count(ControlEventType::kSliceReleased), 1u);
  EXPECT_TRUE(orch.control_log().is_ordered());
}

TEST(ControlPlaneLogTest, FailureWorkflowIsAudited) {
  alvc::test::ClusterFixture f;
  alvc::orchestrator::NetworkOrchestrator orch(f.manager, f.catalog);
  alvc::nfv::NfcSpec spec;
  spec.name = "failing";
  spec.service = alvc::util::ServiceId{0};
  spec.bandwidth_gbps = 1.0;
  spec.functions = {*f.catalog.find_by_type(alvc::nfv::VnfType::kFirewall)};
  const alvc::orchestrator::GreedyOpticalPlacement placement;
  const auto id = orch.provision_chain(spec, placement);
  ASSERT_TRUE(id.has_value());
  const auto* host_ops =
      std::get_if<alvc::util::OpsId>(&orch.chain(*id)->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  ASSERT_TRUE(orch.handle_ops_failure(*host_ops).has_value());
  EXPECT_EQ(orch.control_log().count(ControlEventType::kOpsFailed), 1u);
  EXPECT_EQ(orch.control_log().count(ControlEventType::kAlRepaired), 1u);
  EXPECT_GE(orch.control_log().count(ControlEventType::kVnfRelocated), 1u);
  EXPECT_EQ(orch.control_log().count(ControlEventType::kChainRepaired) +
                orch.control_log().count(ControlEventType::kChainLost),
            1u);
  EXPECT_TRUE(orch.control_log().is_ordered());
}

// A link event's subject is its ToR and its peer the OPS; every other
// event leaves peer at kNoPeer.
TEST(ControlPlaneLogTest, LinkEventsRecordTheirOpsAsPeer) {
  alvc::test::ClusterFixture f;
  alvc::orchestrator::NetworkOrchestrator orch(f.manager, f.catalog);
  const alvc::util::TorId tor{0};
  const alvc::util::OpsId ops = f.topo.tor(tor).uplinks.back();
  ASSERT_TRUE(orch.handle_link_failure(tor, ops).has_value());
  ASSERT_TRUE(orch.handle_link_recovery(tor, ops).has_value());
  for (const ControlEventType type : {ControlEventType::kLinkFailed,
                                      ControlEventType::kLinkRecovered}) {
    const auto events = orch.control_log().by_type(type);
    ASSERT_EQ(events.size(), 1u) << to_string(type);
    EXPECT_EQ(events[0].subject, tor.value());
    EXPECT_EQ(events[0].peer, ops.value());
    EXPECT_TRUE(events[0].detail.empty());
  }
  ASSERT_TRUE(orch.handle_ops_failure(ops).has_value());
  const auto ops_events = orch.control_log().by_type(ControlEventType::kOpsFailed);
  ASSERT_EQ(ops_events.size(), 1u);
  EXPECT_EQ(ops_events[0].subject, ops.value());
  EXPECT_EQ(ops_events[0].peer, ControlEvent::kNoPeer);
}

TEST(ControlPlaneLogTest, MigrationIsAudited) {
  alvc::test::ClusterFixture f;
  alvc::orchestrator::NetworkOrchestrator orch(f.manager, f.catalog);
  alvc::nfv::NfcSpec spec;
  spec.name = "moving";
  spec.service = alvc::util::ServiceId{0};
  spec.bandwidth_gbps = 1.0;
  spec.functions = {*f.catalog.find_by_type(alvc::nfv::VnfType::kFirewall)};
  const alvc::orchestrator::GreedyOpticalPlacement placement;
  const auto id = orch.provision_chain(spec, placement);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(orch.migrate_function(*id, 0, alvc::nfv::HostRef{alvc::util::ServerId{0}})
                  .is_ok());
  const auto events = orch.control_log().by_type(ControlEventType::kVnfRelocated);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("operator migration"), std::string::npos);
}

}  // namespace
}  // namespace alvc::sdn
