#include "sdn/events.h"

#include <gtest/gtest.h>

#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "support/fixtures.h"

namespace alvc::sdn {
namespace {

TEST(ControlPlaneLogTest, AppendAndQuery) {
  ControlPlaneLog log;
  EXPECT_TRUE(log.empty());
  log.append(ControlEventType::kChainProvisioned, 1);
  log.append(ControlEventType::kChainTornDown, 1);
  log.append(ControlEventType::kChainProvisioned, 2);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(ControlEventType::kChainProvisioned), 2u);
  EXPECT_EQ(log.count(ControlEventType::kOpsFailed), 0u);
  const auto provisioned = log.by_type(ControlEventType::kChainProvisioned);
  ASSERT_EQ(provisioned.size(), 2u);
  EXPECT_EQ(provisioned[0].subject, 1u);
  EXPECT_EQ(provisioned[0].cause, ControlCause::kNone);
  EXPECT_EQ(provisioned[0].arg, ControlEvent::kNoArg);
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
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].subject, id->value());

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
  for (const ControlEvent& e : orch.control_log().by_type(ControlEventType::kVnfRelocated)) {
    EXPECT_EQ(e.cause, ControlCause::kFailureRelocation);
    EXPECT_EQ(e.arg, 0u);  // the chain's only function
  }
  EXPECT_EQ(orch.control_log().count(ControlEventType::kChainRepaired) +
                orch.control_log().count(ControlEventType::kChainLost),
            1u);
  EXPECT_TRUE(orch.control_log().is_ordered());
}

// A link event's subject is its ToR and its arg the OPS; an event with no
// number leaves arg at kNoArg.
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
    EXPECT_EQ(events[0].arg, ops.value());
    EXPECT_EQ(events[0].cause, ControlCause::kNone);
  }
  ASSERT_TRUE(orch.handle_ops_failure(ops).has_value());
  const auto ops_events = orch.control_log().by_type(ControlEventType::kOpsFailed);
  ASSERT_EQ(ops_events.size(), 1u);
  EXPECT_EQ(ops_events[0].subject, ops.value());
  EXPECT_EQ(ops_events[0].arg, ControlEvent::kNoArg);
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
  EXPECT_EQ(events[0].subject, id->value());
  EXPECT_EQ(events[0].cause, ControlCause::kOperatorMigration);
  EXPECT_EQ(events[0].arg, 0u);  // the function index
}

// One chain-health writer serves every path that degrades or restores a
// chain. Walk chains through each of them under kPriorityDowngrade and
// check, after every step, the chain's flag and cause, both stats, the
// newest health record and the retry queue. The fixture's one cluster
// backs one chain at a time; its 10 Gbps ToR ports cap a single chain's
// walk at 10 Gbps, and the ToR budget knob lets the rebalance shed and
// grow a chain without any other tenant.
TEST(ControlPlaneLogTest, EveryChainHealthWriterIsRecorded) {
  using alvc::orchestrator::AllocationPolicy;
  alvc::test::ClusterFixture f;
  alvc::orchestrator::NetworkOrchestrator orch(f.manager, f.catalog);
  orch.set_allocation_policy(AllocationPolicy::kPriorityDowngrade);
  const alvc::orchestrator::GreedyOpticalPlacement placement;
  const auto spec = [&](double gbps) {
    alvc::nfv::NfcSpec s;
    s.name = "health";
    s.service = alvc::util::ServiceId{0};
    s.bandwidth_gbps = gbps;
    s.priority = alvc::nfv::PriorityClass::kLopri;
    s.functions = {*f.catalog.find_by_type(alvc::nfv::VnfType::kFirewall)};
    return s;
  };
  struct Want {
    bool degraded;
    ControlCause chain_cause;
    std::size_t chains_degraded;
    std::size_t chains_restored;
    ControlEventType record;
    ControlCause record_cause;
    std::uint32_t percent;
    std::size_t retry_queue;
  };
  const auto expect_state = [&](alvc::util::NfcId id, const Want& want) {
    const auto* chain = orch.chain(id);
    ASSERT_NE(chain, nullptr);
    EXPECT_EQ(chain->degraded, want.degraded);
    EXPECT_EQ(chain->degraded_reason, want.chain_cause);
    EXPECT_EQ(orch.stats().chains_degraded, want.chains_degraded);
    EXPECT_EQ(orch.stats().chains_restored, want.chains_restored);
    const ControlEvent* newest = nullptr;
    for (const ControlEvent& e : orch.control_log().events()) {
      if (e.type == ControlEventType::kChainDegraded ||
          e.type == ControlEventType::kChainRestored) {
        newest = &e;
      }
    }
    ASSERT_NE(newest, nullptr);
    EXPECT_EQ(newest->type, want.record);
    EXPECT_EQ(newest->subject, id.value());
    EXPECT_EQ(newest->cause, want.record_cause);
    EXPECT_EQ(newest->arg, want.percent);
    EXPECT_EQ(orch.retry_queue_size(), want.retry_queue);
    EXPECT_TRUE(alvc::faults::StateAuditor::audit(orch).empty());
  };

  // Provision-time reduced admission: 15 Gbps is admitted at its 1/2 rung.
  const auto reduced = orch.provision_chain(spec(15.0), placement);
  ASSERT_TRUE(reduced.has_value());
  {
    SCOPED_TRACE("reduced admission");
    expect_state(*reduced, {true, ControlCause::kAdmittedReduced, 1, 0,
                            ControlEventType::kChainDegraded, ControlCause::kAdmittedReduced,
                            50, 1});
  }
  // Allocator shed of an already degraded chain: a 4 Gbps ToR budget leaves
  // room for the 1/4 rung. The chain does not enter degraded mode again.
  orch.set_tor_budget_factor(0.4);
  orch.rebalance_bandwidth();
  {
    SCOPED_TRACE("shed while degraded");
    expect_state(*reduced, {true, ControlCause::kShedByAllocator, 1, 0,
                            ControlEventType::kChainDegraded, ControlCause::kShedByAllocator,
                            25, 1});
  }
  ASSERT_TRUE(orch.teardown_chain(*reduced).is_ok());
  EXPECT_EQ(orch.retry_queue_size(), 0u) << "the teardown drops the chain's retry entry";

  // A 10 Gbps chain is admitted in full, then shed by the same budget in
  // the provision's own rebalance, and queued.
  const auto id = orch.provision_chain(spec(10.0), placement);
  ASSERT_TRUE(id.has_value());
  {
    SCOPED_TRACE("shed at provision");
    expect_state(*id, {true, ControlCause::kShedByAllocator, 2, 0,
                       ControlEventType::kChainDegraded, ControlCause::kShedByAllocator, 25,
                       1});
  }
  // Rebalance restore: the budget lifts and the rebalance grows the chain
  // back to full demand. Its retry entry stays queued until a drain.
  orch.set_tor_budget_factor(2.0);
  orch.rebalance_bandwidth();
  {
    SCOPED_TRACE("rebalance restore");
    expect_state(*id, {false, ControlCause::kNone, 2, 1, ControlEventType::kChainRestored,
                       ControlCause::kRestoredByRebalance, 100, 1});
  }
  // Allocator shed to zero: a 0.5 Gbps budget fits no rung, so the chain
  // is parked.
  orch.set_tor_budget_factor(0.05);
  orch.rebalance_bandwidth();
  {
    SCOPED_TRACE("shed to zero");
    expect_state(*id, {true, ControlCause::kShedByAllocator, 3, 1,
                       ControlEventType::kChainDegraded, ControlCause::kShedByAllocator, 0, 1});
    EXPECT_TRUE(orch.chain(*id)->route.vertices.empty());
  }
  // A parked chain has no route to grow, so lifting the budget restores
  // nothing; the next recovery's retry drain refits it at full bandwidth
  // and drops its queue entry.
  orch.set_tor_budget_factor(2.0);
  orch.rebalance_bandwidth();
  EXPECT_TRUE(orch.chain(*id)->degraded);
  const alvc::util::ServerId idle{3};
  ASSERT_TRUE(orch.handle_server_failure(idle).has_value());
  const auto restored = orch.handle_server_recovery(idle);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 1u);
  {
    SCOPED_TRACE("retry restore");
    expect_state(*id, {false, ControlCause::kNone, 3, 2, ControlEventType::kChainRestored,
                       ControlCause::kRestoredByRetry, 100, 0});
  }
}

}  // namespace
}  // namespace alvc::sdn
