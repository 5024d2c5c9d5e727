// Failure injection at the orchestration layer: OPS failures that strand
// VNF instances and break chain routes; the orchestrator must relocate,
// re-route, and re-program — or park the chain in degraded mode, never
// tearing it down.
#include <gtest/gtest.h>

#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::OpsId;
using alvc::util::ServiceId;

struct FailureFixture : ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};

  alvc::util::NfcId provision(std::initializer_list<VnfType> types) {
    NfcSpec spec;
    spec.name = "chain";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = 1.0;
    for (auto t : types) spec.functions.push_back(*catalog.find_by_type(t));
    const GreedyOpticalPlacement placement;
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST(OrchestratorFailureTest, ChainsUsingOpsDetectsHostsAndRoutes) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto* chain = f.orch.chain(id);
  // Find the OPS hosting the first VNF.
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr) << "greedy-optical should host light VNFs optically";
  const auto affected = f.orch.chains_using_ops(*host_ops);
  ASSERT_EQ(affected.size(), 1u);
  EXPECT_EQ(affected[0], id);
  // An OPS in no route and hosting nothing affects nothing.
  OpsId untouched = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (f.orch.chains_using_ops(o).empty()) {
      untouched = o;
      break;
    }
  }
  if (untouched.valid()) {
    EXPECT_TRUE(f.orch.chains_using_ops(untouched).empty());
  }
}

TEST(OrchestratorFailureTest, VnfRelocatedOffFailedRouter) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  const auto* chain = f.orch.chain(id);
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  const OpsId victim = *host_ops;

  const auto repaired = f.orch.handle_ops_failure(victim);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, 1u);
  EXPECT_EQ(f.orch.stats().chains_repaired, 1u);
  EXPECT_GE(f.orch.stats().vnfs_relocated, 1u);

  const auto* after = f.orch.chain(id);
  ASSERT_NE(after, nullptr) << "chain must survive";
  for (const auto& host : after->placement.hosts) {
    if (const auto* o = std::get_if<OpsId>(&host)) {
      EXPECT_NE(*o, victim) << "VNF still on the failed router";
    }
  }
  // Route avoids the failed OPS.
  const std::size_t failed_vertex = f.topo.ops_vertex(victim);
  for (std::size_t v : after->route.vertices) EXPECT_NE(v, failed_vertex);
  EXPECT_GT(after->flow_rules, 0u);
  EXPECT_TRUE(f.orch.check_isolation().empty());
}

TEST(OrchestratorFailureTest, UnrelatedFailureLeavesChainAlone) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall});
  // Find an OPS not used by the chain and not in the AL.
  OpsId unrelated = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (f.orch.chains_using_ops(o).empty() && f.manager.ownership().is_free(o)) {
      unrelated = o;
      break;
    }
  }
  if (!unrelated.valid()) GTEST_SKIP() << "fixture too small to have an unrelated OPS";
  const auto rules_before = f.orch.chain(id)->flow_rules;
  const auto repaired = f.orch.handle_ops_failure(unrelated);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, 0u);
  EXPECT_EQ(f.orch.chain(id)->flow_rules, rules_before);
  EXPECT_EQ(f.orch.stats().chains_lost, 0u);
}

TEST(OrchestratorFailureTest, BadOpsIdRejected) {
  FailureFixture f;
  const auto result = f.orch.handle_ops_failure(OpsId{999});
  ASSERT_FALSE(result.has_value());
}

TEST(OrchestratorFailureTest, CascadingFailuresDegradeInsteadOfTearingDown) {
  FailureFixture f;
  const auto id = f.provision({VnfType::kFirewall, VnfType::kNat});
  // Fail every OPS one by one. The chain must stay live throughout: once no
  // full-bandwidth refit exists it parks in degraded mode (reduced or zero
  // bandwidth, a recorded reason, queued for retry) with nothing left on
  // dead hardware or outside its slice.
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    SCOPED_TRACE(::testing::Message() << "after failing OPS " << i);
    ASSERT_TRUE(f.orch.handle_ops_failure(o).has_value());
    const auto* chain = f.orch.chain(id);
    ASSERT_NE(chain, nullptr) << "a failure must never tear a chain down";
    EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
    if (chain->degraded) {
      EXPECT_FALSE(chain->degraded_reason.empty());
      EXPECT_LT(chain->reserved_gbps, chain->record.spec.bandwidth_gbps);
    }
  }
  // With every OPS down no ToR-to-ToR path exists: the chain is parked at
  // zero bandwidth, rule-free, and waiting for a retry.
  const auto* parked = f.orch.chain(id);
  ASSERT_NE(parked, nullptr);
  EXPECT_TRUE(parked->degraded);
  EXPECT_EQ(parked->reserved_gbps, 0.0);
  EXPECT_EQ(f.orch.controller().tables().total_rules(), 0u);
  EXPECT_EQ(f.orch.retry_queue_size(), 1u);
  EXPECT_EQ(f.orch.stats().chains_torn_down, 0u);
  EXPECT_EQ(f.orch.stats().chains_lost, 0u);
  EXPECT_EQ(f.orch.slices().slice_count(), 1u);
}

}  // namespace
}  // namespace alvc::orchestrator
