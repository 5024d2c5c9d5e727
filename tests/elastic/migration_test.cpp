// MigrationPlanner: hot-host relief in both execution modes, with the
// update-cost ledger pinning the paper's central ratio — an incremental
// migration touches the AL twice, a teardown-and-reprovision of a
// k-function chain touches it 2k + 2 times (3x for k = 2).
#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>
#include <vector>

#include "elastic/migration.h"
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

struct MigrationFixture : ::testing::Test, ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};
  alvc::orchestrator::GreedyOpticalPlacement placement;
  UpdateCostLedger ledger;

  NfcId provision(std::vector<VnfType> types) {
    NfcSpec spec;
    spec.name = "mig";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = 1.0;
    for (VnfType type : types) spec.functions.push_back(*catalog.find_by_type(type));
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }

  /// Deploys filler firewalls straight through the cloud manager until
  /// `host` crosses the hot threshold; returns the filler ids so tests can
  /// release them before the closing audit (raw deploys are not chain
  /// instances, and the auditor rightly calls unreleased ones orphans).
  std::vector<alvc::util::VnfInstanceId> heat(const HostRef& host, double hot) {
    const auto firewall = *catalog.find_by_type(VnfType::kFirewall);
    std::vector<alvc::util::VnfInstanceId> fillers;
    while (orch.cloud().pool().utilization(host) < hot) {
      auto id = orch.cloud().deploy(firewall, host);
      if (!id.has_value()) throw std::runtime_error("filler deploy failed: host cannot get hot");
      fillers.push_back(*id);
    }
    return fillers;
  }

  void release(const std::vector<alvc::util::VnfInstanceId>& fillers) {
    for (auto id : fillers) ASSERT_TRUE(orch.cloud().terminate(id).is_ok());
  }
};

TEST_F(MigrationFixture, IncrementalMoveRelievesHotHostAtTwoAlUpdates) {
  const NfcId id = provision({VnfType::kFirewall});
  const HostRef before_host = orch.chain(id)->placement.hosts[0];
  // Greedy-optical puts a fitting function on an optoelectronic router.
  ASSERT_TRUE(std::holds_alternative<OpsId>(before_host));

  MigrationPlanner planner(orch, ledger, placement);
  const auto fillers = heat(before_host, planner.policy().hot_utilization);
  ASSERT_GE(orch.cloud().pool().utilization(before_host), planner.policy().hot_utilization);

  EXPECT_EQ(planner.tick(0.0), 1u);
  EXPECT_EQ(planner.stats().migrations, 1u);
  const auto* chain = orch.chain(id);
  ASSERT_NE(chain, nullptr);
  EXPECT_FALSE(chain->placement.hosts[0] == before_host);
  // The fresh instance lands at scale 1.0 (the migrate contract); the
  // scaling loop re-grows it on a later tick if demand still wants it.
  EXPECT_DOUBLE_EQ(orch.cloud().lifecycle().instance(chain->instances[0]).scale, 1.0);
  EXPECT_EQ(orch.stats().vnfs_relocated, 1u);

  // The headline number: one terminate + one deploy, nothing else touches
  // the abstraction layer.
  EXPECT_EQ(ledger.totals(ActionKind::kMigration).actions, 1u);
  EXPECT_EQ(ledger.totals(ActionKind::kMigration).al_updates, 2u);
  EXPECT_DOUBLE_EQ(ledger.al_updates_per_action(ActionKind::kMigration), 2.0);

  release(fillers);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

TEST_F(MigrationFixture, HostExactlyAtTheThresholdIsHot) {
  const NfcId id = provision({VnfType::kFirewall});
  const HostRef home = orch.chain(id)->placement.hosts[0];
  const double util = orch.cloud().pool().utilization(home);
  ASSERT_GT(util, 0.0);
  // The threshold is the host's own utilization: `>=` makes it hot, and
  // the peak equals the threshold, so the early return must not fire.
  MigrationPolicy policy;
  policy.hot_utilization = util;
  MigrationPlanner planner(orch, ledger, placement, policy);
  ASSERT_EQ(orch.cloud().pool().peak_utilization(), util);

  EXPECT_EQ(planner.tick(0.0), 1u);
  EXPECT_EQ(planner.stats().migrations, 1u);
  EXPECT_FALSE(orch.chain(id)->placement.hosts[0] == home);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

TEST_F(MigrationFixture, PassWithEveryHostBelowTheThresholdDoesNothing) {
  const NfcId id = provision({VnfType::kFirewall, VnfType::kNat});
  MigrationPlanner planner(orch, ledger, placement);
  // One real move first, so the stats the quiet pass must leave alone are
  // not all zero.
  const auto fillers = heat(orch.chain(id)->placement.hosts[0], planner.policy().hot_utilization);
  ASSERT_EQ(planner.tick(0.0), 1u);
  release(fillers);
  ASSERT_LT(orch.cloud().pool().peak_utilization(), planner.policy().hot_utilization);

  const MigrationStats before = planner.stats();
  const auto chains = orch.chains();
  std::vector<std::size_t> attempted;
  EXPECT_EQ(planner.tick(100.0, chains, attempted), 0u);
  EXPECT_TRUE(attempted.empty());
  const MigrationStats& after = planner.stats();
  EXPECT_EQ(after.migrations, before.migrations);
  EXPECT_EQ(after.reprovisions, before.reprovisions);
  EXPECT_EQ(after.failed, before.failed);
  EXPECT_EQ(after.lost, before.lost);
  EXPECT_EQ(after.no_target, before.no_target);
  EXPECT_EQ(ledger.totals(ActionKind::kMigration).actions, 1u);
}

TEST_F(MigrationFixture, CooldownSpacesRepeatMovesOfTheSameChain) {
  const NfcId id = provision({VnfType::kFirewall});
  MigrationPlanner planner(orch, ledger, placement);
  const auto fillers = heat(orch.chain(id)->placement.hosts[0], planner.policy().hot_utilization);
  ASSERT_EQ(planner.tick(0.0), 1u);

  // Heat the new host too: the chain is hot again, but it just moved.
  const auto more = heat(orch.chain(id)->placement.hosts[0], planner.policy().hot_utilization);
  EXPECT_EQ(planner.tick(1.0), 0u) << "cooldown must space repeat moves";
  EXPECT_EQ(planner.tick(1.0 + planner.policy().cooldown_s), 1u);
  EXPECT_EQ(planner.stats().migrations, 2u);

  release(fillers);
  release(more);
}

TEST_F(MigrationFixture, ReprovisionBaselineCostsTwoKPlusTwo) {
  const NfcId id = provision({VnfType::kFirewall, VnfType::kNat});  // k = 2
  MigrationPlanner planner(orch, ledger, placement, {}, ExecutionMode::kReprovision);
  std::vector<std::pair<NfcId, NfcId>> remaps;
  planner.set_on_reprovision([&](NfcId from, NfcId to) { remaps.emplace_back(from, to); });

  const HostRef hot_host = orch.chain(id)->placement.hosts[0];
  const auto fillers = heat(hot_host, planner.policy().hot_utilization);

  EXPECT_EQ(planner.tick(0.0), 1u);
  EXPECT_EQ(planner.stats().reprovisions, 1u);
  EXPECT_EQ(planner.stats().lost, 0u);

  // The old id is gone, a fresh chain exists, and the remap hook saw both.
  EXPECT_EQ(orch.chain(id), nullptr);
  ASSERT_EQ(remaps.size(), 1u);
  EXPECT_EQ(remaps[0].first, id);
  EXPECT_NE(orch.chain(remaps[0].second), nullptr);

  // 2 terminates + 2 deploys + slice release + slice allocate = 2k + 2.
  EXPECT_EQ(ledger.totals(ActionKind::kReprovision).actions, 1u);
  EXPECT_EQ(ledger.totals(ActionKind::kReprovision).al_updates, 6u);

  release(fillers);
  EXPECT_TRUE(StateAuditor::audit(orch).empty());
}

TEST_F(MigrationFixture, IncrementalBeatsReprovisionThreefold) {
  // Same hot-host situation handled both ways, one ledger: the measured
  // per-action AL-update ratio is the paper's >= 3x claim for k = 2.
  const NfcId inc = provision({VnfType::kFirewall, VnfType::kNat});
  MigrationPlanner planner(orch, ledger, placement);
  auto fillers = heat(orch.chain(inc)->placement.hosts[0], planner.policy().hot_utilization);
  ASSERT_EQ(planner.tick(0.0), 1u);
  release(fillers);

  planner.set_mode(ExecutionMode::kReprovision);
  fillers = heat(orch.chain(inc)->placement.hosts[0], planner.policy().hot_utilization);
  ASSERT_EQ(planner.tick(100.0), 1u);
  release(fillers);

  const double incremental = ledger.al_updates_per_action(ActionKind::kMigration);
  const double reprovision = ledger.al_updates_per_action(ActionKind::kReprovision);
  ASSERT_GT(incremental, 0.0);
  EXPECT_GE(reprovision, 3.0 * incremental)
      << "incremental=" << incremental << " reprovision=" << reprovision;
}

TEST_F(MigrationFixture, NoFeasibleTargetIsCountedNotForced) {
  // Two-function chain: with both optoelectronic routers hot (the second
  // one heated by fillers), a hot instance has nowhere optical to go and
  // the firewall *can* still fall back to a server — so instead pin the
  // chain with the electronic-only wan-optimizer, whose only alternatives
  // are the other servers, and heat those too.
  const NfcId id = provision({VnfType::kWanOptimizer});
  const HostRef home = orch.chain(id)->placement.hosts[0];
  MigrationPlanner planner(orch, ledger, placement);
  const double hot = planner.policy().hot_utilization;

  std::vector<alvc::util::VnfInstanceId> fillers;
  auto absorb = [&](std::vector<alvc::util::VnfInstanceId> more) {
    fillers.insert(fillers.end(), more.begin(), more.end());
  };
  absorb(heat(home, hot));
  for (std::size_t s = 0; s < topo.server_count(); ++s) {
    absorb(heat(HostRef{alvc::util::ServerId{static_cast<std::uint32_t>(s)}}, hot));
  }

  EXPECT_EQ(planner.tick(0.0), 0u);
  EXPECT_EQ(planner.stats().no_target, 1u);
  EXPECT_EQ(planner.stats().migrations, 0u);
  // The chain is untouched and still serving.
  ASSERT_NE(orch.chain(id), nullptr);
  EXPECT_TRUE(orch.chain(id)->placement.hosts[0] == home);

  release(fillers);
}

}  // namespace
}  // namespace alvc::elastic
