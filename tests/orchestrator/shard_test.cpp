// Sharded control-plane unit tests: partitioning edge cases (empty shards,
// everything on one shard, more shards than clusters), scoped-scan merge
// determinism, per-shard retry dedupe, the fan-out helper, and
// orchestrator sharding transitions mid-life.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/alvc.h"
#include "orchestrator/control_agent.h"
#include "support/fixtures.h"
#include "util/error.h"
#include "util/executor.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::VnfType;
using alvc::util::ClusterId;
using alvc::util::Executor;
using alvc::util::NfcId;

NfcId nfc(std::uint32_t v) { return NfcId{v}; }
ClusterId vc(std::uint32_t v) { return ClusterId{v}; }

TEST(FanOutShardsTest, SerialPathVisitsShardsInAscendingOrder) {
  std::vector<std::size_t> order;
  alvc::util::fan_out_shards(nullptr, 5, [&](std::size_t shard) { order.push_back(shard); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(FanOutShardsTest, ExecutorPathVisitsEveryShardExactlyOnce) {
  Executor exec(4);
  std::vector<std::atomic<int>> visits(16);
  alvc::util::fan_out_shards(&exec, visits.size(),
                             [&](std::size_t shard) { visits[shard].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "shard " << i;
  }
}

TEST(FanOutShardsTest, RethrowsTaskExceptions) {
  EXPECT_THROW(alvc::util::fan_out_shards(nullptr, 3,
                                          [](std::size_t shard) {
                                            if (shard == 1) throw std::runtime_error("boom");
                                          }),
               std::runtime_error);
  Executor exec(2);
  EXPECT_THROW(alvc::util::fan_out_shards(&exec, 3,
                                          [](std::size_t shard) {
                                            if (shard == 2) throw std::runtime_error("boom");
                                          }),
               std::runtime_error);
}

TEST(FanOutShardsTest, ZeroShardsIsANoOp) {
  bool called = false;
  alvc::util::fan_out_shards(nullptr, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

struct AgentFixture : alvc::test::SliceFixture {
  ControlAgent make(std::size_t shards, Executor* exec = nullptr) {
    return ControlAgent(topo, shards, exec);
  }
};

TEST(ControlAgentTest, PartitionsChainsByClusterModulo) {
  AgentFixture fx;
  auto agent = fx.make(4);
  agent.register_chain(nfc(0), vc(0));
  agent.register_chain(nfc(1), vc(1));
  agent.register_chain(nfc(2), vc(5));  // 5 % 4 == 1
  agent.register_chain(nfc(3), vc(7));  // 7 % 4 == 3
  EXPECT_EQ(agent.shard_of(vc(5)), 1u);
  EXPECT_EQ(agent.shard(0).chain_count(), 1u);
  EXPECT_EQ(agent.shard(1).chain_count(), 2u);
  EXPECT_EQ(agent.shard(2).chain_count(), 0u);
  EXPECT_EQ(agent.shard(3).chain_count(), 1u);
  ASSERT_NE(agent.shard(1).cluster_chains(vc(5)), nullptr);
  EXPECT_EQ(*agent.shard(1).cluster_chains(vc(5)), (std::vector<NfcId>{nfc(2)}));
  EXPECT_EQ(agent.membership_count(), 4u);

  agent.unregister_chain(nfc(2), vc(5));
  EXPECT_EQ(agent.shard(1).cluster_chains(vc(5)), nullptr);
  EXPECT_EQ(*agent.shard(1).cluster_chains(vc(1)), (std::vector<NfcId>{nfc(1)}));
  EXPECT_EQ(agent.membership_count(), 3u);
}

TEST(ControlAgentTest, ZeroShardsIsRejected) {
  AgentFixture fx;
  EXPECT_THROW(fx.make(0), std::invalid_argument);
}

TEST(ControlAgentTest, EmptyShardsScanCleanlyAndCountPasses) {
  AgentFixture fx;
  auto agent = fx.make(4);
  // Everything lands on shard 0; shards 1-3 stay empty.
  for (std::uint32_t i = 0; i < 5; ++i) agent.register_chain(nfc(i), vc(0));
  const std::vector<ClusterId> scope = {vc(0)};
  const auto merged = agent.scan_scoped(scope, [](NfcId, ScanItem&) { return true; });
  ASSERT_EQ(merged.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(merged[i].id, nfc(i));
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(agent.shard(s).counters().scans, 1u) << "shard " << s;
    EXPECT_EQ(agent.shard(s).counters().chains_visited, s == 0 ? 5u : 0u);
  }
}

TEST(ControlAgentTest, MoreShardsThanClustersLeavesTheRestIdle) {
  AgentFixture fx;
  auto agent = fx.make(8);
  agent.register_chain(nfc(10), vc(0));
  agent.register_chain(nfc(11), vc(1));
  EXPECT_EQ(agent.shard(0).chain_count(), 1u);
  EXPECT_EQ(agent.shard(1).chain_count(), 1u);
  for (std::size_t s = 2; s < 8; ++s) EXPECT_EQ(agent.shard(s).chain_count(), 0u);
  const std::vector<ClusterId> scope = {vc(0), vc(1)};
  const auto merged = agent.scan_scoped(scope, [](NfcId, ScanItem&) { return true; });
  EXPECT_EQ(merged.size(), 2u);
}

TEST(ControlAgentTest, ScopedScanVisitsOnlyTheScopedClustersChains) {
  AgentFixture fx;
  auto agent = fx.make(4);
  // Clusters 1 and 5 share shard 1; cluster 2 lives on shard 2.
  agent.register_chain(nfc(0), vc(0));
  agent.register_chain(nfc(1), vc(1));
  agent.register_chain(nfc(2), vc(5));
  agent.register_chain(nfc(3), vc(2));
  const std::vector<ClusterId> scope = {vc(5), vc(2), vc(5)};  // duplicates allowed
  const auto merged = agent.scan_scoped(scope, [](NfcId, ScanItem&) { return true; });
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].id, nfc(2));
  EXPECT_EQ(merged[1].id, nfc(3));
  std::uint64_t visited = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    visited += agent.shard(s).counters().chains_visited;
    EXPECT_EQ(agent.shard(s).counters().scans, 1u) << "shard " << s;
  }
  EXPECT_EQ(visited, 2u) << "chains outside the blast radius must not be classified";
}

TEST(ControlAgentTest, ScopedScanOfUnknownClusterFindsNothing) {
  AgentFixture fx;
  auto agent = fx.make(2);
  agent.register_chain(nfc(0), vc(0));
  const std::vector<ClusterId> scope = {vc(9)};
  EXPECT_TRUE(agent.scan_scoped(scope, [](NfcId, ScanItem&) { return true; }).empty());
  EXPECT_TRUE(agent.scan_scoped({}, [](NfcId, ScanItem&) { return true; }).empty());
}

TEST(ControlAgentTest, ScanMergeIsIndependentOfShardCountAndExecutor) {
  AgentFixture fx;
  Executor exec(4);
  // Ids deliberately registered out of order and spread over clusters.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> chains = {
      {9, 3}, {2, 0}, {7, 1}, {4, 6}, {0, 2}, {5, 5}, {1, 4}};
  const std::vector<ClusterId> scope = {vc(6), vc(0), vc(3), vc(1), vc(5), vc(2), vc(4)};
  std::vector<std::vector<NfcId>> results;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    for (Executor* e : {static_cast<Executor*>(nullptr), &exec}) {
      auto agent = fx.make(shards, e);
      for (const auto& [id, cluster] : chains) agent.register_chain(nfc(id), vc(cluster));
      const auto merged = agent.scan_scoped(scope, [](NfcId id, ScanItem& item) {
        item.verdict = static_cast<int>(id.value()) % 2;
        return item.verdict != 0;  // odd ids only
      });
      std::vector<NfcId> ids;
      for (const auto& item : merged) ids.push_back(item.id);
      results.push_back(std::move(ids));
    }
  }
  const std::vector<NfcId> expected = {nfc(1), nfc(5), nfc(7), nfc(9)};
  for (const auto& ids : results) EXPECT_EQ(ids, expected);
}

TEST(ControlAgentTest, RetrySegmentsDedupePerShardAndDrainSorted) {
  AgentFixture fx;
  auto agent = fx.make(2);
  EXPECT_TRUE(agent.enqueue_retry({.id = nfc(5)}, vc(1)));
  EXPECT_TRUE(agent.enqueue_retry({.id = nfc(3)}, vc(0)));
  EXPECT_FALSE(agent.enqueue_retry({.id = nfc(5)}, vc(1))) << "duplicate must be rejected";
  EXPECT_TRUE(agent.enqueue_retry({.id = nfc(9), .attempts = 2}, vc(2)));
  EXPECT_EQ(agent.retry_count(), 3u);
  EXPECT_EQ(agent.shard(0).counters().retries_enqueued +
                agent.shard(1).counters().retries_enqueued,
            3u);

  const auto drained = agent.drain_retries();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].id, nfc(3));
  EXPECT_EQ(drained[1].id, nfc(5));
  EXPECT_EQ(drained[2].id, nfc(9));
  EXPECT_EQ(drained[2].attempts, 2u);
  EXPECT_EQ(agent.retry_count(), 0u);
}

core::DataCenter make_dc() {
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = 11;
  config.seed = 3;
  core::DataCenter dc(config);
  auto clusters = dc.build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  return dc;
}

TEST(OrchestratorShardingTest, TransitionsRegisterLiveChainsAndFoldBack) {
  auto dc = make_dc();
  auto& orch = dc.orchestrator();
  const std::size_t chains = orch.chain_count();
  ASSERT_GT(chains, 0u);
  // A fresh orchestrator runs one inline shard.
  EXPECT_EQ(orch.shard_count(), 1u);
  ASSERT_NE(orch.agent(), nullptr);
  EXPECT_EQ(orch.agent()->executor(), nullptr);
  EXPECT_EQ(orch.agent()->membership_count(), chains);
  EXPECT_EQ(orch.route_caches().size(), 1u);

  // Shards exceed the three clusters: the extras stay empty, everything
  // still works.
  orch.set_sharding(8);
  EXPECT_EQ(orch.shard_count(), 8u);
  EXPECT_EQ(orch.agent()->membership_count(), chains);
  EXPECT_EQ(orch.route_caches().size(), 8u);

  // Re-sharding migrates membership; folding back to one shard restores
  // the single cache. Zero shards is rejected and changes nothing.
  orch.set_sharding(2);
  EXPECT_EQ(orch.shard_count(), 2u);
  EXPECT_EQ(orch.agent()->membership_count(), chains);
  EXPECT_THROW(orch.set_sharding(0), std::invalid_argument);
  EXPECT_EQ(orch.shard_count(), 2u);
  orch.set_sharding(1);
  EXPECT_EQ(orch.shard_count(), 1u);
  EXPECT_EQ(orch.agent()->membership_count(), chains);
  EXPECT_EQ(orch.route_caches().size(), 1u);
  EXPECT_EQ(orch.chain_count(), chains);
}

TEST(OrchestratorShardingTest, ShardedProvisionTeardownAndRecoveryStayCoherent) {
  auto dc = make_dc();
  auto& orch = dc.orchestrator();
  alvc::util::Executor exec(4);
  orch.set_sharding(4, &exec);
  const std::size_t before = orch.chain_count();

  nfv::NfcSpec spec;
  spec.service = util::ServiceId{0};
  spec.name = "late-chain";
  spec.bandwidth_gbps = 0.5;
  spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall)};
  const auto id = dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
  if (id.has_value()) {
    EXPECT_EQ(orch.agent()->membership_count(), before + 1);
    ASSERT_TRUE(dc.teardown_chain(*id).is_ok());
  }
  EXPECT_EQ(orch.agent()->membership_count(), before);

  // A failure/recovery round trip through the sharded sweep keeps every
  // chain accounted for.
  const auto down = orch.handle_ops_failure(util::OpsId{0});
  ASSERT_TRUE(down.has_value());
  const auto up = orch.handle_ops_recovery(util::OpsId{0});
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(orch.chain_count(), before) << "a failure must never delete a chain";
  EXPECT_TRUE(orch.check_isolation().empty());
}

}  // namespace
}  // namespace alvc::orchestrator
