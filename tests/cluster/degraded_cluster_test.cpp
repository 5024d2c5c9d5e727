// Degraded-cluster edge cases: ALs losing their last OPS, ToRs losing
// every uplink, and failure handling interleaved with re-optimization.
#include <gtest/gtest.h>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::cluster {
namespace {

using alvc::test::ClusterFixture;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServiceId;
using alvc::util::TorId;
using alvc::util::VmId;

/// Smallest possible degradable deployment: two racks, one shared OPS —
/// the AL has exactly one member and no spare exists anywhere.
struct SingleOpsFixture {
  topology::DataCenterTopology topo;
  std::vector<VmId> group;
  ClusterId cluster_id;
  VertexCoverAlBuilder builder;
  std::unique_ptr<ClusterManager> manager;

  SingleOpsFixture() {
    const auto ops = topo.add_ops(true);
    const topology::Resources cap{.cpu_cores = 8, .memory_gb = 32, .storage_gb = 256};
    for (int r = 0; r < 2; ++r) {
      const TorId tor = topo.add_tor();
      topo.connect_tor_ops(tor, ops);
      group.push_back(topo.add_vm(topo.add_server(tor, cap), ServiceId{0}));
    }
    manager = std::make_unique<ClusterManager>(topo);
    auto id = manager->create_cluster(ServiceId{0}, group, builder);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    cluster_id = *id;
  }
};

TEST(DegradedClusterTest, LastOpsOfAlFailsLeavesEmptyDegradedAl) {
  SingleOpsFixture f;
  ASSERT_EQ(f.manager->find(f.cluster_id)->layer.opss.size(), 1u);

  const auto result = f.manager->handle_ops_failure(OpsId{0});
  EXPECT_FALSE(result.has_value()) << "no spare OPS exists; repair must be infeasible";

  const auto* vc = f.manager->find(f.cluster_id);
  EXPECT_TRUE(vc->degraded);
  EXPECT_TRUE(vc->layer.opss.empty()) << "the failed OPS must not linger in the AL";
  EXPECT_TRUE(f.manager->check_invariants().empty());

  // Repairing the OPS restores the AL and clears the degraded flag.
  const auto recovered = f.manager->handle_ops_recovery(OpsId{0}, f.builder);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  const auto* healed = f.manager->find(f.cluster_id);
  EXPECT_FALSE(healed->degraded);
  ASSERT_EQ(healed->layer.opss.size(), 1u);
  EXPECT_EQ(healed->layer.opss.front(), OpsId{0});
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(DegradedClusterTest, EveryUplinkOfTorFailingDegradesTheCluster) {
  ClusterFixture f;
  // ToR 0's only uplinks are OPS 0 and OPS 1 (see SliceFixture); cutting
  // both makes its VMs uncoverable even though the hardware is alive.
  const auto first = f.manager.handle_link_failure(TorId{0}, OpsId{0});
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  const auto second = f.manager.handle_link_failure(TorId{0}, OpsId{1});
  ASSERT_TRUE(second.has_value()) << second.error().to_string();

  const auto* vc = f.manager.find(f.cluster_id);
  EXPECT_TRUE(vc->degraded);
  EXPECT_TRUE(f.manager.check_invariants().empty());

  // One link back is enough to re-cover the rack.
  const alvc::cluster::VertexCoverAlBuilder builder;
  const auto recovered = f.manager.handle_link_recovery(TorId{0}, OpsId{0}, builder);
  ASSERT_TRUE(recovered.has_value()) << recovered.error().to_string();
  EXPECT_FALSE(f.manager.find(f.cluster_id)->degraded);
  EXPECT_TRUE(f.manager.check_invariants().empty());
}

TEST(DegradedClusterTest, OpsFailureRacingReoptimizeKeepsInvariants) {
  ClusterFixture f;
  const VertexCoverAlBuilder builder;
  // Failure and recovery events land between re-optimization passes, so
  // every pass rebuilds against a different topology state: with an OPS
  // down and with it just back up.
  const auto reoptimize = [&] {
    ALVC_IGNORE_STATUS(f.manager.reoptimize_cluster(f.cluster_id, builder),
                       "a rebuild may find no cover with an OPS down; the invariants are "
                       "the oracle");
    EXPECT_TRUE(f.manager.check_invariants().empty());
  };
  for (int round = 0; round < 25; ++round) {
    const OpsId victim{static_cast<OpsId::value_type>(round % 2)};
    ALVC_IGNORE_STATUS(f.manager.handle_ops_failure(victim),
                       "chaos round: the victim may already be down");
    reoptimize();
    ALVC_IGNORE_STATUS(f.manager.handle_ops_recovery(victim, builder),
                       "chaos round: the victim may already be back up");
    reoptimize();
  }

  // Settle: recover both OPSs, then the cluster must be fully healthy.
  for (int o = 0; o < 2; ++o) {
    ALVC_IGNORE_STATUS(
        f.manager.handle_ops_recovery(OpsId{static_cast<OpsId::value_type>(o)}, builder),
        "settling: the OPS may never have gone down");
  }
  ALVC_IGNORE_STATUS(f.manager.restore_degraded_clusters(builder),
                     "the health assertions below are the oracle");
  EXPECT_FALSE(f.manager.find(f.cluster_id)->degraded);
  EXPECT_TRUE(f.manager.check_invariants().empty());
}

}  // namespace
}  // namespace alvc::cluster
