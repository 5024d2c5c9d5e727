// Shard-aware ClusterManager helpers: the O(1) service and VM-owner
// indexes the million-VM control plane depends on, the degraded-cluster
// index, and the blast radii the fault handlers report.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "support/fixtures.h"
#include "topology/builder.h"

namespace alvc::cluster {
namespace {

using alvc::test::ClusterFixture;
using alvc::util::ClusterId;
using alvc::util::ServiceId;
using alvc::util::VmId;

TEST(ShardPartitionTest, FindByServiceReturnsTheLiveClusterAndTracksDestroy) {
  ClusterFixture fx;
  const VirtualCluster* vc = fx.manager.find_by_service(ServiceId{0});
  ASSERT_NE(vc, nullptr);
  EXPECT_EQ(vc->id, fx.cluster_id);
  EXPECT_EQ(fx.manager.find_by_service(ServiceId{1}), nullptr);

  ASSERT_TRUE(fx.manager.destroy_cluster(fx.cluster_id).is_ok());
  EXPECT_EQ(fx.manager.find_by_service(ServiceId{0}), nullptr);
}

TEST(ShardPartitionTest, VmOwnerIndexTracksMembershipChanges) {
  ClusterFixture fx;
  for (VmId vm : fx.group) EXPECT_EQ(fx.manager.vm_owner(vm), fx.cluster_id);

  const VmId vm = fx.group.front();
  ASSERT_TRUE(fx.manager.remove_vm(fx.cluster_id, vm).has_value());
  EXPECT_FALSE(fx.manager.vm_owner(vm).valid());
  ASSERT_TRUE(fx.manager.add_vm(fx.cluster_id, vm).has_value());
  EXPECT_EQ(fx.manager.vm_owner(vm), fx.cluster_id);

  // A VM added to the topology after construction (index beyond the
  // ctor-sized table) is unowned until joined, then tracked.
  const auto server = fx.topo.servers().front().id;
  const VmId late = fx.topo.add_vm(server, ServiceId{0});
  EXPECT_FALSE(fx.manager.vm_owner(late).valid());
  ASSERT_TRUE(fx.manager.add_vm(fx.cluster_id, late).has_value());
  EXPECT_EQ(fx.manager.vm_owner(late), fx.cluster_id);
}

alvc::topology::DataCenterTopology make_multi_cluster_topo(std::uint64_t seed) {
  alvc::topology::TopologyParams params;
  params.rack_count = 6;
  params.servers_per_rack = 2;
  params.vms_per_server = 2;
  params.ops_count = 16;
  params.tor_ops_degree = 6;
  params.service_count = 5;
  params.seed = seed;
  return alvc::topology::build_topology(params);
}

TEST(ShardPartitionTest, DegradedIndexTracksFaultAndRecoveryLifecycle) {
  auto topo = make_multi_cluster_topo(7);
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  ASSERT_TRUE(manager.build_all_clusters(builder).has_value());
  EXPECT_TRUE(manager.degraded_cluster_ids().empty());

  // Fail every ToR: each populated cluster is stranded without a usable
  // AL and must land in the degraded index.
  for (std::size_t t = 0; t < topo.tor_count(); ++t) {
    ASSERT_TRUE(
        manager.handle_tor_failure(alvc::util::TorId{static_cast<std::uint32_t>(t)}, builder)
            .has_value());
  }
  const auto degraded = manager.degraded_cluster_ids();
  ASSERT_FALSE(degraded.empty());
  EXPECT_TRUE(std::is_sorted(degraded.begin(), degraded.end()));
  for (const VirtualCluster* vc : manager.clusters()) {
    const bool indexed = std::binary_search(degraded.begin(), degraded.end(), vc->id);
    EXPECT_EQ(indexed, vc->degraded) << "cluster " << vc->id.value();
  }
  EXPECT_TRUE(manager.check_invariants().empty());

  // Destroying a degraded cluster must evict it from the index too.
  const ClusterId doomed = degraded.front();
  ASSERT_TRUE(manager.destroy_cluster(doomed).is_ok());
  const auto after_destroy = manager.degraded_cluster_ids();
  EXPECT_FALSE(std::binary_search(after_destroy.begin(), after_destroy.end(), doomed));
  EXPECT_TRUE(manager.check_invariants().empty());

  // Full recovery drains the index through the restore pass.
  for (std::size_t t = 0; t < topo.tor_count(); ++t) {
    ASSERT_TRUE(
        manager.handle_tor_recovery(alvc::util::TorId{static_cast<std::uint32_t>(t)}, builder)
            .has_value());
  }
  EXPECT_TRUE(manager.degraded_cluster_ids().empty());
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ShardPartitionTest, HandlersReportTheClustersWhoseAlTheyExamined) {
  auto topo = make_multi_cluster_topo(9);
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  ASSERT_TRUE(manager.build_all_clusters(builder).has_value());

  // A ToR failure's blast radius is exactly the clusters whose AL held the
  // ToR at entry; both sides report ascending ids.
  const alvc::util::TorId tor{0};
  const auto expected = manager.clusters_containing_tor(tor);
  ASSERT_FALSE(expected.empty());
  std::vector<ClusterId> touched;
  ASSERT_TRUE(manager.handle_tor_failure(tor, builder, &touched).has_value());
  EXPECT_EQ(touched, expected);

  // An OPS failure touches at most the exclusive owner of the OPS.
  for (std::size_t i = 0; i < manager.ownership().ops_count(); ++i) {
    const alvc::util::OpsId ops{static_cast<std::uint32_t>(i)};
    const ClusterId owner = manager.ownership().owner(ops);
    if (!owner.valid()) continue;
    std::vector<ClusterId> ops_touched;
    ASSERT_TRUE(manager.handle_ops_failure(ops, &ops_touched).has_value());
    EXPECT_EQ(ops_touched, (std::vector<ClusterId>{owner}));
    break;
  }

  // A recovery reports every degraded cluster the restore pass attempted.
  const auto degraded_before = manager.degraded_cluster_ids();
  std::vector<ClusterId> recovery_touched;
  ASSERT_TRUE(manager.handle_tor_recovery(tor, builder, &recovery_touched).has_value());
  EXPECT_EQ(recovery_touched, degraded_before);
}

}  // namespace
}  // namespace alvc::cluster
