// Failure injection at the cluster layer: OPS failures and AL repair.
#include <gtest/gtest.h>

#include "cluster/cluster_manager.h"
#include "cluster/service.h"
#include "support/fixtures.h"
#include "topology/builder.h"

namespace alvc::cluster {
namespace {

using alvc::test::ClusterFixture;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServiceId;

TEST(OpsFailureTest, FailedOpsLeavesSwitchGraph) {
  ClusterFixture f;
  const auto edges_before = f.topo.switch_graph().edge_count();
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{1}, true).is_ok());
  EXPECT_LT(f.topo.switch_graph().edge_count(), edges_before);
  EXPECT_FALSE(f.topo.ops_usable(OpsId{1}));
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{1}, false).is_ok());
  EXPECT_EQ(f.topo.switch_graph().edge_count(), edges_before);
}

TEST(OpsFailureTest, BuildersSkipFailedOps) {
  AlBuildScratch scratch;
  ClusterFixture f;  // fixture already built one cluster; use a fresh manager
  alvc::test::SliceFixture fresh;
  ASSERT_TRUE(fresh.topo.set_ops_failed(OpsId{0}, true).is_ok());
  OpsOwnership ownership(fresh.topo.ops_count());
  const VertexCoverAlBuilder builder;
  const auto result =
      builder.build(fresh.topo, fresh.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  EXPECT_FALSE(result->layer.contains_ops(OpsId{0}));
}

TEST(OpsFailureTest, UnownedFailureCostsNothing) {
  ClusterFixture f;
  // Find an OPS the cluster does not own.
  OpsId free_ops = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.ops_count(); ++i) {
    const OpsId o{static_cast<OpsId::value_type>(i)};
    if (f.manager.ownership().is_free(o)) {
      free_ops = o;
      break;
    }
  }
  ASSERT_TRUE(free_ops.valid());
  const auto cost = f.manager.handle_ops_failure(free_ops);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->total(), 0u);
  EXPECT_FALSE(f.topo.ops_usable(free_ops));
}

TEST(OpsFailureTest, OwnedFailureRepairsAl) {
  ClusterFixture f;
  const auto al_ops = f.cluster().layer.opss;
  ASSERT_FALSE(al_ops.empty());
  const OpsId victim = al_ops.front();
  const auto cost = f.manager.handle_ops_failure(victim);
  ASSERT_TRUE(cost.has_value()) << cost.error().to_string();
  EXPECT_GE(cost->ops_changes, 1u);
  const auto& layer = f.cluster().layer;
  EXPECT_FALSE(layer.contains_ops(victim));
  EXPECT_TRUE(f.manager.ownership().is_free(victim));
  // The AL still covers the whole group and is connected again.
  EXPECT_TRUE(al_covers_group(f.topo, f.cluster().vms, layer));
  EXPECT_TRUE(f.cluster().connected);
  EXPECT_TRUE(f.manager.check_invariants().empty());
}

TEST(OpsFailureTest, RepairInfeasibleWhenNoSpareUplinks) {
  // Minimal DC: one ToR with a single OPS uplink; kill the OPS.
  alvc::topology::DataCenterTopology topo;
  const auto o = topo.add_ops();
  const auto t = topo.add_tor();
  topo.connect_tor_ops(t, o);
  const auto s = topo.add_server(t, {});
  const auto vm = topo.add_vm(s, ServiceId{0});
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<alvc::util::VmId> group{vm};
  ASSERT_TRUE(manager.create_cluster(ServiceId{0}, group, builder).has_value());
  const auto cost = manager.handle_ops_failure(o);
  ASSERT_FALSE(cost.has_value());
  EXPECT_EQ(cost.error().code, ErrorCode::kInfeasible);
}

TEST(OpsFailureTest, RepeatedFailuresEventuallyInfeasible) {
  ClusterFixture f;
  // Keep killing AL members; with only 4 OPSs total this must eventually
  // fail, and invariants must hold right up to that point.
  for (int round = 0; round < 4; ++round) {
    const auto al = f.cluster().layer.opss;
    if (al.empty()) break;
    const auto cost = f.manager.handle_ops_failure(al.front());
    if (!cost.has_value()) {
      EXPECT_EQ(cost.error().code, ErrorCode::kInfeasible);
      return;  // expected terminal state
    }
    EXPECT_TRUE(f.manager.check_invariants().empty());
  }
  // If all rounds somehow succeeded, the cluster must still be covered.
  EXPECT_TRUE(al_covers_group(f.topo, f.cluster().vms, f.cluster().layer));
}

TEST(OpsFailureTest, RandomFailuresOnGeneratedDcKeepInvariants) {
  alvc::topology::TopologyParams params;
  params.rack_count = 10;
  params.ops_count = 40;
  params.tor_ops_degree = 10;
  params.service_count = 3;
  params.seed = 77;
  auto topo = alvc::topology::build_topology(params);
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  ASSERT_TRUE(manager.create_clusters_by_service(builder).has_value());

  alvc::util::Rng rng(5);
  std::size_t repaired = 0;
  for (int i = 0; i < 10; ++i) {
    const OpsId victim{static_cast<OpsId::value_type>(rng.uniform_index(topo.ops_count()))};
    if (!topo.ops_usable(victim)) continue;
    const auto cost = manager.handle_ops_failure(victim);
    if (cost.has_value()) ++repaired;
    const auto violations = manager.check_invariants();
    ASSERT_TRUE(violations.empty()) << violations.front();
  }
  EXPECT_GT(repaired, 0u);
}

TEST(OpsFailureTest, HandleOpsFailureIsIdempotent) {
  ClusterFixture f;
  // First report does the real work: eviction plus AL repair.
  const OpsId victim = f.cluster().layer.opss.front();
  const auto first = f.manager.handle_ops_failure(victim);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  EXPECT_GT(first->total(), 0u);
  const auto layer_after = f.cluster().layer.opss;

  // A duplicate report of the same dead OPS is a no-op, not a second
  // eviction pass: zero cost, identical AL, invariants intact.
  const auto second = f.manager.handle_ops_failure(victim);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  EXPECT_EQ(second->total(), 0u);
  EXPECT_EQ(f.cluster().layer.opss, layer_after);
  EXPECT_TRUE(f.manager.check_invariants().empty());
}

}  // namespace
}  // namespace alvc::cluster
