#include "cluster/al_builder.h"

#include <gtest/gtest.h>

#include <memory>

#include "cluster/service.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace alvc::cluster {
namespace {

using alvc::topology::DataCenterTopology;
using alvc::topology::Resources;
using alvc::topology::TopologyParams;
using alvc::util::ErrorCode;
using alvc::util::ServerId;
using alvc::util::ServiceId;

/// The paper's Fig. 4 instance. ToRs T0..T3 model "ToR 1, 2, 3, N".
/// T0 has four incoming VM connections (V0..V3) and two OPS uplinks;
/// T1's machines (V1, V2) are multi-homed and already covered by T0;
/// T2 serves V4, V5; T3 sees only V5. Expected: stage 1 selects {T0, T2},
/// stage 2 selects one OPS per selected ToR.
struct Fig4 {
  DataCenterTopology topo;
  std::vector<VmId> group;

  Fig4() {
    using alvc::util::OpsId;
    using alvc::util::TorId;
    // OPSs O0..O3; core link O1-O2 so connectivity augmentation can bridge.
    for (int i = 0; i < 4; ++i) topo.add_ops();
    topo.connect_ops_ops(OpsId{1}, OpsId{2});
    // ToRs and uplinks.
    for (int i = 0; i < 4; ++i) topo.add_tor();
    topo.connect_tor_ops(TorId{0}, OpsId{0});
    topo.connect_tor_ops(TorId{0}, OpsId{1});
    topo.connect_tor_ops(TorId{1}, OpsId{1});
    topo.connect_tor_ops(TorId{1}, OpsId{2});
    topo.connect_tor_ops(TorId{2}, OpsId{2});
    topo.connect_tor_ops(TorId{2}, OpsId{3});
    topo.connect_tor_ops(TorId{3}, OpsId{3});
    // Servers and VMs.
    const auto s0 = topo.add_server(TorId{0}, Resources{});  // V0, V3
    const auto s1 = topo.add_server(TorId{0}, Resources{});  // V1, V2 (dual-homed to T1)
    topo.add_server_homing(s1, TorId{1});
    const auto s2 = topo.add_server(TorId{2}, Resources{});  // V4
    const auto s3 = topo.add_server(TorId{2}, Resources{});  // V5 (dual-homed to T3)
    topo.add_server_homing(s3, TorId{3});
    group.push_back(topo.add_vm(s0, ServiceId{0}));  // V0
    group.push_back(topo.add_vm(s1, ServiceId{0}));  // V1
    group.push_back(topo.add_vm(s1, ServiceId{0}));  // V2
    group.push_back(topo.add_vm(s0, ServiceId{0}));  // V3
    group.push_back(topo.add_vm(s2, ServiceId{0}));  // V4
    group.push_back(topo.add_vm(s3, ServiceId{0}));  // V5
  }
};

TEST(VertexCoverAlBuilderTest, PaperFig4SelectsMinimalTorsAndOps) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const VertexCoverAlBuilder builder{AlBuilderOptions{.ensure_connectivity = false}};
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value()) << result.error().to_string();
  using alvc::util::OpsId;
  using alvc::util::TorId;
  EXPECT_EQ(result->layer.tors, (std::vector<TorId>{TorId{0}, TorId{2}}));
  EXPECT_EQ(result->layer.opss, (std::vector<OpsId>{OpsId{0}, OpsId{2}}));
  EXPECT_TRUE(al_covers_group(fig.topo, fig.group, result->layer));
  EXPECT_FALSE(result->connected);  // O0 and O2 islands without augmentation
}

TEST(VertexCoverAlBuilderTest, PaperFig4ConnectivityAugmentation) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const VertexCoverAlBuilder builder;  // ensure_connectivity = true
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value());
  using alvc::util::OpsId;
  EXPECT_TRUE(result->connected);
  EXPECT_EQ(result->augmented_ops, 1u);
  EXPECT_EQ(result->layer.opss, (std::vector<OpsId>{OpsId{0}, OpsId{1}, OpsId{2}}));
  EXPECT_TRUE(cluster_subgraph_connected(fig.topo, result->layer, scratch));
}

TEST(VertexCoverAlBuilderTest, EmptyGroupRejected) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const VertexCoverAlBuilder builder;
  const auto result = builder.build(fig.topo, {}, ownership, ClusterId::invalid(), scratch);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

TEST(VertexCoverAlBuilderTest, RespectsOwnership) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  // Another cluster owns O0 and O2; the builder must avoid them.
  using alvc::util::OpsId;
  const std::vector<OpsId> taken{OpsId{0}, OpsId{2}};
  ASSERT_TRUE(ownership.acquire(taken, ClusterId{99}).is_ok());
  const VertexCoverAlBuilder builder{AlBuilderOptions{.ensure_connectivity = false}};
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value());
  for (OpsId o : result->layer.opss) {
    EXPECT_TRUE(ownership.is_free(o));
  }
  EXPECT_TRUE(al_covers_group(fig.topo, fig.group, result->layer));
}

TEST(VertexCoverAlBuilderTest, InfeasibleWhenAllUplinksTaken) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  using alvc::util::OpsId;
  // T0's only uplinks are O0, O1; take both.
  const std::vector<OpsId> taken{OpsId{0}, OpsId{1}};
  ASSERT_TRUE(ownership.acquire(taken, ClusterId{99}).is_ok());
  const VertexCoverAlBuilder builder;
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::kInfeasible);
}

TEST(RandomAlBuilderTest, CoversGroupWithoutTorMinimisation) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const RandomAlBuilder builder{/*seed=*/7, AlBuilderOptions{.ensure_connectivity = false}};
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value());
  // Random baseline keeps every (primary) group ToR: T0 and T2.
  EXPECT_EQ(result->layer.tors.size(), 2u);
  EXPECT_TRUE(al_covers_group(fig.topo, fig.group, result->layer));
  for (auto o : result->layer.opss) EXPECT_TRUE(ownership.is_free(o));
}

TEST(RandomAlBuilderTest, DeterministicPerSeed) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const RandomAlBuilder a{3};
  const RandomAlBuilder b{3};
  const auto ra = a.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  const auto rb = b.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->layer.opss, rb->layer.opss);
}

TEST(GreedySetCoverAlBuilderTest, CoversAllGroupTors) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const GreedySetCoverAlBuilder builder{AlBuilderOptions{.ensure_connectivity = false}};
  const auto result = builder.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(al_covers_group(fig.topo, fig.group, result->layer));
  // All primary group ToRs retained.
  EXPECT_EQ(result->layer.tors.size(), 2u);
}

TEST(ExactAlBuilderTest, NeverWorseThanGreedyOnFig4) {
  AlBuildScratch scratch;
  Fig4 fig;
  OpsOwnership ownership(fig.topo.ops_count());
  const AlBuilderOptions opts{.ensure_connectivity = false};
  const VertexCoverAlBuilder greedy{opts};
  const ExactAlBuilder exact{opts};
  const auto rg = greedy.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  const auto re = exact.build(fig.topo, fig.group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(rg.has_value());
  ASSERT_TRUE(re.has_value());
  EXPECT_LE(re->layer.opss.size(), rg->layer.opss.size());
  EXPECT_LE(re->layer.tors.size(), rg->layer.tors.size());
  EXPECT_TRUE(al_covers_group(fig.topo, fig.group, re->layer));
}

TEST(AlBuilderNamesTest, Names) {
  EXPECT_EQ(VertexCoverAlBuilder{}.name(), "vertex-cover");
  EXPECT_EQ(RandomAlBuilder{1}.name(), "random");
  EXPECT_EQ(GreedySetCoverAlBuilder{}.name(), "greedy-set-cover");
  EXPECT_EQ(ExactAlBuilder{}.name(), "exact");
  EXPECT_EQ(ResilientAlBuilder{}.name(), "resilient");
}

TEST(ResilientAlBuilderTest, EliminatesCriticalOpsWhenRedundancyExists) {
  // Two rails between two ToRs (plus ring core): the minimal AL takes one
  // rail (both OPSs critical); the resilient builder adds the second rail.
  AlBuildScratch scratch;
  alvc::topology::TopologyParams params;
  params.seed = 3;
  params.rack_count = 4;
  params.ops_count = 12;
  params.tor_ops_degree = 4;
  params.service_count = 1;
  params.core = alvc::topology::CoreKind::kFullMesh;  // rich core: hardening feasible
  const auto topo = alvc::topology::build_topology(params);
  const auto groups = group_vms_by_service(topo);

  OpsOwnership base_own(topo.ops_count());
  const auto base =
      VertexCoverAlBuilder{}.build(topo, groups[0], base_own, ClusterId::invalid(), scratch);
  ASSERT_TRUE(base.has_value());
  const auto base_critical = critical_ops(topo, base->layer, scratch).size();

  OpsOwnership hard_own(topo.ops_count());
  const auto hardened =
      ResilientAlBuilder{}.build(topo, groups[0], hard_own, ClusterId::invalid(), scratch);
  ASSERT_TRUE(hardened.has_value());
  const auto hardened_critical = critical_ops(topo, hardened->layer, scratch).size();
  EXPECT_LE(hardened_critical, base_critical);
  EXPECT_GE(hardened->layer.opss.size(), base->layer.opss.size());
  EXPECT_TRUE(al_covers_group(topo, groups[0], hardened->layer));
  EXPECT_TRUE(hardened->connected);
  // With a full-mesh core there is always a bypass: exposure must reach 0.
  EXPECT_EQ(hardened_critical, 0u);
}

TEST(ResilientAlBuilderTest, GracefulWhenNoRedundancyAvailable) {
  // One ToR, one OPS: nothing to add; the single-OPS AL stays (trivially no
  // articulation points in a 2-vertex subgraph).
  AlBuildScratch scratch;
  alvc::topology::DataCenterTopology topo;
  const auto o = topo.add_ops();
  const auto t = topo.add_tor();
  topo.connect_tor_ops(t, o);
  const auto s = topo.add_server(t, {});
  const auto vm = topo.add_vm(s, alvc::util::ServiceId{0});
  OpsOwnership ownership(topo.ops_count());
  const std::vector<VmId> group{vm};
  const auto result =
      ResilientAlBuilder{}.build(topo, group, ownership, ClusterId::invalid(), scratch);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->layer.opss.size(), 1u);
}

class AlBuilderPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlBuilderPropertyTest, AllBuildersCoverRandomGroupsAndRespectOwnership) {
  TopologyParams params;
  params.seed = GetParam();
  params.rack_count = 10;
  params.ops_count = 12;
  params.tor_ops_degree = 3;
  params.service_count = 3;
  params.dual_homing_probability = 0.3;
  const auto topo = alvc::topology::build_topology(params);
  const auto groups = group_vms_by_service(topo);

  AlBuildScratch scratch;
  std::vector<std::unique_ptr<AlBuilder>> builders;
  builders.push_back(std::make_unique<VertexCoverAlBuilder>());
  builders.push_back(std::make_unique<RandomAlBuilder>(GetParam()));
  builders.push_back(std::make_unique<GreedySetCoverAlBuilder>());
  builders.push_back(std::make_unique<ExactAlBuilder>());

  for (const auto& builder : builders) {
    OpsOwnership ownership(topo.ops_count());
    for (const auto& group : groups) {
      if (group.empty()) continue;
      const auto result = builder->build(topo, group, ownership, ClusterId::invalid(), scratch);
      if (!result.has_value()) continue;  // pool exhaustion is legal
      EXPECT_TRUE(al_covers_group(topo, group, result->layer))
          << builder->name() << " failed to cover";
      for (auto o : result->layer.opss) {
        EXPECT_TRUE(ownership.is_free(o)) << builder->name() << " used owned OPS";
      }
      // Acquire so the next group sees exclusivity, as ClusterManager would.
      ASSERT_TRUE(ownership.acquire(result->layer.opss, ClusterId{0}).is_ok());
    }
  }
}

TEST_P(AlBuilderPropertyTest, AllBuildersMayKeepSelfOwnedOpsAndNeverTakeAnothers) {
  TopologyParams params;
  params.seed = GetParam();
  params.rack_count = 10;
  params.ops_count = 12;
  params.tor_ops_degree = 3;
  params.service_count = 3;
  params.dual_homing_probability = 0.3;
  const auto topo = alvc::topology::build_topology(params);
  const auto groups = group_vms_by_service(topo);

  AlBuildScratch scratch;
  std::vector<std::unique_ptr<AlBuilder>> builders;
  builders.push_back(std::make_unique<VertexCoverAlBuilder>());
  builders.push_back(std::make_unique<RandomAlBuilder>(GetParam()));
  builders.push_back(std::make_unique<GreedySetCoverAlBuilder>());
  builders.push_back(std::make_unique<ResilientAlBuilder>());
  builders.push_back(std::make_unique<ExactAlBuilder>());

  const ClusterId self{1};
  const ClusterId other{2};
  const ClusterId stranger{3};  // owns nothing
  std::size_t kept_builds = 0;
  for (const auto& builder : builders) {
    for (const auto& group : groups) {
      if (group.empty()) continue;
      SCOPED_TRACE(::testing::Message() << builder->name() << ", group of " << group.size());
      const OpsOwnership empty(topo.ops_count());
      const auto fresh = builder->build(topo, group, empty, ClusterId::invalid(), scratch);
      if (!fresh.has_value()) continue;  // pool exhaustion is legal

      // An OPS owned by `self` is as available as a free one: with the
      // whole fresh AL owned by `self`, the build reproduces it.
      OpsOwnership held(topo.ops_count());
      ASSERT_TRUE(held.acquire(fresh->layer.opss, self).is_ok());
      const auto kept = builder->build(topo, group, held, self, scratch);
      ASSERT_TRUE(kept.has_value());
      EXPECT_EQ(kept->layer.tors, fresh->layer.tors);
      EXPECT_EQ(kept->layer.opss, fresh->layer.opss);
      ++kept_builds;

      // Split the fresh AL between `self` and `other`.
      OpsOwnership split(topo.ops_count());
      for (std::size_t i = 0; i < fresh->layer.opss.size(); ++i) {
        const ClusterId owner = i % 2 == 0 ? other : self;
        ASSERT_TRUE(split.acquire({&fresh->layer.opss[i], 1}, owner).is_ok());
      }
      if (const auto mine = builder->build(topo, group, split, self, scratch)) {
        for (OpsId o : mine->layer.opss) {
          EXPECT_TRUE(split.is_free_for(o, self)) << "took OPS " << o.value() << " of another";
        }
      }
      // self = invalid sees exactly the free OPSs, like a cluster that
      // owns nothing.
      const auto unowned = builder->build(topo, group, split, ClusterId::invalid(), scratch);
      const auto as_stranger = builder->build(topo, group, split, stranger, scratch);
      ASSERT_EQ(unowned.has_value(), as_stranger.has_value());
      if (!unowned.has_value()) continue;
      EXPECT_EQ(unowned->layer.opss, as_stranger->layer.opss);
      for (OpsId o : unowned->layer.opss) {
        EXPECT_TRUE(split.is_free(o)) << "took owned OPS " << o.value();
      }
    }
  }
  EXPECT_GT(kept_builds, 0u) << "vacuous: no builder produced an AL";
}

TEST_P(AlBuilderPropertyTest, VertexCoverNeverLargerThanRandomBaseline) {
  AlBuildScratch scratch;
  TopologyParams params;
  params.seed = GetParam() + 1000;
  params.rack_count = 12;
  params.ops_count = 16;
  params.tor_ops_degree = 4;
  params.service_count = 1;  // single big group for a clean comparison
  const auto topo = alvc::topology::build_topology(params);
  const auto groups = group_vms_by_service(topo);
  ASSERT_FALSE(groups[0].empty());

  const AlBuilderOptions opts{.ensure_connectivity = false};
  OpsOwnership fresh(topo.ops_count());
  const auto vc =
      VertexCoverAlBuilder{opts}.build(topo, groups[0], fresh, ClusterId::invalid(), scratch);
  const auto rnd = RandomAlBuilder{GetParam(), opts}.build(topo, groups[0], fresh,
                                                          ClusterId::invalid(), scratch);
  ASSERT_TRUE(vc.has_value());
  ASSERT_TRUE(rnd.has_value());
  EXPECT_LE(vc->layer.opss.size(), rnd->layer.opss.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlBuilderPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ClusterSubgraphConnectedTest, TrivialCases) {
  AlBuildScratch scratch;
  Fig4 fig;
  AbstractionLayer empty;
  EXPECT_TRUE(cluster_subgraph_connected(fig.topo, empty, scratch));
  AbstractionLayer lone{.tors = {alvc::util::TorId{0}}, .opss = {}};
  EXPECT_TRUE(cluster_subgraph_connected(fig.topo, lone, scratch));
}

TEST(CriticalOpsTest, LinearAlHasCriticalMiddle) {
  // T0 - O0 - O1 - T1: O0 and O1 both sit on the only path.
  AlBuildScratch scratch;
  DataCenterTopology topo;
  using alvc::util::OpsId;
  using alvc::util::TorId;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  topo.connect_ops_ops(o0, o1);
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  AbstractionLayer layer{.tors = {t0, t1}, .opss = {o0, o1}};
  EXPECT_EQ(critical_ops(topo, layer, scratch), (std::vector<OpsId>{o0, o1}));
}

TEST(CriticalOpsTest, RedundantAlHasNone) {
  // Two parallel rails between the ToRs: no single OPS is critical.
  AlBuildScratch scratch;
  DataCenterTopology topo;
  using alvc::util::OpsId;
  using alvc::util::TorId;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  for (auto o : {o0, o1}) {
    topo.connect_tor_ops(t0, o);
    topo.connect_tor_ops(t1, o);
  }
  AbstractionLayer layer{.tors = {t0, t1}, .opss = {o0, o1}};
  EXPECT_TRUE(critical_ops(topo, layer, scratch).empty());
}

TEST(CriticalOpsTest, EmptyLayer) {
  AlBuildScratch scratch;
  DataCenterTopology topo;
  topo.add_ops();
  EXPECT_TRUE(critical_ops(topo, AbstractionLayer{}, scratch).empty());
}

TEST(AugmentConnectivityTest, ReportsFailureWhenUnbridgeable) {
  // Two ToR-OPS islands with no core links and no free bridging OPS.
  AlBuildScratch scratch;
  DataCenterTopology topo;
  using alvc::util::OpsId;
  using alvc::util::TorId;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  OpsOwnership ownership(topo.ops_count());
  AbstractionLayer layer{.tors = {t0, t1}, .opss = {o0, o1}};
  bool connected = true;
  const auto added =
      augment_layer_connectivity(topo, ownership, ClusterId::invalid(), layer, connected, scratch);
  EXPECT_EQ(added, 0u);
  EXPECT_FALSE(connected);
}

}  // namespace
}  // namespace alvc::cluster
