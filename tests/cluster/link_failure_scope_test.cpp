// The blast radius of a ToR-OPS link cut. OPS ownership is exclusive, so a
// cut can disturb at most the cluster whose AL holds the OPS; of the other
// clusters whose AL holds the ToR, handle_link_failure repairs (and reports
// as touched) only those that are degraded or disconnected, which may gain
// from an OPS that came free since their last repair. A healthy, connected
// AL without the OPS is left alone and stays out of `touched`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "topology/topology.h"

namespace alvc::cluster {
namespace {

using alvc::topology::Resources;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServiceId;
using alvc::util::TorId;
using alvc::util::VmId;

/// Returns a fixed AL, whatever the group: lets a test lay out exactly
/// which OPSs each cluster holds.
class FixedAlBuilder final : public AlBuilder {
 public:
  FixedAlBuilder(AbstractionLayer layer, bool connected)
      : layer_(std::move(layer)), connected_(connected) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "fixed"; }
  [[nodiscard]] Expected<AlBuildResult> build(const topology::DataCenterTopology& /*topo*/,
                                              std::span<const VmId> /*group*/,
                                              const OpsOwnership& /*ownership*/,
                                              ClusterId /*self*/,
                                              AlBuildScratch& /*scratch*/) const override {
    return AlBuildResult{.layer = layer_, .connected = connected_};
  }

 private:
  AbstractionLayer layer_;
  bool connected_;
};

/// Twelve OPSs, seven racks; every rack's uplinks are listed below. OPS
/// core links O8-O9-O10 only.
///   T0: O0 O1 O2 O3 O4   (the shared rack)
///   T1: O0 O5            T2: O1 O6
///   T3: O2               T4: O4
///   T5: O7 O8 O11        T6: O10
/// Clusters are laid out per test with add(); each gets one VM per rack.
struct ScopeFixture {
  topology::DataCenterTopology topo;
  std::unique_ptr<ClusterManager> manager;
  std::vector<TorId> tors;
  std::vector<OpsId> opss;

  ScopeFixture() {
    for (int i = 0; i < 12; ++i) opss.push_back(topo.add_ops());
    topo.connect_ops_ops(opss[8], opss[9]);
    topo.connect_ops_ops(opss[9], opss[10]);
    const std::vector<std::vector<int>> uplinks = {{0, 1, 2, 3, 4}, {0, 5}, {1, 6}, {2},
                                                   {4},             {7, 8, 11}, {10}};
    for (const auto& ups : uplinks) {
      const TorId tor = topo.add_tor();
      for (int o : ups) topo.connect_tor_ops(tor, opss[o]);
      tors.push_back(tor);
    }
    manager = std::make_unique<ClusterManager>(topo);
  }

  /// A cluster of one VM on each of `racks`, holding exactly those racks
  /// and `ops` as its AL.
  ClusterId add(const std::vector<int>& racks, const std::vector<int>& ops, bool connected) {
    const Resources cap{.cpu_cores = 8, .memory_gb = 32, .storage_gb = 256};
    const ServiceId service{next_service++};
    std::vector<VmId> group;
    AbstractionLayer layer;
    for (int r : racks) {
      group.push_back(topo.add_vm(topo.add_server(tors[r], cap), service));
      layer.tors.push_back(tors[r]);
    }
    for (int o : ops) layer.opss.push_back(opss[o]);
    std::sort(layer.tors.begin(), layer.tors.end());
    std::sort(layer.opss.begin(), layer.opss.end());
    auto id = manager->create_cluster(service, group, FixedAlBuilder(layer, connected));
    EXPECT_TRUE(id.has_value()) << (id.has_value() ? "" : id.error().to_string());
    return id.value_or(ClusterId::invalid());
  }

  [[nodiscard]] const VirtualCluster& cluster(ClusterId id) const { return *manager->find(id); }

  std::vector<ClusterId> cut(int rack, int ops) {
    std::vector<ClusterId> touched;
    EXPECT_TRUE(manager->handle_link_failure(tors[rack], opss[ops], &touched).has_value());
    const auto violations = manager->check_invariants();
    EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations[0]);
    return touched;
  }

  ServiceId::value_type next_service = 0;
};

/// Everything handle_link_failure could change: every cluster's AL and
/// flags, every OPS's owner and every ToR's index list.
struct ManagerState {
  std::vector<ClusterId> ids;
  std::vector<AbstractionLayer> layers;
  std::vector<bool> connected;
  std::vector<bool> degraded;
  std::vector<ClusterId> owners;
  std::vector<std::vector<ClusterId>> tor_index;

  explicit ManagerState(const ClusterManager& m) {
    for (const VirtualCluster* vc : m.clusters()) {
      ids.push_back(vc->id);
      layers.push_back(vc->layer);
      connected.push_back(vc->connected);
      degraded.push_back(vc->degraded);
    }
    for (std::size_t o = 0; o < m.ownership().ops_count(); ++o) {
      owners.push_back(m.ownership().owner(OpsId{static_cast<OpsId::value_type>(o)}));
    }
    for (std::size_t t = 0; t < m.topology().tor_count(); ++t) {
      tor_index.push_back(m.clusters_containing_tor(TorId{static_cast<TorId::value_type>(t)}));
    }
  }

  void expect_equal(const ManagerState& other) const {
    EXPECT_EQ(ids, other.ids);
    ASSERT_EQ(layers.size(), other.layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
      EXPECT_EQ(layers[i].tors, other.layers[i].tors) << "cluster " << ids[i].value();
      EXPECT_EQ(layers[i].opss, other.layers[i].opss) << "cluster " << ids[i].value();
    }
    EXPECT_EQ(connected, other.connected);
    EXPECT_EQ(degraded, other.degraded);
    EXPECT_EQ(owners, other.owners);
    EXPECT_EQ(tor_index, other.tor_index);
  }
};

/// Three healthy clusters share T0, each with its own uplink there; two
/// single-rack clusters own O2 and O4, which are uplinks of T0 but in no
/// AL that holds T0.
struct SharedRack : ScopeFixture {
  ClusterId a = add({0, 1}, {0}, true);  // T0, T1 over O0
  ClusterId b = add({0, 2}, {1}, true);  // T0, T2 over O1
  ClusterId c = add({0}, {3}, true);     // T0 over O3
  ClusterId d = add({3}, {2}, true);     // T3 over O2
  ClusterId e = add({4}, {4}, true);     // T4 over O4
};

TEST(LinkFailureScopeTest, OffLayerCutTouchesNothing) {
  SharedRack f;
  ASSERT_EQ(f.manager->clusters_containing_tor(f.tors[0]), (std::vector<ClusterId>{f.a, f.b, f.c}));
  const ManagerState before(*f.manager);
  EXPECT_EQ(f.cut(0, 4), std::vector<ClusterId>{}) << "O4 is in no AL that holds T0";
  EXPECT_TRUE(f.topo.link_failed(f.tors[0], f.opss[4]));
  ManagerState(*f.manager).expect_equal(before);
  // A second off-layer uplink of the same rack, owned by a cluster that
  // does not hold the rack either.
  EXPECT_EQ(f.cut(0, 2), std::vector<ClusterId>{});
  ManagerState(*f.manager).expect_equal(before);
}

TEST(LinkFailureScopeTest, CutOfAnAlLinkTouchesOnlyItsOwner) {
  SharedRack f;
  const ManagerState before(*f.manager);
  EXPECT_EQ(f.cut(0, 0), std::vector<ClusterId>{f.a});
  // Every other uplink of T0 is held by another AL, so the owner's repair
  // finds no replacement and degrades it; nobody else moved.
  EXPECT_TRUE(f.cluster(f.a).degraded);
  for (ClusterId id : {f.b, f.c, f.d, f.e}) {
    const std::size_t i = id.index();
    EXPECT_EQ(f.cluster(id).layer.opss, before.layers[i].opss) << id.value();
    EXPECT_EQ(f.cluster(id).degraded, before.degraded[i]) << id.value();
    EXPECT_EQ(f.cluster(id).connected, before.connected[i]) << id.value();
  }
  EXPECT_EQ(f.cut(0, 1), (std::vector<ClusterId>{f.a, f.b})) << "a is degraded now";
}

TEST(LinkFailureScopeTest, DegradedClusterIsStillRepairedAndReCovered) {
  SharedRack f;
  // C loses its only OPS; every other uplink of T0 is owned, so its repair
  // fails. Its AL is the lone ToR T0, which counts as connected.
  ASSERT_FALSE(f.manager->handle_ops_failure(f.opss[3]).has_value());
  ASSERT_TRUE(f.cluster(f.c).degraded);
  ASSERT_TRUE(f.cluster(f.c).connected);
  ASSERT_TRUE(f.cluster(f.c).layer.opss.empty());
  // D goes away, so O2 is free: no restore pass runs.
  ASSERT_TRUE(f.manager->destroy_cluster(f.d).is_ok());
  ASSERT_TRUE(f.cluster(f.c).degraded);

  // The cut is off-layer for every cluster on T0, but C is degraded.
  EXPECT_EQ(f.cut(0, 4), std::vector<ClusterId>{f.c});
  EXPECT_FALSE(f.cluster(f.c).degraded) << "the repair took the freed uplink";
  EXPECT_EQ(f.cluster(f.c).layer.opss, std::vector<OpsId>{f.opss[2]});
  EXPECT_EQ(f.manager->ownership().owner(f.opss[2]), f.c);
  EXPECT_TRUE(f.manager->degraded_cluster_ids().empty());
}

TEST(LinkFailureScopeTest, DisconnectedClusterIsStillAugmented) {
  ScopeFixture f;
  // F spans T5 and T6 over O8 and O10 without the free O9 between them, as
  // a build without connectivity augmentation leaves it; G shares T5.
  const ClusterId fid = f.add({5, 6}, {8, 10}, false);
  const ClusterId g = f.add({5}, {7}, true);
  ASSERT_FALSE(f.cluster(fid).degraded);
  ASSERT_FALSE(f.cluster(fid).connected);
  const AbstractionLayer g_before = f.cluster(g).layer;

  EXPECT_EQ(f.cut(5, 11), std::vector<ClusterId>{fid}) << "O11 is in no AL";
  EXPECT_TRUE(f.cluster(fid).connected) << "the repair recruited O9";
  EXPECT_EQ(f.cluster(fid).layer.opss, (std::vector<OpsId>{f.opss[8], f.opss[9], f.opss[10]}));
  EXPECT_FALSE(f.cluster(fid).degraded);
  EXPECT_EQ(f.cluster(g).layer.opss, g_before.opss);
  EXPECT_TRUE(f.cluster(g).connected);
}

}  // namespace
}  // namespace alvc::cluster
