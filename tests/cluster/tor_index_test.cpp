// The ToR -> cluster index: after every operation that can change an AL's
// ToR set, clusters_containing_tor(t) must equal a brute-force scan of
// every cluster's AL, for every ToR, and check_invariants must stay clean.
// Also: a rebuild whose builder throws must leave OPS ownership intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "cluster/service.h"
#include "topology/builder.h"

namespace alvc::cluster {
namespace {

using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;
using alvc::util::VmId;

void expect_index_matches_scan(const ClusterManager& manager, const std::string& step) {
  const auto& topo = manager.topology();
  for (std::size_t i = 0; i < topo.tor_count(); ++i) {
    const TorId tor{static_cast<TorId::value_type>(i)};
    std::vector<ClusterId> scan;
    for (const VirtualCluster* vc : manager.clusters()) {
      if (vc->layer.contains_tor(tor)) scan.push_back(vc->id);
    }
    EXPECT_EQ(manager.clusters_containing_tor(tor), scan) << step << ": ToR " << i;
  }
  const auto violations = manager.check_invariants();
  EXPECT_TRUE(violations.empty()) << step << ": " << (violations.empty() ? "" : violations[0]);
}

/// Eight racks in three contiguous service blocks (each service spans
/// about three racks, and neighbouring blocks share a rack), generous OPS
/// pool. Each service group but its last VM becomes a cluster; the
/// held-back VMs are free for add_vm.
struct TorIndexFixture {
  topology::DataCenterTopology topo;
  VertexCoverAlBuilder builder;
  std::unique_ptr<ClusterManager> manager;
  std::vector<ClusterId> ids;
  std::vector<VmId> spare;

  TorIndexFixture() {
    topology::TopologyParams params;
    params.rack_count = 8;
    params.servers_per_rack = 2;
    params.vms_per_server = 2;
    params.ops_count = 48;
    params.tor_ops_degree = 8;
    params.service_count = 3;
    params.server_local_services = true;
    params.seed = 7;
    topo = topology::build_topology(params);
    manager = std::make_unique<ClusterManager>(topo);
    const auto groups = group_vms_by_service(topo);
    for (std::size_t s = 0; s < groups.size(); ++s) {
      if (groups[s].size() < 2) continue;
      std::vector<VmId> group(groups[s].begin(), groups[s].end() - 1);
      spare.push_back(groups[s].back());
      auto id = manager->create_cluster(ServiceId{static_cast<ServiceId::value_type>(s)}, group,
                                        builder);
      if (!id.has_value()) throw std::runtime_error(id.error().to_string());
      ids.push_back(*id);
    }
  }

  [[nodiscard]] const VirtualCluster& cluster(ClusterId id) const { return *manager->find(id); }

  /// A server on a rack `id`'s AL does not yet cover.
  [[nodiscard]] ServerId server_outside(ClusterId id) const {
    for (const auto& server : topo.servers()) {
      if (!cluster(id).layer.contains_tor(server.tor)) return server.id;
    }
    return ServerId::invalid();
  }
};

TEST(TorIndexTest, TracksEveryLayerChange) {
  TorIndexFixture f;
  ASSERT_GE(f.ids.size(), 2u);
  ASSERT_FALSE(f.spare.empty());
  expect_index_matches_scan(*f.manager, "build");

  const ClusterId first = f.ids.front();
  ASSERT_TRUE(f.manager->add_vm(first, f.spare.front()).has_value());
  expect_index_matches_scan(*f.manager, "add_vm");

  ASSERT_TRUE(f.manager->remove_vm(first, f.spare.front()).has_value());
  expect_index_matches_scan(*f.manager, "remove_vm");

  // Emptying one of the cluster's racks shrinks its ToR set (uncover_tor);
  // adding the VMs back re-covers the rack (cover_tor).
  const TorId emptied = f.cluster(first).layer.tors.back();
  std::vector<VmId> behind;
  for (VmId vm : f.cluster(first).vms) {
    if (f.topo.tor_of_vm(vm) == emptied) behind.push_back(vm);
  }
  ASSERT_FALSE(behind.empty());
  ASSERT_LT(behind.size(), f.cluster(first).vms.size());
  for (VmId vm : behind) ASSERT_TRUE(f.manager->remove_vm(first, vm).has_value());
  EXPECT_FALSE(f.cluster(first).layer.contains_tor(emptied));
  expect_index_matches_scan(*f.manager, "remove_vm (rack emptied)");
  for (VmId vm : behind) ASSERT_TRUE(f.manager->add_vm(first, vm).has_value());
  EXPECT_TRUE(f.cluster(first).layer.contains_tor(emptied));
  expect_index_matches_scan(*f.manager, "add_vm (rack re-covered)");

  // Cross-rack migration onto a rack the AL does not cover yet: the join
  // side extends the ToR set, the leave side may shrink it.
  const VmId mover = f.cluster(first).vms.front();
  const ServerId target = f.server_outside(first);
  ASSERT_TRUE(target.valid());
  ASSERT_TRUE(f.manager->migrate_vm(first, mover, target).has_value());
  EXPECT_TRUE(f.cluster(first).layer.contains_tor(f.topo.server(target).tor));
  expect_index_matches_scan(*f.manager, "migrate_vm");

  for (ClusterId id : f.ids) ASSERT_TRUE(f.manager->reoptimize_cluster(id, f.builder).has_value());
  expect_index_matches_scan(*f.manager, "reoptimize_cluster");

  // ToR failure drops the ToR from every AL that held it; recovery
  // rebuilds the degraded clusters back onto it.
  TorId shared = TorId::invalid();
  std::vector<ClusterId> holders;
  for (std::size_t i = 0; i < f.topo.tor_count(); ++i) {
    const TorId t{static_cast<TorId::value_type>(i)};
    auto ids = f.manager->clusters_containing_tor(t);
    if (ids.size() > holders.size()) {
      shared = t;
      holders = std::move(ids);
    }
  }
  ASSERT_GE(holders.size(), 2u) << "the fixture must share a rack between clusters";
  std::vector<ClusterId> touched;
  ASSERT_TRUE(f.manager->handle_tor_failure(shared, f.builder, &touched).has_value());
  EXPECT_EQ(touched, holders) << "the blast radius is exactly the index list";
  EXPECT_TRUE(f.manager->clusters_containing_tor(shared).empty());
  expect_index_matches_scan(*f.manager, "tor failure");
  ASSERT_TRUE(f.manager->handle_tor_recovery(shared, f.builder).has_value());
  expect_index_matches_scan(*f.manager, "tor recovery");

  // Link failure repairs coverage without changing any ToR set. Cut an
  // uplink of a shared rack that no AL uses: of the rack's clusters, only
  // the degraded or disconnected ones are repaired, so only they are
  // touched.
  TorId link_tor = TorId::invalid();
  OpsId link_ops = OpsId::invalid();
  for (std::size_t i = 0; i < f.topo.tor_count() && !link_ops.valid(); ++i) {
    const TorId t{static_cast<TorId::value_type>(i)};
    const auto ids = f.manager->clusters_containing_tor(t);
    if (ids.size() < 2) continue;
    for (OpsId o : f.topo.tor(t).uplinks) {
      const bool used = std::any_of(ids.begin(), ids.end(), [&](ClusterId id) {
        return f.cluster(id).layer.contains_ops(o);
      });
      if (used) continue;
      link_tor = t;
      link_ops = o;
      break;
    }
  }
  ASSERT_TRUE(link_ops.valid()) << "the fixture must have an off-layer uplink at a shared rack";
  std::vector<ClusterId> narrowed;
  for (ClusterId id : f.manager->clusters_containing_tor(link_tor)) {
    if (f.cluster(id).degraded || !f.cluster(id).connected) narrowed.push_back(id);
  }
  touched.clear();
  ASSERT_TRUE(f.manager->handle_link_failure(link_tor, link_ops, &touched).has_value());
  EXPECT_EQ(touched, narrowed);
  expect_index_matches_scan(*f.manager, "link failure");
  ASSERT_TRUE(f.manager->handle_link_recovery(link_tor, link_ops, f.builder).has_value());
  expect_index_matches_scan(*f.manager, "link recovery");

  // Whole-rack outage of one cluster: every ToR of its group fails, so the
  // rebuild finds no reachable member and dissolves the AL.
  const ClusterId victim = f.ids.back();
  std::vector<TorId> racks;
  for (VmId vm : f.cluster(victim).vms) {
    f.topo.for_each_tor_of_vm(vm, [&](TorId t) {
      if (std::find(racks.begin(), racks.end(), t) == racks.end()) racks.push_back(t);
    });
  }
  for (TorId t : racks) ASSERT_TRUE(f.manager->handle_tor_failure(t, f.builder).has_value());
  EXPECT_TRUE(f.cluster(victim).layer.tors.empty());
  EXPECT_TRUE(f.cluster(victim).layer.opss.empty());
  EXPECT_TRUE(f.cluster(victim).degraded);
  expect_index_matches_scan(*f.manager, "whole-rack dissolve");
  for (TorId t : racks) ASSERT_TRUE(f.manager->handle_tor_recovery(t, f.builder).has_value());
  EXPECT_FALSE(f.cluster(victim).layer.tors.empty());
  expect_index_matches_scan(*f.manager, "whole-rack recovery");

  for (ClusterId id : f.ids) {
    ASSERT_TRUE(f.manager->destroy_cluster(id).is_ok());
    expect_index_matches_scan(*f.manager, "destroy_cluster " + std::to_string(id.value()));
  }
  for (std::size_t i = 0; i < f.topo.tor_count(); ++i) {
    EXPECT_TRUE(
        f.manager->clusters_containing_tor(TorId{static_cast<TorId::value_type>(i)}).empty());
  }
  EXPECT_TRUE(f.manager->clusters_containing_tor(TorId{9999}).empty()) << "unknown ToR";
}

/// A builder whose every build throws, as a bad_alloc mid-build would.
class ThrowingAlBuilder final : public AlBuilder {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "throwing"; }
  [[nodiscard]] Expected<AlBuildResult> build(const topology::DataCenterTopology& /*topo*/,
                                              std::span<const VmId> /*group*/,
                                              const OpsOwnership& /*ownership*/,
                                              ClusterId /*self*/,
                                              AlBuildScratch& /*scratch*/) const override {
    throw std::runtime_error("build failed");
  }
};

TEST(TorIndexTest, ThrowingRebuildKeepsOwnership) {
  TorIndexFixture f;
  const ClusterId id = f.ids.front();
  const std::vector<OpsId> opss = f.cluster(id).layer.opss;
  ASSERT_FALSE(opss.empty());
  const std::size_t free_before = f.manager->ownership().free_count();

  const ThrowingAlBuilder thrower;
  EXPECT_THROW((void)f.manager->reoptimize_cluster(id, thrower), std::runtime_error);

  EXPECT_EQ(f.cluster(id).layer.opss, opss);
  for (OpsId ops : opss) EXPECT_EQ(f.manager->ownership().owner(ops), id) << ops.value();
  EXPECT_EQ(f.manager->ownership().free_count(), free_before);
  expect_index_matches_scan(*f.manager, "throwing reoptimize");
  EXPECT_TRUE(f.manager->reoptimize_cluster(id, f.builder).has_value());
  expect_index_matches_scan(*f.manager, "reoptimize after the throw");
}

}  // namespace
}  // namespace alvc::cluster
