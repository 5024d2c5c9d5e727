#include "cluster/cluster_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/service.h"
#include "topology/builder.h"
#include "util/error.h"
#include "util/executor.h"

namespace alvc::cluster {
namespace {

using alvc::topology::build_topology;
using alvc::topology::DataCenterTopology;
using alvc::topology::TopologyParams;
using alvc::util::ErrorCode;
using alvc::util::ServerId;
using alvc::util::ServiceId;

TopologyParams default_params(std::uint64_t seed = 1) {
  TopologyParams params;
  params.seed = seed;
  params.rack_count = 8;
  // Each ToR needs roughly one free uplink per cluster that covers it, so a
  // 3-service DC wants degree comfortably above 3 (see bench_fig3 for the
  // exhaustion curve).
  params.ops_count = 30;
  params.tor_ops_degree = 8;
  params.service_count = 3;
  params.core = alvc::topology::CoreKind::kRing;
  return params;
}

TEST(ClusterManagerTest, CreateClusterAcquiresOps) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto id = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(id.has_value()) << id.error().to_string();
  const auto* vc = manager.find(*id);
  ASSERT_NE(vc, nullptr);
  EXPECT_FALSE(vc->layer.opss.empty());
  for (auto o : vc->layer.opss) {
    EXPECT_EQ(manager.ownership().owner(o), *id);
  }
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, CreateAllServiceClusters) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const auto ids = manager.create_clusters_by_service(builder);
  ASSERT_TRUE(ids.has_value()) << ids.error().to_string();
  EXPECT_EQ(ids->size(), 3u);
  EXPECT_EQ(manager.cluster_count(), 3u);
  // Exclusivity: no OPS shared between clusters is implied by ownership;
  // verify via invariants.
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, InvariantReportIsInClusterIdOrder) {
  // Regression: clusters_ is an unordered_map, so the audit walks
  // sorted_cluster_ids() — alvc_analyze's unordered-escape pass flagged the
  // raw iteration (chaos soaks diff invariant reports across runs).
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const auto ids = manager.create_clusters_by_service(builder);
  ASSERT_TRUE(ids.has_value()) << ids.error().to_string();
  ASSERT_EQ(ids->size(), 3u);
  // Fail one AL OPS per cluster out-of-band (no repair runs), so every
  // cluster contributes at least one violation.
  for (const auto id : *ids) {
    const auto* vc = manager.find(id);
    ASSERT_NE(vc, nullptr);
    ASSERT_FALSE(vc->layer.opss.empty());
    ASSERT_TRUE(topo.set_ops_failed(vc->layer.opss.front(), true).is_ok());
  }
  const auto violations = manager.check_invariants();
  ASSERT_GE(violations.size(), 3u);
  std::vector<unsigned long> seen;
  for (const auto& v : violations) {
    const auto pos = v.find("cluster ");
    if (pos == std::string::npos) continue;
    seen.push_back(std::stoul(v.substr(pos + 8)));
  }
  ASSERT_GE(seen.size(), 3u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(seen[i - 1], seen[i]) << violations[i - 1] << " before " << violations[i];
  }
  EXPECT_EQ(std::set<unsigned long>(seen.begin(), seen.end()).size(), 3u)
      << "every cluster should report its failed OPS";
}

TEST(ClusterManagerTest, VmCannotJoinTwoClusters) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto first = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(first.has_value());
  // Second cluster claiming an overlapping VM set must fail.
  const auto second = manager.create_cluster(ServiceId{1}, groups[0], builder);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::kConflict);
}

TEST(ClusterManagerTest, DestroyReleasesOps) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto id = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(id.has_value());
  const auto free_before = manager.ownership().free_count();
  ASSERT_TRUE(manager.destroy_cluster(*id).is_ok());
  EXPECT_GT(manager.ownership().free_count(), free_before);
  EXPECT_EQ(manager.ownership().free_count(), topo.ops_count());
  EXPECT_EQ(manager.find(*id), nullptr);
  EXPECT_FALSE(manager.destroy_cluster(*id).is_ok());
}

TEST(ClusterManagerTest, AddVmUnderCoveredTorIsCheap) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  // Build cluster 0 from all but one VM of group 0 whose ToR is shared
  // with another member (so its rack is already covered).
  auto group = groups[0];
  ASSERT_GE(group.size(), 2u);
  // Find a VM sharing a primary ToR with another group member.
  VmId held_out = VmId::invalid();
  for (std::size_t i = 0; i < group.size() && !held_out.valid(); ++i) {
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i != j && topo.tor_of_vm(group[i]) == topo.tor_of_vm(group[j])) {
        held_out = group[i];
        group.erase(group.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  ASSERT_TRUE(held_out.valid()) << "test topology too sparse";
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.add_vm(*id, held_out);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->flow_rules, 1u);  // one rule at the already-covered ToR
  EXPECT_EQ(cost->tor_changes, 0u);
  EXPECT_EQ(cost->ops_changes, 0u);
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, AddVmUnderNewTorExtendsAl) {
  // Manual topology: cluster starts on rack 0; a VM on rack 1 joins.
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
  const auto s0 = topo.add_server(t0, {});
  const auto s1 = topo.add_server(t1, {});
  const auto v0 = topo.add_vm(s0, ServiceId{0});
  const auto v1 = topo.add_vm(s1, ServiceId{0});

  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<VmId> group{v0};
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(manager.find(*id)->layer.opss.size(), 1u);

  const auto cost = manager.add_vm(*id, v1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->tor_changes, 1u);
  EXPECT_GE(cost->ops_changes, 1u);  // recruited O1
  const auto* vc = manager.find(*id);
  EXPECT_TRUE(vc->layer.contains_tor(t1));
  EXPECT_TRUE(vc->layer.contains_ops(o1));
  EXPECT_TRUE(vc->connected);
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, AddDuplicateVmRejected) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto id = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.add_vm(*id, groups[0][0]);
  ASSERT_FALSE(cost.has_value());
  EXPECT_EQ(cost.error().code, ErrorCode::kInvalidArgument);
}

TEST(ClusterManagerTest, AddVmFromOtherClusterRejected) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto a = manager.create_cluster(ServiceId{0}, groups[0], builder);
  const auto b = manager.create_cluster(ServiceId{1}, groups[1], builder);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const auto cost = manager.add_vm(*b, groups[0][0]);
  ASSERT_FALSE(cost.has_value());
  EXPECT_EQ(cost.error().code, ErrorCode::kConflict);
}

TEST(ClusterManagerTest, RemoveLastVmOfTorShrinksAl) {
  DataCenterTopology topo;
  using alvc::util::TorId;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  topo.connect_ops_ops(o0, o1);
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  const auto s0 = topo.add_server(t0, {});
  const auto s1 = topo.add_server(t1, {});
  const auto v0 = topo.add_vm(s0, ServiceId{0});
  const auto v1 = topo.add_vm(s1, ServiceId{0});

  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<VmId> group{v0, v1};
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(manager.find(*id)->layer.opss.size(), 2u);

  const std::uint64_t epoch = topo.mutation_epoch();
  const auto cost = manager.remove_vm(*id, v1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->tor_changes, 1u);
  EXPECT_EQ(cost->ops_changes, 1u);  // O1 released
  // No topology element changed, but the slice did: epoch-versioned route
  // caches must see it.
  EXPECT_GT(topo.mutation_epoch(), epoch);
  const auto* vc = manager.find(*id);
  EXPECT_FALSE(vc->layer.contains_tor(t1));
  EXPECT_TRUE(manager.ownership().is_free(o1));
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, RemoveAllVmsDissolvesAl) {
  DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto t0 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  const auto s0 = topo.add_server(t0, {});
  const auto v0 = topo.add_vm(s0, ServiceId{0});
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<VmId> group{v0};
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.remove_vm(*id, v0);
  ASSERT_TRUE(cost.has_value());
  EXPECT_TRUE(manager.find(*id)->layer.opss.empty());
  EXPECT_EQ(manager.ownership().free_count(), 1u);
}

TEST(ClusterManagerTest, RemoveUnknownVmFails) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto id = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.remove_vm(*id, groups[1][0]);
  ASSERT_FALSE(cost.has_value());
  EXPECT_EQ(cost.error().code, ErrorCode::kNotFound);
}

TEST(ClusterManagerTest, MigrateWithinRackIsFree) {
  DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto t0 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  const auto s0 = topo.add_server(t0, {});
  const auto s1 = topo.add_server(t0, {});
  const auto v0 = topo.add_vm(s0, ServiceId{0});
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<VmId> group{v0};
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.migrate_vm(*id, v0, s1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(cost->total(), 0u);
  EXPECT_EQ(topo.vm(v0).server, s1);
}

TEST(ClusterManagerTest, MigrateAcrossRacksUpdatesAl) {
  DataCenterTopology topo;
  using alvc::util::TorId;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  topo.connect_ops_ops(o0, o1);
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  const auto s0 = topo.add_server(t0, {});
  const auto s1 = topo.add_server(t1, {});
  const auto v0 = topo.add_vm(s0, ServiceId{0});
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const std::vector<VmId> group{v0};
  const auto id = manager.create_cluster(ServiceId{0}, group, builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.migrate_vm(*id, v0, s1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_GE(cost->flow_rules, 2u);  // uninstall + install
  const auto* vc = manager.find(*id);
  EXPECT_TRUE(vc->layer.contains_tor(t1));
  EXPECT_FALSE(vc->layer.contains_tor(t0));  // old rack shrunk away
  EXPECT_TRUE(manager.ownership().is_free(o0));
  EXPECT_TRUE(manager.check_invariants().empty());
}

TEST(ClusterManagerTest, MigrateToBadServerFails) {
  auto topo = build_topology(default_params());
  ClusterManager manager(topo);
  const auto groups = group_vms_by_service(topo);
  const VertexCoverAlBuilder builder;
  const auto id = manager.create_cluster(ServiceId{0}, groups[0], builder);
  ASSERT_TRUE(id.has_value());
  const auto cost = manager.migrate_vm(*id, groups[0][0], ServerId{9999});
  ASSERT_FALSE(cost.has_value());
  EXPECT_EQ(cost.error().code, ErrorCode::kInvalidArgument);
}

TEST(ClusterManagerTest, OpsExclusivityAcrossManyClusters) {
  TopologyParams params = default_params(7);
  params.service_count = 4;
  params.ops_count = 48;
  params.tor_ops_degree = 10;
  auto topo = build_topology(params);
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const auto ids = manager.create_clusters_by_service(builder);
  ASSERT_TRUE(ids.has_value());
  // Count ownership: every AL OPS owned exactly once.
  std::vector<int> owned(topo.ops_count(), 0);
  for (const auto* vc : manager.clusters()) {
    for (auto o : vc->layer.opss) ++owned[o.index()];
  }
  for (int count : owned) EXPECT_LE(count, 1);
  EXPECT_TRUE(manager.check_invariants().empty());
}

/// build_all_clusters ignores its executor: the call the end-to-end driver
/// makes (with a pool) builds exactly what create_clusters_by_service
/// builds — ids, ALs, flags, ownership, and the same error when the OPS
/// pool runs out — for every builder, on fabrics tight enough that groups
/// contend for OPSs.
TEST(ClusterManagerTest, BuildAllClustersWithExecutorMatchesSerial) {
  std::vector<std::unique_ptr<AlBuilder>> builders;
  builders.push_back(std::make_unique<VertexCoverAlBuilder>());
  builders.push_back(std::make_unique<RandomAlBuilder>(/*seed=*/42));
  builders.push_back(std::make_unique<GreedySetCoverAlBuilder>());
  builders.push_back(std::make_unique<ResilientAlBuilder>());
  builders.push_back(std::make_unique<ExactAlBuilder>(AlBuilderOptions{}, /*node_budget=*/200'000));
  alvc::util::Executor executor(2);
  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TopologyParams params;
    params.seed = seed;
    params.rack_count = 12;
    params.servers_per_rack = 3;
    params.vms_per_server = 3;
    params.ops_count = 24;
    params.tor_ops_degree = 6;
    params.service_count = 4;
    params.service_skew = 0.6;
    params.dual_homing_probability = 0.1;
    params.optoelectronic_fraction = 0.5;
    params.core = alvc::topology::CoreKind::kTorus2D;
    for (const auto& builder : builders) {
      const std::string context =
          "builder=" + std::string(builder->name()) + " seed=" + std::to_string(seed);
      auto serial_topo = build_topology(params);
      auto batch_topo = build_topology(params);
      ClusterManager serial(serial_topo);
      ClusterManager batch(batch_topo);
      const auto serial_ids = serial.create_clusters_by_service(*builder);
      const auto batch_ids = batch.build_all_clusters(*builder, &executor);
      ASSERT_EQ(serial_ids.has_value(), batch_ids.has_value()) << context;
      if (serial_ids) {
        EXPECT_EQ(*serial_ids, *batch_ids) << context;
      } else {
        ++failures;
        EXPECT_EQ(serial_ids.error().to_string(), batch_ids.error().to_string()) << context;
      }
      const auto lhs = serial.clusters();
      const auto rhs = batch.clusters();
      ASSERT_EQ(lhs.size(), rhs.size()) << context;
      for (std::size_t i = 0; i < lhs.size(); ++i) {
        EXPECT_EQ(lhs[i]->id, rhs[i]->id) << context;
        EXPECT_EQ(lhs[i]->service, rhs[i]->service) << context;
        EXPECT_EQ(lhs[i]->vms, rhs[i]->vms) << context;
        EXPECT_EQ(lhs[i]->layer.tors, rhs[i]->layer.tors) << context;
        EXPECT_EQ(lhs[i]->layer.opss, rhs[i]->layer.opss) << context;
        EXPECT_EQ(lhs[i]->connected, rhs[i]->connected) << context;
      }
      for (std::size_t o = 0; o < serial.ownership().ops_count(); ++o) {
        const alvc::util::OpsId ops{static_cast<alvc::util::OpsId::value_type>(o)};
        EXPECT_EQ(serial.ownership().owner(ops), batch.ownership().owner(ops)) << context;
      }
      EXPECT_TRUE(batch.check_invariants().empty()) << context;
    }
  }
  // The sweep covers the error side as well as the feasible builds.
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, 6u * builders.size());
}

class ChurnPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnPropertyTest, InvariantsSurviveRandomChurn) {
  TopologyParams params = default_params(GetParam());
  params.rack_count = 10;
  params.ops_count = 20;
  params.service_count = 2;
  auto topo = build_topology(params);
  ClusterManager manager(topo);
  const VertexCoverAlBuilder builder;
  const auto groups = group_vms_by_service(topo);
  // Seed cluster from half of group 0.
  std::vector<VmId> half(groups[0].begin(),
                         groups[0].begin() + static_cast<std::ptrdiff_t>(groups[0].size() / 2));
  std::vector<VmId> rest(groups[0].begin() + static_cast<std::ptrdiff_t>(groups[0].size() / 2),
                         groups[0].end());
  const auto id = manager.create_cluster(ServiceId{0}, half, builder);
  ASSERT_TRUE(id.has_value());

  alvc::util::Rng rng(GetParam() * 31 + 5);
  std::vector<VmId> inside = half;
  std::vector<VmId> outside = rest;
  for (int step = 0; step < 200; ++step) {
    const double action = rng.uniform01();
    if (action < 0.4 && !outside.empty()) {
      const std::size_t i = rng.uniform_index(outside.size());
      const auto cost = manager.add_vm(*id, outside[i]);
      if (cost.has_value()) {
        inside.push_back(outside[i]);
        outside.erase(outside.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (action < 0.7 && inside.size() > 1) {
      const std::size_t i = rng.uniform_index(inside.size());
      const auto cost = manager.remove_vm(*id, inside[i]);
      ASSERT_TRUE(cost.has_value());
      outside.push_back(inside[i]);
      inside.erase(inside.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!inside.empty()) {
      const std::size_t i = rng.uniform_index(inside.size());
      const ServerId target{
          static_cast<ServerId::value_type>(rng.uniform_index(topo.server_count()))};
      ALVC_IGNORE_STATUS(manager.migrate_vm(*id, inside[i], target),
                         "random churn: an infeasible migration is a legal no-op");
    }
    const auto violations = manager.check_invariants();
    ASSERT_TRUE(violations.empty()) << "step " << step << ": " << violations.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

/// One service per island of `racks[s]` racks: ToR i of an island links to
/// its OPSs i and i + 1 (two spare), one server and VM per rack. No link
/// joins two islands, so a repair in one island cannot read another.
struct Islands {
  DataCenterTopology topo;
  std::vector<std::vector<TorId>> tors;
  std::vector<std::vector<alvc::util::OpsId>> opss;

  explicit Islands(const std::vector<std::size_t>& racks) {
    for (std::size_t s = 0; s < racks.size(); ++s) {
      tors.emplace_back();
      opss.emplace_back();
      for (std::size_t o = 0; o < racks[s] + 2; ++o) opss[s].push_back(topo.add_ops());
      for (std::size_t r = 0; r < racks[s]; ++r) {
        const TorId tor = topo.add_tor();
        tors[s].push_back(tor);
        topo.connect_tor_ops(tor, opss[s][r]);
        topo.connect_tor_ops(tor, opss[s][r + 1]);
        topo.add_vm(topo.add_server(tor, {}), ServiceId{static_cast<std::uint32_t>(s)});
      }
    }
  }
};

/// What one repair left behind, for comparing two managers.
struct RepairOutcome {
  bool ok = false;
  std::size_t flow_rules = 0;
  std::size_t tor_changes = 0;
  std::size_t ops_changes = 0;
  std::vector<TorId> tors;
  std::vector<alvc::util::OpsId> opss;
  bool connected = false;
  bool degraded = false;
  bool operator==(const RepairOutcome&) const = default;
};

RepairOutcome outcome(const ClusterManager& manager, ClusterId id,
                      const Expected<UpdateCost>& cost) {
  const VirtualCluster* vc = manager.find(id);
  RepairOutcome out{.tors = vc->layer.tors,
                    .opss = vc->layer.opss,
                    .connected = vc->connected,
                    .degraded = vc->degraded};
  if (cost) {
    out.ok = true;
    out.flow_rules = cost->flow_rules;
    out.tor_changes = cost->tor_changes;
    out.ops_changes = cost->ops_changes;
  }
  return out;
}

/// Step `step` of a cluster's repair sequence: fail the first OPS of its
/// AL (an in-place repair), fail its last ToR (a rebuild), then remove the
/// VM under its first ToR (an AL trim, which checks connectivity).
RepairOutcome repair_step(ClusterManager& manager, ClusterId id, int step,
                          const AlBuilder& builder) {
  const VirtualCluster& vc = *manager.find(id);
  if (step == 0) return outcome(manager, id, manager.handle_ops_failure(vc.layer.opss.front()));
  if (step == 1) {
    return outcome(manager, id, manager.handle_tor_failure(vc.layer.tors.back(), builder));
  }
  for (VmId vm : vc.vms) {
    if (vc.layer.tors.empty() || manager.topology().tor_of_vm(vm) != vc.layer.tors.front()) {
      continue;
    }
    return outcome(manager, id, manager.remove_vm(id, vm));
  }
  return outcome(manager, id, alvc::util::Error{ErrorCode::kNotFound, "no VM to remove"});
}

constexpr int kRepairSteps = 3;

// The manager keeps one AL-build scratch for its lifetime. Repair steps
// that alternate between clusters of 5, 1, 4 and 2 racks must each give
// exactly what a manager that repairs only that cluster gives: nothing of
// an earlier, larger footprint may leak into a later repair.
TEST(ClusterManagerTest, RepairsOfDifferentSizesInARowMatchFreshManagers) {
  const std::vector<std::size_t> racks{5, 1, 4, 2};
  const VertexCoverAlBuilder builder;
  Islands shared(racks);
  ClusterManager manager(shared.topo);
  const auto ids = manager.create_clusters_by_service(builder);
  ASSERT_TRUE(ids.has_value()) << ids.error().to_string();
  ASSERT_EQ(ids->size(), racks.size());
  std::vector<std::vector<RepairOutcome>> reused(racks.size());
  for (int step = 0; step < kRepairSteps; ++step) {
    for (std::size_t s = 0; s < racks.size(); ++s) {
      reused[s].push_back(repair_step(manager, (*ids)[s], step, builder));
    }
  }
  EXPECT_TRUE(manager.check_invariants().empty());

  std::size_t recovered = 0;
  for (std::size_t s = 0; s < racks.size(); ++s) {
    SCOPED_TRACE("island " + std::to_string(s) + " of " + std::to_string(racks[s]) + " racks");
    Islands alone(racks);
    ClusterManager fresh(alone.topo);
    ASSERT_TRUE(fresh.create_clusters_by_service(builder).has_value());
    for (int step = 0; step < kRepairSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const RepairOutcome expected = repair_step(fresh, (*ids)[s], step, builder);
      EXPECT_EQ(reused[s][static_cast<std::size_t>(step)], expected);
      for (TorId t : expected.tors) {
        EXPECT_NE(std::find(alone.tors[s].begin(), alone.tors[s].end(), t), alone.tors[s].end())
            << "ToR " << t.value() << " from another island";
      }
      for (alvc::util::OpsId op : expected.opss) {
        EXPECT_NE(std::find(alone.opss[s].begin(), alone.opss[s].end(), op),
                  alone.opss[s].end())
            << "OPS " << op.value() << " from another island";
      }
      if (expected.ok && expected.connected && !expected.opss.empty()) ++recovered;
    }
  }
  EXPECT_GE(recovered, racks.size()) << "vacuous: too few repairs left a connected AL";
}

}  // namespace
}  // namespace alvc::cluster
