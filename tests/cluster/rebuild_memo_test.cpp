// Rebuild memo edge cases: restore_degraded_clusters skips a degraded
// cluster only while nothing its rebuild reads has changed, and always
// rebuilds a cluster whose last rebuild read beyond its footprint. The
// WriterStamp tests drive every writer of a footprint (topology flags,
// wiring, homings, and a neighbour's OPS acquire or release), each of
// which lists the ToRs or OPSs it touches as pending writes, and check
// that the next restore pass rebuilds the degraded cluster — through its
// `touched` list, which holds exactly the rebuilt clusters, so the checks
// hold with telemetry compiled out too. A neighbour's rebuild that keeps
// its OPSs lists no owner change and must leave the memo standing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "support/reference_plane.h"
#include "telemetry/telemetry.h"
#include "util/error.h"

namespace alvc::cluster {
namespace {

using alvc::test::ReferencePlane;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;

/// Hand-wired fabric: `tors` ToRs and `opss` OPSs, nothing linked yet.
struct Fabric {
  topology::DataCenterTopology topo;
  VertexCoverAlBuilder builder;
  std::unique_ptr<ClusterManager> manager;

  Fabric(std::size_t tors, std::size_t opss) {
    for (std::size_t o = 0; o < opss; ++o) topo.add_ops();
    for (std::size_t t = 0; t < tors; ++t) topo.add_tor();
  }
  static TorId tor(std::uint32_t i) { return TorId{i}; }
  static OpsId ops(std::uint32_t i) { return OpsId{i}; }
  void link(std::uint32_t t, std::uint32_t o) { topo.connect_tor_ops(tor(t), ops(o)); }
  /// A server under ToR `t` with two VMs of `service`.
  std::vector<VmId> rack(std::uint32_t t, std::uint32_t service) {
    const ServerId server =
        topo.add_server(tor(t), {.cpu_cores = 8, .memory_gb = 32, .storage_gb = 256});
    return {topo.add_vm(server, ServiceId{service}), topo.add_vm(server, ServiceId{service})};
  }
  /// Starts the manager; call after wiring, before creating clusters.
  void start() { manager = std::make_unique<ClusterManager>(topo); }
  ClusterId create(std::vector<VmId> group, std::uint32_t service) {
    auto id = manager->create_cluster(ServiceId{service}, group, builder);
    if (!id) throw std::runtime_error(id.error().to_string());
    return *id;
  }
  const VirtualCluster& cluster(ClusterId id) const { return *manager->find(id); }
  /// Cuts and heals a link no cluster's footprint contains: the recovery
  /// runs a restore pass and nothing else.
  void unrelated_recovery(std::uint32_t t, std::uint32_t o) {
    ASSERT_TRUE(manager->handle_link_failure(tor(t), ops(o)).has_value());
    ASSERT_TRUE(manager->handle_link_recovery(tor(t), ops(o), builder).has_value());
  }
  /// unrelated_recovery, returning the clusters its restore pass rebuilt.
  std::vector<ClusterId> rebuilt_by_unrelated_recovery(std::uint32_t t, std::uint32_t o) {
    std::vector<ClusterId> touched;
    EXPECT_TRUE(manager->handle_link_failure(tor(t), ops(o)).has_value());
    EXPECT_TRUE(manager->handle_link_recovery(tor(t), ops(o), builder, &touched).has_value());
    return touched;
  }
};

/// The common WriterStamp set-up: A over T0 (uplink O0) and T1 (uplink
/// O1), joined through the core link O0-O1; T2-O2 carries no cluster.
/// T1 dies, so A rebuilds over T0's VMs by a local build and stays
/// degraded with a memo, and an unrelated recovery then skips it.
struct DegradedPair {
  Fabric f;
  std::vector<VmId> stranded;  // A's VMs behind T1
  ClusterId a;
  ClusterId b;  // the optional neighbour start() creates first

  explicit DegradedPair(std::size_t extra_tors = 0, std::size_t extra_opss = 0)
      : f(3 + extra_tors, 3 + extra_opss) {
    f.link(0, 0);
    f.link(1, 1);
    f.link(2, 2);
    f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  }
  /// Creates A, after a neighbour B over `group_b` when one is given;
  /// call after any extra wiring.
  void start(const std::vector<VmId>& group_b = {}) {
    auto group = f.rack(0, 0);
    stranded = f.rack(1, 0);
    for (VmId vm : stranded) group.push_back(vm);
    f.start();
    if (!group_b.empty()) b = f.create(group_b, 1);
    a = f.create(group, 0);
    ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
    ASSERT_TRUE(f.cluster(a).degraded);
    ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));
    ASSERT_EQ(f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{})
        << "nothing moved yet: the memo holds";
  }
  [[nodiscard]] ServerId stranded_server() const { return f.topo.vm(stranded.front()).server; }
};

/// The restore counters, where telemetry is compiled in.
struct RestoreCounts {
  std::uint64_t rebuilds = 0;
  std::uint64_t skipped = 0;
};

RestoreCounts restore_counts() {
#if ALVC_TELEMETRY_ENABLED
  auto& registry = alvc::telemetry::MetricRegistry::global();
  return {registry.counter("cluster.restore.rebuilds").value(),
          registry.counter("cluster.restore.skipped").value()};
#else
  return {};
#endif
}

/// Expects the restore counters to have moved by exactly (rebuilds,
/// skipped) since `before`; a no-op when telemetry is compiled out.
void expect_restores([[maybe_unused]] const RestoreCounts& before,
                     [[maybe_unused]] std::uint64_t rebuilds,
                     [[maybe_unused]] std::uint64_t skipped) {
#if ALVC_TELEMETRY_ENABLED
  const RestoreCounts now = restore_counts();
  EXPECT_EQ(now.rebuilds - before.rebuilds, rebuilds);
  EXPECT_EQ(now.skipped - before.skipped, skipped);
#endif
}

TEST(RebuildMemoTest, UnrelatedLinkRecoveryIsSkipped) {
  // A over T0 + T1 (uplinks O0, O1); T2-O2 carries no cluster.
  Fabric f(3, 3);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  auto group = f.rack(0, 0);
  for (VmId vm : f.rack(1, 0)) group.push_back(vm);
  f.start();
  const ClusterId a = f.create(group, 0);

  // T1 dies: A rebuilds over T0's VMs and stays degraded, by a local build.
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_TRUE(f.cluster(a).degraded);
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));
  const VirtualCluster before = f.cluster(a);
  const std::uint64_t epoch = f.topo.mutation_epoch();

  const RestoreCounts counts = restore_counts();
  std::vector<ClusterId> touched;
  ASSERT_TRUE(f.manager->handle_link_failure(Fabric::tor(2), Fabric::ops(2)).has_value());
  const auto cost =
      f.manager->handle_link_recovery(Fabric::tor(2), Fabric::ops(2), f.builder, &touched);
  ASSERT_TRUE(cost.has_value());
  expect_restores(counts, 0, 1);
  EXPECT_EQ(cost->total(), 0u);
  EXPECT_EQ(touched, std::vector<ClusterId>{}) << "a skipped cluster stays out of the sweep";
  // Only the two link flips moved the epoch: the skip bumped nothing.
  EXPECT_EQ(f.topo.mutation_epoch(), epoch + 2);
  EXPECT_EQ(f.cluster(a).layer.tors, before.layer.tors);
  EXPECT_EQ(f.cluster(a).layer.opss, before.layer.opss);
  EXPECT_TRUE(f.cluster(a).degraded);
  EXPECT_EQ(f.cluster(a).connected, before.connected);
  EXPECT_TRUE(f.manager->check_invariants().empty());

  // T1 back: its flag is in A's footprint, so A rebuilds and heals.
  const RestoreCounts healing = restore_counts();
  ASSERT_TRUE(f.manager->handle_tor_recovery(Fabric::tor(1), f.builder).has_value());
  expect_restores(healing, 1, 0);
  EXPECT_FALSE(f.cluster(a).degraded);
  EXPECT_FALSE(ReferencePlane::has_memo(*f.manager, a)) << "a healed cluster keeps no memo";
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, NeighbourFreeingAFootprintOpsForcesTheRebuild) {
  // A over T0, whose uplinks are O0 and O1. B over T1 (uplink O1) and T3
  // (uplink O3), joined through the core link O1-O3. T4-O4 carries no
  // cluster.
  Fabric f(5, 5);
  f.link(0, 0);
  f.link(0, 1);
  f.link(1, 1);
  f.link(3, 3);
  f.link(4, 4);
  f.topo.connect_ops_ops(Fabric::ops(1), Fabric::ops(3));
  const auto group_a = f.rack(0, 0);
  auto group_b = f.rack(1, 1);
  for (VmId vm : f.rack(3, 1)) group_b.push_back(vm);
  f.start();
  const ClusterId a = f.create(group_a, 0);
  const ClusterId b = f.create(group_b, 1);
  ASSERT_EQ(f.cluster(a).layer.opss, std::vector<OpsId>{Fabric::ops(0)});
  ASSERT_TRUE(f.cluster(b).layer.contains_ops(Fabric::ops(1)));

  // O0 dies. T0's other uplink is B's, so A is left degraded; the next
  // restore's failed rebuild records a memo that saw O1 owned by B.
  ASSERT_FALSE(f.manager->handle_ops_failure(Fabric::ops(0)).has_value());
  ASSERT_TRUE(f.cluster(a).degraded);
  f.unrelated_recovery(4, 4);
  ASSERT_TRUE(f.cluster(a).degraded);
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));

  // T1 dies: B rebuilds over T3 alone and releases O1 — a change to A's
  // footprint that no failure or recovery of A's own elements announces.
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_FALSE(f.cluster(b).layer.contains_ops(Fabric::ops(1)));
  ASSERT_TRUE(f.manager->ownership().is_free(Fabric::ops(1)));

  // A recovery anywhere rebuilds A, which takes O1 and heals. O1 is also
  // an uplink of B's dead T1, so A taking it moves B's footprint too and B
  // rebuilds in the same pass.
  const RestoreCounts counts = restore_counts();
  f.unrelated_recovery(4, 4);
  expect_restores(counts, 2, 0);
  EXPECT_FALSE(f.cluster(a).degraded);
  EXPECT_EQ(f.cluster(a).layer.opss, std::vector<OpsId>{Fabric::ops(1)});
  EXPECT_TRUE(f.cluster(b).degraded);
  EXPECT_TRUE(f.manager->check_invariants().empty());

  // Nothing moved since: B is skipped.
  const RestoreCounts settled = restore_counts();
  f.unrelated_recovery(4, 4);
  expect_restores(settled, 0, 1);
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, AugmentRecruitedAlIsAlwaysRebuilt) {
  // A over T0, T1 and T2. T0 and T1 reach each other only through the
  // free core OPS O3 (O0 - O3 - O1); T2 hangs off O2, linked to O0.
  Fabric f(3, 4);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(3));
  f.topo.connect_ops_ops(Fabric::ops(3), Fabric::ops(1));
  f.topo.connect_ops_ops(Fabric::ops(2), Fabric::ops(0));
  auto group = f.rack(0, 0);
  for (std::uint32_t t = 1; t < 3; ++t) {
    for (VmId vm : f.rack(t, 0)) group.push_back(vm);
  }
  f.start();
  const ClusterId a = f.create(group, 0);

  // T2 dies: the rebuild over T0 + T1 needs O3 to connect, recruited by
  // the augmentation BFS, so it is not local and leaves no memo.
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(2), f.builder).has_value());
  ASSERT_TRUE(f.cluster(a).degraded);
  ASSERT_TRUE(f.cluster(a).layer.contains_ops(Fabric::ops(3)));
  EXPECT_FALSE(ReferencePlane::has_memo(*f.manager, a));

  // Every later restore rebuilds it.
  for (int round = 0; round < 3; ++round) {
    const RestoreCounts counts = restore_counts();
    ASSERT_TRUE(f.manager->restore_degraded_clusters(f.builder).has_value());
    expect_restores(counts, 1, 0);
    EXPECT_FALSE(ReferencePlane::has_memo(*f.manager, a));
  }
  EXPECT_TRUE(f.cluster(a).layer.contains_ops(Fabric::ops(3)));
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, DestroyedClusterLeavesNoMemoBehind) {
  Fabric f(3, 3);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  auto group = f.rack(0, 0);
  for (VmId vm : f.rack(1, 0)) group.push_back(vm);
  f.start();
  const ClusterId a = f.create(group, 0);
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));

  ASSERT_TRUE(f.manager->destroy_cluster(a).is_ok());
  EXPECT_EQ(ReferencePlane::memo_count(*f.manager), 0u);

  // The same group again (T1 is back): a fresh cluster, no memo under any
  // id, and its first degradation rebuilds from scratch.
  ASSERT_TRUE(f.manager->handle_tor_recovery(Fabric::tor(1), f.builder).has_value());
  const ClusterId again = f.create(group, 0);
  EXPECT_NE(again, a);
  EXPECT_EQ(ReferencePlane::memo_count(*f.manager), 0u);
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  EXPECT_TRUE(ReferencePlane::has_memo(*f.manager, again));
  EXPECT_FALSE(ReferencePlane::has_memo(*f.manager, a));
  const RestoreCounts counts = restore_counts();
  f.unrelated_recovery(2, 2);
  expect_restores(counts, 0, 1);
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, MigrateVmChangesTheFootprint) {
  // A over T0 (uplink O0) and T1 (uplink O1); T2-O2 carries no cluster.
  Fabric f(3, 3);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  auto group = f.rack(0, 0);
  const auto stranded = f.rack(1, 0);
  for (VmId vm : stranded) group.push_back(vm);
  f.start();
  const ClusterId a = f.create(group, 0);
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_TRUE(f.cluster(a).degraded);
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));

  // Move T1's VMs into T0's rack. T0 is already in the AL and T1 no
  // longer is, so the migrations leave the VM list and the AL as they
  // were: only the VMs' home ToRs — the footprint — change.
  const ServerId target = f.topo.tor(Fabric::tor(0)).servers.front();
  const VirtualCluster before = f.cluster(a);
  for (VmId vm : stranded) ASSERT_TRUE(f.manager->migrate_vm(a, vm, target).has_value());
  ASSERT_EQ(f.cluster(a).vms, before.vms);
  ASSERT_EQ(f.cluster(a).layer.tors, before.layer.tors);
  ASSERT_EQ(f.cluster(a).layer.opss, before.layer.opss);

  const RestoreCounts counts = restore_counts();
  EXPECT_EQ(f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{a});
  expect_restores(counts, 1, 0);
  EXPECT_FALSE(f.cluster(a).degraded) << "every VM is reachable again behind T0";
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampTorFlipForcesTheRebuild) {
  DegradedPair p;
  p.start();
  std::vector<ClusterId> touched;
  ASSERT_TRUE(p.f.manager->handle_tor_recovery(Fabric::tor(1), p.f.builder, &touched).has_value());
  EXPECT_EQ(touched, std::vector<ClusterId>{p.a});
  EXPECT_FALSE(p.f.cluster(p.a).degraded);
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampLinkFlipForcesTheRebuild) {
  // T1's uplink is in A's footprint although T1 left A's AL: the flip
  // repairs no AL, yet the next restore must look again.
  DegradedPair p;
  p.start();
  ASSERT_TRUE(p.f.manager->handle_link_failure(Fabric::tor(1), Fabric::ops(1)).has_value());
  std::vector<ClusterId> touched;
  ASSERT_TRUE(p.f.manager
                  ->handle_link_recovery(Fabric::tor(1), Fabric::ops(1), p.f.builder, &touched)
                  .has_value());
  EXPECT_EQ(touched, std::vector<ClusterId>{p.a});
  EXPECT_TRUE(p.f.cluster(p.a).degraded) << "T1 is still down";
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{});
}

TEST(RebuildMemoTest, WriterStampOpsFlipForcesTheRebuild) {
  // O1, T1's uplink, is free since A left T1: its failure touches no AL.
  DegradedPair p;
  p.start();
  ASSERT_TRUE(p.f.manager->ownership().is_free(Fabric::ops(1)));
  ASSERT_TRUE(p.f.manager->handle_ops_failure(Fabric::ops(1)).has_value());
  std::vector<ClusterId> touched;
  ASSERT_TRUE(
      p.f.manager->handle_ops_recovery(Fabric::ops(1), p.f.builder, &touched).has_value());
  EXPECT_EQ(touched, std::vector<ClusterId>{p.a});
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{});
}

TEST(RebuildMemoTest, WriterStampConnectTorOpsForcesTheRebuild) {
  // O3 is wired to nothing until T0, a home ToR of A, gains it.
  DegradedPair p(0, 1);
  p.start();
  p.f.link(0, 3);
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{p.a});
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampAddServerHomingForcesTheRebuild) {
  // T3-O3 is a spare rack. Homing the stranded server there as well makes
  // its VMs reachable again.
  DegradedPair p(1, 1);
  p.f.link(3, 3);
  p.start();
  p.f.topo.add_server_homing(p.stranded_server(), Fabric::tor(3));
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{p.a});
  EXPECT_FALSE(p.f.cluster(p.a).degraded) << "the stranded VMs reach T3";
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampConnectOpsOpsForcesTheRebuild) {
  // A over T0 (O0) and T1 (O1) with no core link, so its AL is
  // disconnected from the start. B holds O2, the only uplink of T2. A's
  // server behind T1 gains T2 as a second homing, then T1 dies: the
  // rebuild must cover those VMs through T2, which has no free uplink, so
  // it fails and A keeps {T0} + {O0, O1}, disconnected, with a memo. A
  // core link O0-O1 then joins that incumbent; only a rebuild sees it.
  Fabric f(4, 4);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.link(3, 3);
  const auto group_b = f.rack(2, 1);
  auto group_a = f.rack(0, 0);
  const auto behind_t1 = f.rack(1, 0);
  for (VmId vm : behind_t1) group_a.push_back(vm);
  f.start();
  const ClusterId b = f.create(group_b, 1);
  const ClusterId a = f.create(group_a, 0);
  ASSERT_EQ(f.cluster(b).layer.opss, std::vector<OpsId>{Fabric::ops(2)});
  ASSERT_FALSE(f.cluster(a).connected);
  f.topo.add_server_homing(f.topo.vm(behind_t1.front()).server, Fabric::tor(2));
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_TRUE(f.cluster(a).degraded);
  ASSERT_EQ(f.cluster(a).layer.opss, (std::vector<OpsId>{Fabric::ops(0), Fabric::ops(1)}));
  ASSERT_FALSE(f.cluster(a).connected);
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));
  ASSERT_EQ(f.rebuilt_by_unrelated_recovery(3, 3), std::vector<ClusterId>{});

  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  EXPECT_EQ(f.rebuilt_by_unrelated_recovery(3, 3), std::vector<ClusterId>{a});
  EXPECT_TRUE(f.cluster(a).connected);
  EXPECT_TRUE(f.cluster(a).degraded);
  EXPECT_TRUE(f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampNeighbourAcquireForcesTheRebuild) {
  // T0 has a second, free uplink O3, also the only uplink of the spare
  // rack T3. A cluster created there acquires O3 out of A's footprint.
  DegradedPair p(1, 1);
  p.f.link(0, 3);
  p.f.link(3, 3);
  p.start();
  ASSERT_TRUE(p.f.manager->ownership().is_free(Fabric::ops(3)));
  const ClusterId b = p.f.create(p.f.rack(3, 1), 1);
  ASSERT_EQ(p.f.cluster(b).layer.opss, std::vector<OpsId>{Fabric::ops(3)});
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{p.a});
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, WriterStampNeighbourReleaseForcesTheRebuild) {
  // As above, but B exists before A's memo and is destroyed after it:
  // the release alone frees O3.
  DegradedPair p(1, 1);
  p.f.link(0, 3);
  p.f.link(3, 3);
  p.start(p.f.rack(3, 1));
  ASSERT_EQ(p.f.cluster(p.b).layer.opss, std::vector<OpsId>{Fabric::ops(3)});
  ASSERT_TRUE(p.f.manager->destroy_cluster(p.b).is_ok());
  EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{p.a});
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, NeighbourRebuildKeepingItsOpsKeepsTheMemo) {
  // B over T3 (uplink O3), T4 (O4) and T5 (O6), with core links O3-O5,
  // O5-O4 and O6-O3, so B's AL needs the core OPS O5 too. O3 is also an
  // uplink of A's home ToR T0, taken by B before A is built.
  DegradedPair p(3, 4);
  p.f.link(3, 3);
  p.f.link(4, 4);
  p.f.link(5, 6);
  p.f.link(0, 3);
  p.f.topo.connect_ops_ops(Fabric::ops(3), Fabric::ops(5));
  p.f.topo.connect_ops_ops(Fabric::ops(5), Fabric::ops(4));
  p.f.topo.connect_ops_ops(Fabric::ops(6), Fabric::ops(3));
  std::vector<VmId> group_b;
  for (std::uint32_t t = 3; t < 6; ++t) {
    for (VmId vm : p.f.rack(t, 1)) group_b.push_back(vm);
  }
  p.start(group_b);
  ASSERT_TRUE(p.f.cluster(p.b).layer.contains_ops(Fabric::ops(3)));

  // T5 dies: B rebuilds over T3 + T4, keeping O3 and recruiting O5 by the
  // augmentation BFS, so it stays degraded with no memo.
  ASSERT_TRUE(p.f.manager->handle_tor_failure(Fabric::tor(5), p.f.builder).has_value());
  ASSERT_TRUE(p.f.cluster(p.b).degraded);
  ASSERT_FALSE(ReferencePlane::has_memo(*p.f.manager, p.b));
  ASSERT_TRUE(p.f.cluster(p.b).layer.contains_ops(Fabric::ops(3)));
  ASSERT_TRUE(ReferencePlane::has_memo(*p.f.manager, p.a));

  // Every restore rebuilds B, which reproduces its AL. O3 keeps its owner,
  // so A's footprint is unchanged and A is skipped.
  for (int round = 0; round < 2; ++round) {
    const VirtualCluster before = p.f.cluster(p.b);
    const std::uint64_t epoch = p.f.topo.mutation_epoch();
    const RestoreCounts counts = restore_counts();
    EXPECT_EQ(p.f.rebuilt_by_unrelated_recovery(2, 2), std::vector<ClusterId>{p.b});
    expect_restores(counts, 1, 1);
    EXPECT_EQ(p.f.cluster(p.b).layer.tors, before.layer.tors);
    EXPECT_EQ(p.f.cluster(p.b).layer.opss, before.layer.opss);
    EXPECT_TRUE(ReferencePlane::has_memo(*p.f.manager, p.a));
    // Only the two link flips moved the epoch: committing the AL B already
    // held bumped nothing.
    EXPECT_EQ(p.f.topo.mutation_epoch(), epoch + 2);
  }
  EXPECT_TRUE(p.f.manager->check_invariants().empty());
}

TEST(RebuildMemoTest, SwitchingBuildersRebuilds) {
  Fabric f(3, 3);
  f.link(0, 0);
  f.link(1, 1);
  f.link(2, 2);
  f.topo.connect_ops_ops(Fabric::ops(0), Fabric::ops(1));
  auto group = f.rack(0, 0);
  for (VmId vm : f.rack(1, 0)) group.push_back(vm);
  f.start();
  const ClusterId a = f.create(group, 0);
  ASSERT_TRUE(f.manager->handle_tor_failure(Fabric::tor(1), f.builder).has_value());
  ASSERT_TRUE(ReferencePlane::has_memo(*f.manager, a));

  // Same inputs, another builder: the memo describes the first builder's
  // output only.
  const ExactAlBuilder exact;
  const RestoreCounts counts = restore_counts();
  ASSERT_TRUE(f.manager->restore_degraded_clusters(exact).has_value());
  expect_restores(counts, 1, 0);
  // A copy carries its original's configuration, and with it the memo.
  const ExactAlBuilder copy = exact;
  const RestoreCounts again = restore_counts();
  ASSERT_TRUE(f.manager->restore_degraded_clusters(copy).has_value());
  expect_restores(again, 0, 1);
}

}  // namespace
}  // namespace alvc::cluster
