// Differential proof that restricting restore passes to the listed
// clusters changes nothing but work: a production plane, whose passes
// rebuild only the degraded clusters a write listed as stale since their
// memo, and the reference twin of tests/support/reference_plane.h, which
// forgets every memo before every event and so rebuilds every degraded
// cluster in ascending id, replay the same seeded events and must agree
// after every event (the harness also checks production's restore
// bookkeeping). 20 seeds over the storm and core fabrics, once through the
// orchestrator's fault handlers and once at the cluster layer with VM
// churn between faults (the manager's own writes). The last tests flood
// the pending lists between two passes, check each flood against the full
// walk, and check that membership writes list their cluster.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "support/fixtures.h"
#include "support/reference_plane.h"
#include "util/error.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;
using alvc::test::ReferencePlane;
using alvc::test::ScopingFabric;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;
using alvc::util::VmId;

constexpr std::uint64_t kSeeds = 20;

/// Even seeds: the storm fabric; odd seeds: half-random uplinks over an
/// OPS core, where rebuilds recruit OPSs through the core.
ScopingFabric fabric_for(std::uint64_t seed) {
  return seed % 2 == 0 ? ScopingFabric::kStorm : ScopingFabric::kHalfRandomCore;
}

TEST(RestoreWakeDifferentialTest, ScopedRestoreMatchesTheFullWalkOver20Seeds) {
  alvc::test::ReplayTally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto production = alvc::test::make_scoping_fabric(fabric_for(seed), seed);
    auto reference = alvc::test::make_scoping_fabric(fabric_for(seed), seed);
    ASSERT_FALSE(production->orchestrator().chains().empty());
    const auto schedule = alvc::test::make_scoping_schedule(*production, seed, 80);
    tally += alvc::test::replay(*production, *reference, schedule);
    if (HasFailure()) return;
  }
  // Not vacuous: most recoveries found unlisted memos to skip.
  EXPECT_GT(tally.events, 3000u);
  EXPECT_GT(tally.skipping_passes, 1000u);
}

/// VM churn the schedule does not hold: a migration, or a VM leaving its
/// cluster (to rejoin at the next churn step that draws it). Identical
/// on both twins: every choice comes from `rng` and the shared ids.
struct Churn {
  util::Rng rng;
  std::vector<std::pair<VmId, ClusterId>> parked;  // VMs out of their cluster

  explicit Churn(std::uint64_t seed) : rng(seed * 977 + 3) {}

  /// Draws one step and applies it to every manager in `managers`.
  void step(std::span<cluster::ClusterManager* const> managers) {
    const cluster::ClusterManager& first = *managers.front();
    const auto clusters = first.clusters();
    const auto& vc = *clusters[rng.uniform_index(clusters.size())];
    const std::size_t kind = rng.uniform_index(3);
    if (kind == 0 && !parked.empty()) {
      const auto [vm, id] = parked.back();
      parked.pop_back();
      for (cluster::ClusterManager* m : managers) {
        ALVC_IGNORE_STATUS(m->add_vm(id, vm), "a refused join refuses on both twins");
      }
      return;
    }
    if (vc.vms.size() < 2) return;
    const VmId vm = vc.vms[rng.uniform_index(vc.vms.size())];
    if (kind == 1) {
      parked.emplace_back(vm, vc.id);
      for (cluster::ClusterManager* m : managers) {
        ALVC_IGNORE_STATUS(m->remove_vm(vc.id, vm), "the VM is a member on both twins");
      }
      return;
    }
    const ServerId target{
        static_cast<std::uint32_t>(rng.uniform_index(first.topology().server_count()))};
    for (cluster::ClusterManager* m : managers) {
      ALVC_IGNORE_STATUS(m->migrate_vm(vc.id, vm, target), "a refused move refuses on both twins");
    }
  }
};

TEST(RestoreWakeDifferentialTest, ScopedRestoreMatchesTheFullWalkUnderVmChurnOver20Seeds) {
  std::size_t churn_steps = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto production = alvc::test::make_scoping_fabric(fabric_for(seed), seed);
    auto reference = alvc::test::make_scoping_fabric(fabric_for(seed), seed);
    cluster::VertexCoverAlBuilder production_builder;
    cluster::VertexCoverAlBuilder reference_builder;
    const auto schedule = alvc::test::make_scoping_schedule(*production, seed, 80);
    Churn churn(seed);
    cluster::ClusterManager* const managers[] = {&production->clusters(), &reference->clusters()};
    for (const FaultEvent& event : schedule) {
      if (churn.rng.bernoulli(0.5)) {
        churn.step(managers);
        ++churn_steps;
      }
      const std::uint64_t passes = ReferencePlane::pass_count(production->clusters());
      alvc::test::apply_to_manager(production->clusters(), production_builder, event);
      ReferencePlane::apply(reference->clusters(), reference_builder, event);
      alvc::test::expect_identical_clusters(
          production->clusters(), reference->clusters(),
          /*between_passes=*/ReferencePlane::pass_count(production->clusters()) == passes);
      alvc::test::expect_sound(production->clusters());
      if (HasFailure()) FAIL() << "first divergence at " << alvc::test::describe(event);
    }
  }
  EXPECT_GT(churn_steps, 1000u);
}

/// The rebuild_memo_test fabric: A over T0 (uplink O0) and T1 (O1),
/// joined through the core link O0-O1; T2-O2 and T3-O3 carry no cluster.
/// With `neighbour`, T0 also uplinks O3 and B over T3 takes O3 (T3's only
/// uplink) before A is built, so B's OPS lies in A's footprint. T1 dies,
/// so A rebuilds over T0's VMs by a local build and stays degraded with a
/// memo. `bystanders` more clusters are built the same way on racks of
/// their own and held degraded likewise. A first pass then skips them all.
struct Fabric {
  topology::DataCenterTopology topo;
  cluster::VertexCoverAlBuilder builder;
  std::unique_ptr<cluster::ClusterManager> manager;
  ClusterId a;
  ClusterId b;

  explicit Fabric(bool neighbour = false, std::uint32_t bystanders = 0) {
    for (std::uint32_t i = 0; i < 4 + 2 * bystanders; ++i) {
      topo.add_ops();
      topo.add_tor();
      link(i, i);
    }
    if (neighbour) link(0, 3);
    topo.connect_ops_ops(OpsId{0}, OpsId{1});
    auto group = rack(0, 0);
    for (VmId vm : rack(1, 0)) group.push_back(vm);
    const auto group_b = rack(3, 1);
    std::vector<std::vector<VmId>> groups;
    for (std::uint32_t i = 0; i < bystanders; ++i) {
      const std::uint32_t t = 4 + 2 * i;
      topo.connect_ops_ops(OpsId{t}, OpsId{t + 1});
      groups.push_back(rack(t, 3 + i));
      for (VmId vm : rack(t + 1, 3 + i)) groups.back().push_back(vm);
    }
    manager = std::make_unique<cluster::ClusterManager>(topo);
    if (neighbour) b = *manager->create_cluster(util::ServiceId{1}, group_b, builder);
    a = *manager->create_cluster(util::ServiceId{0}, group, builder);
    EXPECT_TRUE(manager->handle_tor_failure(TorId{1}, builder).has_value());
    for (std::uint32_t i = 0; i < bystanders; ++i) {
      EXPECT_TRUE(manager->create_cluster(util::ServiceId{3 + i}, groups[i], builder));
      EXPECT_TRUE(manager->handle_tor_failure(TorId{5 + 2 * i}, builder).has_value());
    }
    EXPECT_EQ(manager->degraded_cluster_ids().size(), 1 + bystanders);
    EXPECT_EQ(ReferencePlane::memo_count(*manager), 1 + bystanders);
    EXPECT_EQ(rebuilt_by_pass(), std::vector<ClusterId>{}) << "nothing moved yet";
  }
  void link(std::uint32_t t, std::uint32_t o) { topo.connect_tor_ops(TorId{t}, OpsId{o}); }
  std::vector<VmId> rack(std::uint32_t t, std::uint32_t service) {
    const ServerId server =
        topo.add_server(TorId{t}, {.cpu_cores = 8, .memory_gb = 32, .storage_gb = 256});
    return {topo.add_vm(server, util::ServiceId{service}),
            topo.add_vm(server, util::ServiceId{service})};
  }
  std::vector<ClusterId> rebuilt_by_pass() {
    std::vector<ClusterId> touched;
    EXPECT_TRUE(manager->restore_degraded_clusters(builder, &touched).has_value());
    return touched;
  }
};

// Between two passes, more than 4096 owner changes (C churning its only
// VM in and out over T2) and more than 4096 footprint writes (flips of the
// T2-O2 link, in no memo's footprint) bury two writes that reach A: B's
// release of O3, an uplink of A's home ToR T0, and a raw repair of T1, a
// home ToR of A. The pending lists hold each element once, so nothing is
// lost: the pass rebuilds A and skips every bystander the flood did not
// reach.
TEST(RestoreWakeJournalTest, WriteFloodRebuildsOnlyTheClustersItReached) {
  constexpr std::uint32_t kBystanders = 64;
  constexpr std::size_t kFlood = 4098;  // even: the flipped link ends up
  Fabric f(/*neighbour=*/true, kBystanders);
  ASSERT_EQ(f.manager->find(f.b)->layer.opss, std::vector<OpsId>{OpsId{3}});
  const auto c_vms = f.rack(2, 2);
  const ClusterId c = *f.manager->create_cluster(util::ServiceId{2}, {c_vms.data(), 1}, f.builder);
  ASSERT_TRUE(f.manager->destroy_cluster(f.b).is_ok());
  ASSERT_TRUE(f.topo.set_tor_failed(TorId{1}, false).is_ok());
  for (std::size_t i = 0; i < kFlood / 2; ++i) {
    ASSERT_TRUE(f.manager->remove_vm(c, c_vms[0]).has_value());
    ASSERT_TRUE(f.manager->add_vm(c, c_vms[0]).has_value());
  }
  for (std::size_t i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(f.topo.set_link_failed(TorId{2}, OpsId{2}, i % 2 == 0).is_ok());
  }
  EXPECT_EQ(f.topo.pending_footprint_tors().size(), 2u) << "T1 and T2, once each";
  EXPECT_EQ(f.manager->ownership().pending_owner_changes().size(), 2u) << "O3 and O2, once each";
  EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a});
  EXPECT_FALSE(f.manager->find(f.a)->degraded) << "T1 is back: A covers its whole group";
  EXPECT_EQ(f.manager->degraded_cluster_ids().size(), kBystanders) << "every bystander skipped";
  EXPECT_EQ(f.manager->check_invariants(), std::vector<std::string>{});
}

// The three tests below keep the names they had when two 4096-entry ring
// journals fed the wake set and a pass fell back to the full walk once a
// journal overran or its window grew long. Each floods the pending lists
// as its namesake did, on a production fabric and on a twin whose memos
// are forgotten before the pass (the full walk: it rebuilds every degraded
// cluster). The production pass must rebuild only what the writes reached
// and leave every cluster as the full walk does.
constexpr std::size_t kFormerJournalCapacity = 4096;

/// Runs `writes` on both twins, then one pass on each; checks that the
/// full walk rebuilt every degraded cluster and that both passes agree.
/// Returns the clusters the production pass rebuilt.
template <class Writes>
std::vector<ClusterId> rebuilt_next_to_the_full_walk(Fabric& scoped, Fabric& full,
                                                     Writes writes) {
  writes(scoped);
  writes(full);
  const std::size_t degraded = full.manager->degraded_cluster_ids().size();
  ReferencePlane::forget_all(*full.manager);
  const auto rebuilt = scoped.rebuilt_by_pass();
  EXPECT_EQ(full.rebuilt_by_pass().size(), degraded);
  alvc::test::expect_identical_clusters(*scoped.manager, *full.manager);
  alvc::test::expect_sound(*scoped.manager);
  return rebuilt;
}

// B's OPS O3 uplinks T0, a home ToR of A: B's release is a write to A's
// footprint that only the pending owner changes report, however many
// owner changes (C churning its only VM in and out over T2) follow it.
TEST(RestoreWakeJournalTest, OwnerJournalOverrunFallsBackToTheFullWalk) {
  constexpr std::uint32_t kBystanders = 64;
  for (const bool overrun : {false, true}) {
    SCOPED_TRACE(overrun ? "past the former journal" : "within the former journal");
    Fabric scoped(/*neighbour=*/true, kBystanders);
    Fabric full(/*neighbour=*/true, kBystanders);
    ASSERT_EQ(scoped.manager->find(scoped.b)->layer.opss, std::vector<OpsId>{OpsId{3}});
    const std::size_t rounds = overrun ? kFormerJournalCapacity / 2 + 1 : 8;
    const auto rebuilt = rebuilt_next_to_the_full_walk(scoped, full, [&](Fabric& f) {
      ASSERT_TRUE(f.manager->destroy_cluster(f.b).is_ok());
      const auto c_vms = f.rack(2, 2);
      const ClusterId c =
          *f.manager->create_cluster(util::ServiceId{2}, {c_vms.data(), 1}, f.builder);
      for (std::size_t i = 0; i < rounds; ++i) {
        ASSERT_TRUE(f.manager->remove_vm(c, c_vms[0]).has_value());
        ASSERT_TRUE(f.manager->add_vm(c, c_vms[0]).has_value());
      }
      EXPECT_EQ(f.manager->ownership().pending_owner_changes().size(), 2u)
          << "O3 and O2, once each";
    });
    EXPECT_EQ(rebuilt, std::vector<ClusterId>{scoped.a})
        << "O3's release changed an owner in A's footprint";
    EXPECT_EQ(scoped.manager->degraded_cluster_ids().size(), 1 + kBystanders);
  }
}

// A raw repair of T1, a home ToR of A, that no pass follows, then flips of
// the T2-O2 link, in no memo's footprint.
TEST(RestoreWakeJournalTest, FootprintJournalOverrunFallsBackToTheFullWalk) {
  constexpr std::uint32_t kBystanders = 64;
  for (const bool overrun : {false, true}) {
    SCOPED_TRACE(overrun ? "past the former journal" : "within the former journal");
    Fabric scoped(/*neighbour=*/false, kBystanders);
    Fabric full(/*neighbour=*/false, kBystanders);
    const std::size_t flips = overrun ? kFormerJournalCapacity : 8;
    const auto rebuilt = rebuilt_next_to_the_full_walk(scoped, full, [&](Fabric& f) {
      ASSERT_TRUE(f.topo.set_tor_failed(TorId{1}, false).is_ok());
      for (std::size_t i = 0; i < flips; ++i) {
        ASSERT_TRUE(f.topo.set_link_failed(TorId{2}, OpsId{2}, i % 2 == 0).is_ok());
      }
      EXPECT_EQ(f.topo.pending_footprint_tors().size(), 2u) << "T1 and T2, once each";
    });
    EXPECT_EQ(rebuilt, std::vector<ClusterId>{scoped.a});
    EXPECT_FALSE(scoped.manager->find(scoped.a)->degraded)
        << "T1 is back: A covers its whole group";
    EXPECT_EQ(scoped.manager->degraded_cluster_ids().size(), kBystanders)
        << "every bystander skipped";
  }
}

// Many more writes between two passes than degraded clusters: the pass
// still rebuilds exactly what the full walk rebuilds (here A, the only
// degraded cluster) and leaves the same state.
TEST(RestoreWakeJournalTest, LongWindowTakesTheFullWalk) {
  Fabric scoped;
  Fabric full;
  const auto rebuilt = rebuilt_next_to_the_full_walk(scoped, full, [](Fabric& f) {
    ASSERT_TRUE(f.topo.set_tor_failed(TorId{1}, false).is_ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(f.topo.set_link_failed(TorId{2}, OpsId{2}, i % 2 == 0).is_ok());
    }
  });
  EXPECT_EQ(rebuilt, std::vector<ClusterId>{scoped.a});
  EXPECT_FALSE(scoped.manager->find(scoped.a)->degraded);
}

// The manager's own writes reach no pending list: a VM joining or leaving
// a degraded cluster must still list it.
TEST(RestoreWakeJournalTest, MembershipWritesWakeTheCluster) {
  Fabric f;
  const auto extra = f.rack(0, 0);
  ASSERT_TRUE(f.manager->add_vm(f.a, extra[0]).has_value());
  EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a}) << "add_vm";
  ASSERT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{}) << "memo recorded again";
  ASSERT_TRUE(f.manager->remove_vm(f.a, extra[0]).has_value());
  EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a}) << "remove_vm";
}

}  // namespace
}  // namespace alvc::orchestrator
