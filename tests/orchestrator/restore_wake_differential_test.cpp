// Differential proof that restricting restore passes to the listed
// clusters changes nothing but work: two identical data centers replay the
// same seeded events. One runs the production passes, which rebuild only
// the degraded clusters that a write listed as stale since their memo;
// the other forgets every memo before every event, so each of its passes
// rebuilds every degraded cluster in ascending id (the always-rebuild
// reference, tests/support/restore_probe.h). After EVERY event the two
// must agree on every cluster (VMs, AL, degraded and connected flags),
// every OPS ownership cell, the pending footprint writes and owner
// changes, the mutation epoch, every chain and the orchestrator's stats.
// Where both twins hold a memo, it names the same home ToRs; after a
// restore pass both list the same clusters, and between passes the
// production twin lists no cluster the reference does not. The production
// twin's bookkeeping must stay sound: a watch index listing exactly its
// memos' home ToRs, a listing of degraded clusters only, and no unlisted
// memo that no longer describes its cluster. 20 seeds over the fault_storm
// and multi-rack fabrics of rebuild_memo_differential_test, once through
// the orchestrator's fault handlers and once at the cluster layer with VM
// churn between faults (the manager's own writes). The last tests flood
// the pending lists between two passes, check each flood against the full
// walk, and check that membership writes list their cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "support/restore_probe.h"
#include "util/error.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::apply_fault;
using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultKind;
using alvc::faults::FaultScheduleParams;
using alvc::test::RestoreProbe;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;
using alvc::util::VmId;

constexpr std::uint64_t kSeeds = 20;
constexpr std::size_t kRacks = 24;
constexpr double kHorizonS = 60;

/// Even seeds: fault_storm's fabric at 24 racks (two racks per service,
/// ToR-OPS degree 3 over local uplink windows, no OPS core). Odd seeds:
/// three racks per service over half-random uplinks (degree 6, 48 OPSs)
/// and a random-regular OPS core, so rebuilds recruit OPSs through the
/// core. One single-function chain per cluster.
std::unique_ptr<core::DataCenter> make_dc(std::uint64_t seed) {
  const bool storm = seed % 2 == 0;
  core::DataCenterConfig config;
  config.topology.rack_count = kRacks;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = storm ? kRacks : 2 * kRacks;
  config.topology.tor_ops_degree = storm ? 3 : 6;
  config.topology.uplink_locality = storm ? 1.0 : 0.5;
  config.topology.core = storm ? topology::CoreKind::kNone : topology::CoreKind::kRandomRegular;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.service_count = storm ? kRacks / 2 : kRacks / 3;
  config.topology.server_local_services = true;
  config.topology.seed = 20160627 + seed;
  config.seed = seed;
  auto dc = std::make_unique<core::DataCenter>(config);
  auto clusters = dc->build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  for (std::uint32_t s = 0; s < config.topology.service_count; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0 + s % 2;
    spec.functions = {*dc->catalog().find_by_type(nfv::VnfType::kFirewall)};
    ALVC_IGNORE_STATUS(dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: a capacity conflict just means one chain fewer");
  }
  return dc;
}

/// MTBF/MTTR faults on every class, whole-AL and whole-rack outages and
/// flapping links, merged in time order.
std::vector<FaultEvent> make_schedule(const core::DataCenter& dc, std::uint64_t seed) {
  FaultScheduleParams params;
  params.ops = {.mtbf_s = 60, .mttr_s = 8};
  params.tor = {.mtbf_s = 120, .mttr_s = 8};
  params.server = {.mtbf_s = 150, .mttr_s = 6};
  params.link = {.mtbf_s = 80, .mttr_s = 5};
  params.horizon_s = kHorizonS;
  params.seed = seed;
  std::vector<FaultEvent> events = FaultInjector::generate(dc.topology(), params);
  const auto append = [&](const std::vector<FaultEvent>& more) {
    for (const FaultEvent& e : more) {
      if (e.time_s < kHorizonS) events.push_back(e);
    }
  };
  util::Rng rng(seed * 31 + 7);
  const auto clusters = dc.clusters().clusters();
  for (double t = 7; t < kHorizonS; t += 15) {
    append(FaultInjector::whole_al(*clusters[rng.uniform_index(clusters.size())], t, 8, 0.5));
  }
  for (double t = 11; t < kHorizonS; t += 20) {
    const TorId tor{static_cast<std::uint32_t>(rng.uniform_index(kRacks))};
    append(FaultInjector::whole_rack(dc.topology(), tor, t, 6));
  }
  for (int i = 0; i < 3; ++i) {
    const auto tor = static_cast<std::uint32_t>(rng.uniform_index(kRacks));
    const auto& uplinks = dc.topology().tor(TorId{tor}).uplinks;
    const std::uint32_t ops = uplinks[rng.uniform_index(uplinks.size())].value();
    for (double t = rng.uniform(0, 4); t + 1 < kHorizonS; t += 4) {
      events.push_back({.time_s = t, .kind = FaultKind::kLink, .failure = true, .id = tor,
                        .ops = ops});
      events.push_back({.time_s = t + 1, .kind = FaultKind::kLink, .failure = false, .id = tor,
                        .ops = ops});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

/// Compares the twins after an event; `after_pass` when it ran a restore
/// pass.
void expect_identical_clusters(cluster::ClusterManager& scoped,
                               cluster::ClusterManager& reference, bool after_pass) {
  const auto a = scoped.clusters();
  const auto b = reference.clusters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(a[i]->id.value()));
    ASSERT_EQ(a[i]->id, b[i]->id);
    EXPECT_EQ(a[i]->vms, b[i]->vms);
    EXPECT_EQ(a[i]->layer.tors, b[i]->layer.tors);
    EXPECT_EQ(a[i]->layer.opss, b[i]->layer.opss);
    EXPECT_EQ(a[i]->degraded, b[i]->degraded);
    EXPECT_EQ(a[i]->connected, b[i]->connected);
    if (RestoreProbe::has_memo(scoped, a[i]->id) && RestoreProbe::has_memo(reference, b[i]->id)) {
      EXPECT_EQ(RestoreProbe::memo_home_tors(scoped, a[i]->id),
                RestoreProbe::memo_home_tors(reference, b[i]->id));
    }
  }
  const cluster::OpsOwnership& oa = scoped.ownership();
  const cluster::OpsOwnership& ob = reference.ownership();
  ASSERT_EQ(oa.ops_count(), ob.ops_count());
  for (std::size_t o = 0; o < oa.ops_count(); ++o) {
    const OpsId ops{static_cast<std::uint32_t>(o)};
    EXPECT_EQ(oa.owner(ops), ob.owner(ops)) << "OPS " << o;
  }
  const auto owner_changes = [](const cluster::OpsOwnership& own) {
    return std::vector<OpsId>(own.pending_owner_changes().begin(),
                              own.pending_owner_changes().end());
  };
  const auto footprint_writes = [](const topology::DataCenterTopology& topo) {
    return std::vector<TorId>(topo.pending_footprint_tors().begin(),
                              topo.pending_footprint_tors().end());
  };
  EXPECT_EQ(owner_changes(oa), owner_changes(ob));
  EXPECT_EQ(footprint_writes(scoped.topology()), footprint_writes(reference.topology()));
  EXPECT_EQ(scoped.topology().mutation_epoch(), reference.topology().mutation_epoch());
  EXPECT_EQ(scoped.degraded_cluster_ids(), reference.degraded_cluster_ids());
  // The reference lists every degraded cluster until its pass rebuilds
  // them; after the pass the two listings agree.
  const auto listed = RestoreProbe::listing(scoped);
  const auto reference_listed = RestoreProbe::listing(reference);
  if (after_pass) {
    EXPECT_EQ(listed, reference_listed);
  } else {
    EXPECT_TRUE(std::includes(reference_listed.begin(), reference_listed.end(), listed.begin(),
                              listed.end()));
  }
  EXPECT_EQ(RestoreProbe::bookkeeping_violations(scoped), std::vector<ClusterId>{});
  EXPECT_TRUE(scoped.check_invariants().empty());
  EXPECT_TRUE(reference.check_invariants().empty());
}

void expect_identical_chains(const NetworkOrchestrator& scoped,
                             const NetworkOrchestrator& reference) {
  const auto a = scoped.chains();
  const auto b = reference.chains();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("chain " + std::to_string(a[i]->record.id.value()));
    ASSERT_EQ(a[i]->record.id, b[i]->record.id);
    EXPECT_EQ(a[i]->route.vertices, b[i]->route.vertices);
    EXPECT_EQ(a[i]->route.legs, b[i]->route.legs);
    EXPECT_EQ(a[i]->placement.hosts, b[i]->placement.hosts);
    EXPECT_EQ(a[i]->flow_rules, b[i]->flow_rules);
    EXPECT_DOUBLE_EQ(a[i]->reserved_gbps, b[i]->reserved_gbps);
    EXPECT_EQ(a[i]->degraded, b[i]->degraded);
  }
  EXPECT_EQ(scoped.stats().chains_repaired, reference.stats().chains_repaired);
  EXPECT_EQ(scoped.stats().chains_degraded, reference.stats().chains_degraded);
  EXPECT_EQ(scoped.stats().chains_restored, reference.stats().chains_restored);
  EXPECT_EQ(scoped.stats().vnfs_relocated, reference.stats().vnfs_relocated);
  EXPECT_EQ(scoped.retry_queue_size(), reference.retry_queue_size());
  EXPECT_EQ(scoped.control_log().size(), reference.control_log().size());
}

std::string describe(const FaultEvent& event) {
  return "t=" + std::to_string(event.time_s) + " " +
         std::string(alvc::faults::to_string(event.kind)) + " id=" + std::to_string(event.id) +
         (event.failure ? " failure" : " repair");
}

TEST(RestoreWakeDifferentialTest, ScopedRestoreMatchesTheFullWalkOver20Seeds) {
  std::size_t events_total = 0;
  std::size_t skipping_recoveries = 0;  // recoveries whose pass left a memo'd cluster out
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto scoped = make_dc(seed);
    auto reference = make_dc(seed);
    ASSERT_FALSE(scoped->orchestrator().chains().empty());
    const auto schedule = make_schedule(*scoped, seed);
    ASSERT_FALSE(schedule.empty());

    for (const FaultEvent& event : schedule) {
      ++events_total;
      RestoreProbe::forget_all(reference->clusters());
      const std::uint64_t passes = RestoreProbe::pass_count(scoped->clusters());
      const bool memos_unlisted = RestoreProbe::listing(scoped->clusters()).size() <
                                  scoped->clusters().degraded_cluster_ids().size();
      const auto ra = apply_fault(scoped->orchestrator(), event);
      const auto rb = apply_fault(reference->orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        ASSERT_EQ(*ra, *rb);
      }
      const bool after_pass = RestoreProbe::pass_count(scoped->clusters()) != passes;
      if (after_pass && memos_unlisted) ++skipping_recoveries;
      expect_identical_clusters(scoped->clusters(), reference->clusters(), after_pass);
      expect_identical_chains(scoped->orchestrator(), reference->orchestrator());
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at " << describe(event);
      }
    }
    EXPECT_TRUE(faults::StateAuditor::audit(scoped->orchestrator()).empty());
    EXPECT_TRUE(faults::StateAuditor::audit(reference->orchestrator()).empty());
  }
  // Not vacuous: most recoveries found unlisted memos to skip.
  EXPECT_GT(events_total, 3000u);
  EXPECT_GT(skipping_recoveries, 1000u);
}

/// One cluster-layer step: a fault event through the manager's own
/// handlers, with `builder` for rebuilds.
void apply_to_manager(cluster::ClusterManager& manager, const cluster::AlBuilder& builder,
                      const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kOps:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_ops_failure(OpsId{event.id})
                                       : manager.handle_ops_recovery(OpsId{event.id}, builder),
                         "an infeasible repair leaves the cluster degraded on both twins");
      return;
    case FaultKind::kTor:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_tor_failure(TorId{event.id}, builder)
                                       : manager.handle_tor_recovery(TorId{event.id}, builder),
                         "an infeasible repair leaves the cluster degraded on both twins");
      return;
    case FaultKind::kServer:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_server_failure(ServerId{event.id})
                                       : manager.handle_server_recovery(ServerId{event.id}),
                         "ids come from the topology the schedule was drawn over");
      return;
    case FaultKind::kLink:
      ALVC_IGNORE_STATUS(
          event.failure ? manager.handle_link_failure(TorId{event.id}, OpsId{event.ops})
                        : manager.handle_link_recovery(TorId{event.id}, OpsId{event.ops}, builder),
          "an infeasible repair leaves the cluster degraded on both twins");
      return;
  }
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
    auto scoped = make_dc(seed);
    auto reference = make_dc(seed);
    cluster::VertexCoverAlBuilder scoped_builder;
    cluster::VertexCoverAlBuilder reference_builder;
    const auto schedule = make_schedule(*scoped, seed);
    Churn churn(seed);
    cluster::ClusterManager* const managers[] = {&scoped->clusters(), &reference->clusters()};
    for (const FaultEvent& event : schedule) {
      RestoreProbe::forget_all(reference->clusters());
      if (churn.rng.bernoulli(0.5)) {
        churn.step(managers);
        ++churn_steps;
      }
      const std::uint64_t passes = RestoreProbe::pass_count(scoped->clusters());
      apply_to_manager(scoped->clusters(), scoped_builder, event);
      apply_to_manager(reference->clusters(), reference_builder, event);
      expect_identical_clusters(scoped->clusters(), reference->clusters(),
                                RestoreProbe::pass_count(scoped->clusters()) != passes);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at " << describe(event);
      }
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
    EXPECT_EQ(RestoreProbe::memo_count(*manager), 1 + bystanders);
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
  RestoreProbe::forget_all(*full.manager);
  const auto rebuilt = scoped.rebuilt_by_pass();
  EXPECT_EQ(full.rebuilt_by_pass().size(), degraded);
  expect_identical_clusters(*scoped.manager, *full.manager, /*after_pass=*/true);
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
