// Differential proof that scoping restore passes to their wake set changes
// nothing but work: two identical data centers replay the same seeded
// events. One runs the production passes, which check only the degraded
// clusters a write since the previous pass began can have reached; the
// other is forced onto the full walk before every event, so each of its
// passes checks every degraded cluster in ascending id, as before the wake
// set existed (tests/support/restore_wake_probe.h). After EVERY event the
// two must agree on every cluster (VMs, AL, degraded and connected flags,
// rebuild memo), every OPS ownership cell with its stamp and the ownership
// clock, the footprint clock and mutation epoch, every chain and the
// orchestrator's stats; the production twin's watch index must list
// exactly its memos' home ToRs. 20 seeds over the fault_storm and
// multi-rack fabrics of rebuild_memo_differential_test, once through the
// orchestrator's fault handlers and once at the cluster layer with VM
// churn between faults (the manager's own writes, which reach no journal).
// The last tests overrun each journal between two passes and check that
// the pass falls back to the full walk.
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
#include "support/rebuild_memo_probe.h"
#include "support/restore_wake_probe.h"
#include "telemetry/telemetry.h"
#include "util/error.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::apply_fault;
using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultKind;
using alvc::faults::FaultScheduleParams;
using alvc::test::RebuildMemoProbe;
using alvc::test::RestoreWakeProbe;
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

void expect_identical_clusters(const cluster::ClusterManager& scoped,
                               const cluster::ClusterManager& reference) {
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
    EXPECT_EQ(RebuildMemoProbe::has_memo(scoped, a[i]->id),
              RebuildMemoProbe::has_memo(reference, b[i]->id));
  }
  const cluster::OpsOwnership& oa = scoped.ownership();
  const cluster::OpsOwnership& ob = reference.ownership();
  ASSERT_EQ(oa.ops_count(), ob.ops_count());
  for (std::size_t o = 0; o < oa.ops_count(); ++o) {
    const OpsId ops{static_cast<std::uint32_t>(o)};
    EXPECT_EQ(oa.owner(ops), ob.owner(ops)) << "OPS " << o;
    EXPECT_EQ(oa.stamp(ops), ob.stamp(ops)) << "OPS " << o;
  }
  EXPECT_EQ(oa.clock(), ob.clock());
  EXPECT_EQ(scoped.topology().footprint_clock(), reference.topology().footprint_clock());
  EXPECT_EQ(scoped.topology().mutation_epoch(), reference.topology().mutation_epoch());
  EXPECT_EQ(scoped.degraded_cluster_ids(), reference.degraded_cluster_ids());
  EXPECT_EQ(RestoreWakeProbe::watch_index_violations(scoped), std::vector<ClusterId>{});
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
#if ALVC_TELEMETRY_ENABLED
  auto& scoped_passes =
      telemetry::MetricRegistry::global().counter("cluster.restore.scoped_passes");
  const std::uint64_t scoped_before = scoped_passes.value();
#endif
  std::size_t events_total = 0;
  std::size_t scoped_recoveries = 0;  // recoveries whose pass could scope, memos present
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto scoped = make_dc(seed);
    auto reference = make_dc(seed);
    ASSERT_FALSE(scoped->orchestrator().chains().empty());
    const auto schedule = make_schedule(*scoped, seed);
    ASSERT_FALSE(schedule.empty());

    for (const FaultEvent& event : schedule) {
      ++events_total;
      RestoreWakeProbe::force_full_walk(reference->clusters());
      if (!event.failure && RestoreWakeProbe::last_pass_recorded(scoped->clusters()) &&
          RebuildMemoProbe::memo_count(scoped->clusters()) > 0) {
        ++scoped_recoveries;
      }
      const auto ra = apply_fault(scoped->orchestrator(), event);
      const auto rb = apply_fault(reference->orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        ASSERT_EQ(*ra, *rb);
      }
      expect_identical_clusters(scoped->clusters(), reference->clusters());
      expect_identical_chains(scoped->orchestrator(), reference->orchestrator());
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at " << describe(event);
      }
    }
    EXPECT_TRUE(faults::StateAuditor::audit(scoped->orchestrator()).empty());
    EXPECT_TRUE(faults::StateAuditor::audit(reference->orchestrator()).empty());
  }
  // Not vacuous: most recoveries found memos to skip, and the production
  // twin's passes took the scoped walk (the reference's never do).
  EXPECT_GT(events_total, 3000u);
  EXPECT_GT(scoped_recoveries, 1000u);
#if ALVC_TELEMETRY_ENABLED
  EXPECT_GT(scoped_passes.value() - scoped_before, 1000u);
#endif
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
      RestoreWakeProbe::force_full_walk(reference->clusters());
      if (churn.rng.bernoulli(0.5)) {
        churn.step(managers);
        ++churn_steps;
      }
      apply_to_manager(scoped->clusters(), scoped_builder, event);
      apply_to_manager(reference->clusters(), reference_builder, event);
      expect_identical_clusters(scoped->clusters(), reference->clusters());
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
/// their own and held degraded likewise, so that a pass may read more
/// journal entries before the full walk is the cheaper one. A first pass
/// then skips them all and records where it began.
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
    EXPECT_EQ(RebuildMemoProbe::memo_count(*manager), 1 + bystanders);
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
  /// True when a pass may read `entries` journal entries and still take
  /// the scoped walk.
  [[nodiscard]] bool scoped_walk_affordable(std::uint64_t entries) const {
    return entries <= cluster::ClusterManager::kWakeReadsPerCheck *
                          manager->degraded_cluster_ids().size();
  }
};

// Enough degraded bystanders that a pass may read a whole journal and
// more before the full walk is the cheaper one: the overrun, not the cost
// bound, must be what sends the pass back to the full walk.
constexpr std::uint32_t kBystanders = 600;

// B's OPS O3 uplinks T0, a home ToR of A: B's release is a write to A's
// footprint that only the owner journal reports.
TEST(RestoreWakeJournalTest, OwnerJournalOverrunFallsBackToTheFullWalk) {
  for (const bool overrun : {false, true}) {
    SCOPED_TRACE(overrun ? "overrun" : "within the journal");
    Fabric f(/*neighbour=*/true, kBystanders);
    ASSERT_EQ(f.manager->find(f.b)->layer.opss, std::vector<OpsId>{OpsId{3}});
    const std::uint64_t since = f.manager->ownership().clock();
    ASSERT_TRUE(f.manager->destroy_cluster(f.b).is_ok());
    // C over T2 churns its only VM in and out: two owner changes of O2 a
    // round, no footprint stamp.
    const auto c_vms = f.rack(2, 2);
    const ClusterId c =
        *f.manager->create_cluster(util::ServiceId{2}, {c_vms.data(), 1}, f.builder);
    const std::size_t rounds = overrun ? cluster::OpsOwnership::kJournalCapacity / 2 + 1 : 8;
    for (std::size_t i = 0; i < rounds; ++i) {
      ASSERT_TRUE(f.manager->remove_vm(c, c_vms[0]).has_value());
      ASSERT_TRUE(f.manager->add_vm(c, c_vms[0]).has_value());
    }
    EXPECT_EQ(f.manager->ownership().journal_holds(since), !overrun);
    ASSERT_TRUE(f.scoped_walk_affordable(f.manager->ownership().clock() - since));
    EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a})
        << "O3's release moved an owner stamp in A's footprint";
  }
}

TEST(RestoreWakeJournalTest, FootprintJournalOverrunFallsBackToTheFullWalk) {
  for (const bool overrun : {false, true}) {
    SCOPED_TRACE(overrun ? "overrun" : "within the journal");
    Fabric f(/*neighbour=*/false, kBystanders);
    const std::uint64_t since = f.topo.footprint_clock();
    // A raw repair of T1, A's home ToR, that no pass follows...
    ASSERT_TRUE(f.topo.set_tor_failed(TorId{1}, false).is_ok());
    // ...then flips of a link in no footprint push it out of the journal.
    const std::size_t flips =
        overrun ? topology::DataCenterTopology::kFootprintJournalCapacity : 8;
    for (std::size_t i = 0; i < flips; ++i) {
      ASSERT_TRUE(f.topo.set_link_failed(TorId{2}, OpsId{2}, i % 2 == 0).is_ok());
    }
    EXPECT_EQ(f.topo.footprint_journal_holds(since), !overrun);
    ASSERT_TRUE(f.scoped_walk_affordable(f.topo.footprint_clock() - since));
    EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a});
    EXPECT_FALSE(f.manager->find(f.a)->degraded) << "T1 is back: A covers its whole group";
  }
}

// A pass with more journal entries to read than the degraded clusters
// justify takes the full walk, and still rebuilds what the writes reached.
TEST(RestoreWakeJournalTest, LongWindowTakesTheFullWalk) {
  Fabric f;
  ASSERT_TRUE(f.topo.set_tor_failed(TorId{1}, false).is_ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(f.topo.set_link_failed(TorId{2}, OpsId{2}, i % 2 == 0).is_ok());
  }
  ASSERT_FALSE(f.scoped_walk_affordable(65));
#if ALVC_TELEMETRY_ENABLED
  auto& scoped_passes =
      telemetry::MetricRegistry::global().counter("cluster.restore.scoped_passes");
  const std::uint64_t scoped_before = scoped_passes.value();
#endif
  EXPECT_EQ(f.rebuilt_by_pass(), std::vector<ClusterId>{f.a});
#if ALVC_TELEMETRY_ENABLED
  EXPECT_EQ(scoped_passes.value(), scoped_before);
#endif
}

// The manager's own writes reach no journal: a VM joining or leaving a
// degraded cluster must still wake it.
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
