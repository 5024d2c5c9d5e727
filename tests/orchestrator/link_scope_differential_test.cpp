// Differential proof that scoping a link failure to the AL that rides the
// link changes nothing but work: two identical data centers replay the same
// seeded fault schedule. One runs the production handlers. The other runs
// every link failure through the unscoped reference walk, which repairs and
// sweeps every cluster whose AL holds the ToR (tests/support/
// link_scope_probe.h); every other event goes through the production
// handlers on both. After EVERY event the two must agree on every cluster
// (VMs, AL, degraded and connected flags), the OPS ownership registry and
// its pending owner changes, the ToR index, the topology's mutation epoch, every chain
// (hosts, route, reserved bandwidth, degraded flag), the orchestrator's
// stats and the control-log size; the production twin must pass
// StateAuditor and leave no chain that a sweep would still act on
// (tests/support/sweep_probe.h). 20 seeds: even seeds use fault_storm's
// fabric, odd seeds random uplinks with clusters held degraded behind dead
// racks from the start.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "support/link_scope_probe.h"
#include "support/sweep_probe.h"
#include "util/error.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::apply_fault;
using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultKind;
using alvc::faults::FaultScheduleParams;
using alvc::test::LinkScopeProbe;
using alvc::test::SweepProbe;
using alvc::util::ClusterId;
using alvc::util::OpsId;
using alvc::util::TorId;

constexpr std::uint64_t kSeeds = 20;
constexpr std::size_t kRacks = 24;
constexpr double kHorizonS = 60;

/// Even seeds: fault_storm's fabric at 24 racks — 2 servers per rack, two
/// racks per service, ToR-OPS degree 3 over local uplink windows, no OPS
/// core, so most uplinks are in no AL. Odd seeds: three racks per service
/// over half-random uplinks (degree 6, 48 OPSs) and a random-regular
/// OPS core, with one rack of every third cluster failed before the
/// schedule starts, so degraded clusters sit on many racks' index lists.
/// One single-function chain per cluster.
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
  if (!storm) {
    const auto all = dc->clusters().clusters();
    for (std::size_t i = 0; i < all.size(); i += 3) {
      if (all[i]->layer.tors.empty()) continue;
      ALVC_IGNORE_STATUS(dc->orchestrator().handle_tor_failure(all[i]->layer.tors.back()),
                         "the rack id comes from a live AL");
    }
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
  params.link = {.mtbf_s = 40, .mttr_s = 5};
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

/// Link failures through the unscoped reference walk, everything else
/// through the production handlers.
util::Expected<std::size_t> apply_reference(NetworkOrchestrator& orchestrator,
                                            const FaultEvent& event) {
  if (event.kind == FaultKind::kLink && event.failure) {
    return LinkScopeProbe::sweep_every_cluster(orchestrator, TorId{event.id}, OpsId{event.ops});
  }
  return apply_fault(orchestrator, event);
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
  }
  ASSERT_EQ(scoped.ownership().ops_count(), reference.ownership().ops_count());
  for (std::size_t o = 0; o < scoped.ownership().ops_count(); ++o) {
    const OpsId ops{static_cast<std::uint32_t>(o)};
    EXPECT_EQ(scoped.ownership().owner(ops), reference.ownership().owner(ops)) << "OPS " << o;
  }
  const auto owner_changes = [](const cluster::ClusterManager& manager) {
    const auto pending = manager.ownership().pending_owner_changes();
    return std::vector<OpsId>(pending.begin(), pending.end());
  };
  EXPECT_EQ(owner_changes(scoped), owner_changes(reference));
  const auto& topo = scoped.topology();
  for (std::size_t t = 0; t < topo.tor_count(); ++t) {
    const TorId tor{static_cast<std::uint32_t>(t)};
    EXPECT_EQ(scoped.clusters_containing_tor(tor), reference.clusters_containing_tor(tor))
        << "ToR " << t;
  }
  EXPECT_EQ(topo.mutation_epoch(), reference.topology().mutation_epoch());
  EXPECT_EQ(scoped.degraded_cluster_ids(), reference.degraded_cluster_ids());
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
  const OrchestratorStats& sa = scoped.stats();
  const OrchestratorStats& sb = reference.stats();
  EXPECT_EQ(sa.chains_provisioned, sb.chains_provisioned);
  EXPECT_EQ(sa.chains_torn_down, sb.chains_torn_down);
  EXPECT_EQ(sa.provision_failures, sb.provision_failures);
  EXPECT_EQ(sa.chains_repaired, sb.chains_repaired);
  EXPECT_EQ(sa.chains_lost, sb.chains_lost);
  EXPECT_EQ(sa.vnfs_relocated, sb.vnfs_relocated);
  EXPECT_EQ(sa.chains_degraded, sb.chains_degraded);
  EXPECT_EQ(sa.chains_restored, sb.chains_restored);
  EXPECT_EQ(sa.chains_admitted_downgraded, sb.chains_admitted_downgraded);
  EXPECT_EQ(sa.alloc_rebalances, sb.alloc_rebalances);
  EXPECT_EQ(sa.alloc_downgrades, sb.alloc_downgrades);
  EXPECT_EQ(sa.alloc_restores, sb.alloc_restores);
  EXPECT_EQ(scoped.control_log().size(), reference.control_log().size());
}

TEST(LinkScopeDifferentialTest, ScopedLinkRepairMatchesRepairEveryClusterOver20Seeds) {
  std::size_t cuts = 0;              // link failures that cut a live link
  std::size_t skipped = 0;           // clusters the scoped walk left alone
  std::size_t walked_unhealthy = 0;  // degraded/disconnected non-owners repaired
  std::size_t owner_cuts = 0;        // cuts of a link of some AL on the ToR
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto scoped = make_dc(seed);
    auto reference = make_dc(seed);
    ASSERT_FALSE(scoped->orchestrator().chains().empty());
    expect_identical_clusters(scoped->clusters(), reference->clusters());
    const auto schedule = make_schedule(*scoped, seed);
    ASSERT_FALSE(schedule.empty());

    for (const FaultEvent& event : schedule) {
      const auto& topo = scoped->topology();
      if (event.kind == FaultKind::kLink && event.failure &&
          !topo.link_failed(TorId{event.id}, OpsId{event.ops})) {
        ++cuts;
        bool owned = false;
        for (ClusterId id : scoped->clusters().clusters_containing_tor(TorId{event.id})) {
          const cluster::VirtualCluster& vc = *scoped->clusters().find(id);
          if (vc.layer.contains_ops(OpsId{event.ops})) {
            owned = true;
          } else if (vc.degraded || !vc.connected) {
            ++walked_unhealthy;
          } else {
            ++skipped;
          }
        }
        if (owned) ++owner_cuts;
      }
      const auto ra = apply_fault(scoped->orchestrator(), event);
      const auto rb = apply_reference(reference->orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        ASSERT_EQ(*ra, *rb);
      }
      expect_identical_clusters(scoped->clusters(), reference->clusters());
      expect_identical_chains(scoped->orchestrator(), reference->orchestrator());
      EXPECT_EQ(faults::StateAuditor::audit(scoped->orchestrator()), std::vector<std::string>{});
      EXPECT_EQ(SweepProbe::unsettled_chains(scoped->orchestrator()), std::vector<util::NfcId>{})
          << "a chain outside the event's sweep scope still needs a sweep";
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at t=" << event.time_s << " "
               << alvc::faults::to_string(event.kind) << " id=" << event.id << " ops="
               << event.ops << (event.failure ? " failure" : " repair");
      }
    }
    EXPECT_TRUE(faults::StateAuditor::audit(reference->orchestrator()).empty());
  }
  // Not vacuous: cuts hit AL links and off-layer links alike, the scoped
  // walk skipped clusters, and it still repaired unhealthy non-owners.
  EXPECT_GT(cuts, 2000u);
  EXPECT_GT(owner_cuts, 500u);
  EXPECT_GT(skipped, 600u);
  EXPECT_GT(walked_unhealthy, 400u);
}

}  // namespace
}  // namespace alvc::orchestrator
