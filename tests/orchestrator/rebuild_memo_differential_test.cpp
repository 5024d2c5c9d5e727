// Differential proof that restore_degraded_clusters' rebuild memo changes
// nothing but work: two identical data centers replay the same seeded
// fault schedule — one through the production restore pass, one whose
// memos are forgotten before every event, so its pass rebuilds every
// degraded cluster (the always-rebuild reference, see
// tests/support/restore_probe.h). After EVERY event the two must
// agree on every cluster (VMs, AL, degraded and connected flags), the OPS
// ownership registry and the full chain state, and both must pass
// check_invariants. 20 seeds over small fault_storm-shaped fabrics (see
// make_dc), with faults of every element class plus whole-AL and
// whole-rack outages and flapping links. A restore pass sweeps only the
// clusters it rebuilt, so after every event the production twin must also
// have no live chain left that a sweep would act on
// (tests/support/sweep_probe.h).
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
#include "support/restore_probe.h"
#include "support/sweep_probe.h"
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
using alvc::test::RestoreProbe;
using alvc::test::SweepProbe;

constexpr std::uint64_t kSeeds = 20;
constexpr std::size_t kRacks = 24;
constexpr double kHorizonS = 60;

/// Even seeds: fault_storm's fabric at 24 racks — 2 servers per rack, two
/// racks per service, ToR-OPS degree 3 over local uplink windows, no OPS
/// core. There every AL augmentation stays among the cluster's own
/// uplinks. Odd seeds: three racks per service over half-random uplinks
/// (degree 6, 48 OPSs) and a random-regular OPS core, so rebuilds recruit
/// OPSs through the core — the reads a memo must never skip. One
/// single-function chain per cluster.
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
    const util::TorId tor{static_cast<std::uint32_t>(rng.uniform_index(kRacks))};
    append(FaultInjector::whole_rack(dc.topology(), tor, t, 6));
  }
  for (int i = 0; i < 3; ++i) {
    const auto tor = static_cast<std::uint32_t>(rng.uniform_index(kRacks));
    const auto& uplinks = dc.topology().tor(util::TorId{tor}).uplinks;
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

void expect_identical_clusters(const cluster::ClusterManager& memo,
                               const cluster::ClusterManager& reference) {
  const auto a = memo.clusters();
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
  ASSERT_EQ(memo.ownership().ops_count(), reference.ownership().ops_count());
  for (std::size_t o = 0; o < memo.ownership().ops_count(); ++o) {
    const util::OpsId ops{static_cast<std::uint32_t>(o)};
    EXPECT_EQ(memo.ownership().owner(ops), reference.ownership().owner(ops)) << "OPS " << o;
  }
  EXPECT_EQ(memo.degraded_cluster_ids(), reference.degraded_cluster_ids());
  EXPECT_TRUE(memo.check_invariants().empty());
  EXPECT_TRUE(reference.check_invariants().empty());
}

void expect_identical_chains(const NetworkOrchestrator& memo,
                             const NetworkOrchestrator& reference) {
  const auto a = memo.chains();
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
  EXPECT_EQ(memo.stats().chains_repaired, reference.stats().chains_repaired);
  EXPECT_EQ(memo.stats().chains_degraded, reference.stats().chains_degraded);
  EXPECT_EQ(memo.stats().chains_restored, reference.stats().chains_restored);
  EXPECT_EQ(memo.stats().chains_lost, reference.stats().chains_lost);
  EXPECT_EQ(memo.stats().vnfs_relocated, reference.stats().vnfs_relocated);
}

TEST(RebuildMemoDifferentialTest, MemoizedRestoreMatchesAlwaysRebuildOver20Seeds) {
#if ALVC_TELEMETRY_ENABLED
  auto& skipped = telemetry::MetricRegistry::global().counter("cluster.restore.skipped");
  const std::uint64_t skipped_before = skipped.value();
#endif
  std::size_t events_total = 0;
  std::size_t recoveries_with_memos = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto memo = make_dc(seed);
    auto reference = make_dc(seed);
    ASSERT_FALSE(memo->orchestrator().chains().empty());
    const auto schedule = make_schedule(*memo, seed);
    ASSERT_FALSE(schedule.empty());

    for (const FaultEvent& event : schedule) {
      ++events_total;
      RestoreProbe::forget_all(reference->clusters());
      if (!event.failure && RestoreProbe::memo_count(memo->clusters()) > 0) {
        ++recoveries_with_memos;
      }
      const auto ra = apply_fault(memo->orchestrator(), event);
      const auto rb = apply_fault(reference->orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        ASSERT_EQ(*ra, *rb);
      }
      expect_identical_clusters(memo->clusters(), reference->clusters());
      expect_identical_chains(memo->orchestrator(), reference->orchestrator());
      EXPECT_EQ(SweepProbe::unsettled_chains(memo->orchestrator()), std::vector<util::NfcId>{})
          << "a chain outside the event's sweep scope still needs a sweep";
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at t=" << event.time_s << " "
               << alvc::faults::to_string(event.kind) << " id=" << event.id
               << (event.failure ? " failure" : " repair");
      }
    }
    EXPECT_TRUE(faults::StateAuditor::audit(memo->orchestrator()).empty());
    EXPECT_TRUE(faults::StateAuditor::audit(reference->orchestrator()).empty());
  }
  // Not vacuous: recoveries found memos to test, and the production pass
  // skipped rebuilds on the strength of them.
  EXPECT_GT(events_total, 3000u);
  EXPECT_GT(recoveries_with_memos, 1000u);
#if ALVC_TELEMETRY_ENABLED
  EXPECT_GT(skipped.value() - skipped_before, 2000u);
#endif
}

}  // namespace
}  // namespace alvc::orchestrator
