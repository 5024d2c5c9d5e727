// Differential proof of the route cache's bit-identity contract: two
// identical data centers run the same seeded fault workload — one with a
// warm epoch-versioned cache, one whose caches restart cold before every
// event — and after EVERY event the full chain state (routes, legs,
// placements, reservations, degraded flags, recovery stats) must match
// exactly, across 20 seeds. Within one event no topology epoch moves after
// the cluster step, so the cold twin never revalidates or evicts: every
// lookup is a plain BFS miss (or a hit on a leg that same event computed).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::apply_fault;
using alvc::faults::FaultInjector;
using alvc::faults::FaultScheduleParams;
using nfv::VnfType;

constexpr std::uint64_t kSeeds = 20;

core::DataCenter make_provisioned_dc(std::uint64_t seed) {
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = seed * 7 + 1;
  config.seed = seed;
  core::DataCenter dc(config);
  auto clusters = dc.build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  return dc;
}

/// Restarts `orch`'s route caches cold, first folding their counters into
/// `total` (a restart discards them).
void cold_restart(NetworkOrchestrator& orch, RouteCacheStats& total) {
  const RouteCacheStats s = orch.aggregate_route_cache_stats();
  total.hits += s.hits;
  total.revalidations += s.revalidations;
  total.misses += s.misses;
  total.stale_evictions += s.stale_evictions;
  orch.set_sharding(orch.shard_count());
}

std::size_t cached_entries(const NetworkOrchestrator& orch) {
  std::size_t entries = 0;
  for (const RouteCache* cache : orch.route_caches()) entries += cache->entry_count();
  return entries;
}

/// Full observable chain state; everything routing can influence.
void expect_identical_state(const NetworkOrchestrator& cached,
                            const NetworkOrchestrator& plain) {
  const auto a = cached.chains();
  const auto b = plain.chains();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("chain " + std::to_string(a[i]->record.id.value()));
    ASSERT_EQ(a[i]->record.id, b[i]->record.id);
    EXPECT_EQ(a[i]->route.vertices, b[i]->route.vertices);
    EXPECT_EQ(a[i]->route.legs, b[i]->route.legs);
    EXPECT_EQ(a[i]->route.optical_hops, b[i]->route.optical_hops);
    EXPECT_EQ(a[i]->route.electronic_hops, b[i]->route.electronic_hops);
    EXPECT_EQ(a[i]->placement.hosts, b[i]->placement.hosts);
    EXPECT_EQ(a[i]->flow_rules, b[i]->flow_rules);
    EXPECT_DOUBLE_EQ(a[i]->reserved_gbps, b[i]->reserved_gbps);
    EXPECT_EQ(a[i]->degraded, b[i]->degraded);
  }
  EXPECT_EQ(cached.stats().chains_repaired, plain.stats().chains_repaired);
  EXPECT_EQ(cached.stats().chains_degraded, plain.stats().chains_degraded);
  EXPECT_EQ(cached.stats().chains_restored, plain.stats().chains_restored);
  EXPECT_EQ(cached.stats().chains_lost, plain.stats().chains_lost);
  EXPECT_EQ(cached.stats().vnfs_relocated, plain.stats().vnfs_relocated);
}

TEST(RouteCacheDifferentialTest, CachedAndUncachedRoutingAreBitIdenticalOver20Seeds) {
  std::uint64_t total_events = 0;
  std::uint64_t total_hits = 0;
  std::uint64_t total_revalidations = 0;

  RouteCacheStats cold_total;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto with_cache = make_provisioned_dc(seed);
    auto without_cache = make_provisioned_dc(seed);
    ASSERT_FALSE(with_cache.orchestrator().chains().empty());
    expect_identical_state(with_cache.orchestrator(), without_cache.orchestrator());

    FaultScheduleParams params;
    params.ops = {.mtbf_s = 30, .mttr_s = 6};
    params.tor = {.mtbf_s = 50, .mttr_s = 5};
    params.server = {.mtbf_s = 40, .mttr_s = 5};
    params.link = {.mtbf_s = 35, .mttr_s = 5};
    params.horizon_s = 35;
    params.seed = seed;
    const auto schedule = FaultInjector::generate(with_cache.topology(), params);
    ASSERT_FALSE(schedule.empty());

    for (const auto& event : schedule) {
      ++total_events;
      cold_restart(without_cache.orchestrator(), cold_total);
      const auto ra = apply_fault(with_cache.orchestrator(), event);
      const auto rb = apply_fault(without_cache.orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        ASSERT_EQ(*ra, *rb);
      }
      expect_identical_state(with_cache.orchestrator(), without_cache.orchestrator());
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first divergence at t=" << event.time_s << " "
               << alvc::faults::to_string(event.kind) << " id=" << event.id
               << (event.failure ? " failure" : " repair");
      }
    }

    // Both ends stay self-consistent, cache coherence included.
    EXPECT_TRUE(faults::StateAuditor::audit(with_cache.orchestrator()).empty());
    EXPECT_TRUE(faults::StateAuditor::audit(without_cache.orchestrator()).empty());
    const RouteCacheStats stats = with_cache.orchestrator().aggregate_route_cache_stats();
    total_hits += stats.hits;
    total_revalidations += stats.revalidations;
    cold_restart(without_cache.orchestrator(), cold_total);
  }

  // The cold twin routed as plain BFS would: nothing it looked up was ever
  // carried across an epoch change.
  EXPECT_EQ(cold_total.revalidations, 0u);
  EXPECT_EQ(cold_total.stale_evictions, 0u);
  EXPECT_GT(cold_total.misses, 0u) << "the cold twin never routed anything";
  // The equivalence must not be vacuous: the cached side has to have
  // actually served memoized paths under churn.
  EXPECT_GT(total_events, 200u);
  EXPECT_GT(total_hits + total_revalidations, 100u)
      << "cache never served anything; the differential proved nothing";
}

TEST(RouteCacheDifferentialTest, TeardownAndReprovisionStayIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto with_cache = make_provisioned_dc(seed);
    auto without_cache = make_provisioned_dc(seed);
    RouteCacheStats cold_total;

    // Tear down every chain (exercising invalidate_slice on the cached
    // side), then re-provision the same specs; results must match.
    const auto ids = [&] {
      std::vector<util::NfcId> out;
      for (const auto* c : with_cache.orchestrator().chains()) out.push_back(c->record.id);
      return out;
    }();
    for (util::NfcId id : ids) {
      cold_restart(without_cache.orchestrator(), cold_total);
      ASSERT_TRUE(with_cache.orchestrator().teardown_chain(id).is_ok());
      ASSERT_TRUE(without_cache.orchestrator().teardown_chain(id).is_ok());
    }
    EXPECT_EQ(cached_entries(with_cache.orchestrator()), 0u);

    for (std::uint32_t s = 0; s < 3; ++s) {
      nfv::NfcSpec spec;
      spec.service = util::ServiceId{s};
      spec.name = "chain-" + std::to_string(s) + "-again";
      spec.bandwidth_gbps = 1.0;
      spec.functions = {*with_cache.catalog().find_by_type(VnfType::kDeepPacketInspection),
                        *with_cache.catalog().find_by_type(VnfType::kLoadBalancer)};
      cold_restart(without_cache.orchestrator(), cold_total);
      const auto ra =
          with_cache.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
      const auto rb =
          without_cache.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
      ASSERT_EQ(ra.has_value(), rb.has_value());
    }
    expect_identical_state(with_cache.orchestrator(), without_cache.orchestrator());
    cold_restart(without_cache.orchestrator(), cold_total);
    EXPECT_EQ(cold_total.revalidations, 0u);
    EXPECT_EQ(cold_total.stale_evictions, 0u);
  }
}

}  // namespace
}  // namespace alvc::orchestrator
