// Differential proof of the route cache's bit-identity contract: a
// production plane with warm epoch-versioned caches and the reference twin
// of tests/support/reference_plane.h, whose caches restart cold before
// every event, replay the small fabric's seeded fault schedules, and after
// EVERY event the full plane must match exactly, across 20 seeds. Within
// one event no topology epoch moves after the cluster step, so the cold
// twin never revalidates or evicts: every lookup is a plain BFS miss (or a
// hit on a leg that same event computed).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "support/fixtures.h"
#include "support/reference_plane.h"

namespace alvc::orchestrator {
namespace {

using alvc::test::ReferencePlane;
using nfv::VnfType;

std::size_t cached_entries(const NetworkOrchestrator& orch) {
  std::size_t entries = 0;
  for (const RouteCache* cache : orch.route_caches()) entries += cache->entry_count();
  return entries;
}

TEST(RouteCacheDifferentialTest, CachedAndUncachedRoutingAreBitIdenticalOver20Seeds) {
  alvc::test::ReplayTally tally;
  std::uint64_t served = 0;  // production lookups answered from the memo
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto production = alvc::test::make_small_fabric(seed);
    auto reference = alvc::test::make_small_fabric(seed);
    ASSERT_FALSE(production->orchestrator().chains().empty());
    const auto schedule = alvc::test::make_small_schedule(*production, seed);
    tally += alvc::test::replay(*production, *reference, schedule);
    if (HasFailure()) return;
    ReferencePlane::cold_restart(reference->orchestrator(), tally.cold);
    const RouteCacheStats stats = production->orchestrator().aggregate_route_cache_stats();
    served += stats.hits + stats.revalidations;
  }
  // The cold twin routed as plain BFS would: nothing it looked up was ever
  // carried across an epoch change.
  EXPECT_EQ(tally.cold.revalidations, 0u);
  EXPECT_EQ(tally.cold.stale_evictions, 0u);
  EXPECT_GT(tally.cold.misses, 0u) << "the cold twin never routed anything";
  // Not vacuous: the cached side actually served memoized paths under
  // churn.
  EXPECT_GT(tally.events, 200u);
  EXPECT_GT(served, 100u) << "cache never served anything; the differential proved nothing";
}

TEST(RouteCacheDifferentialTest, TeardownAndReprovisionStayIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto with_cache = alvc::test::make_small_fabric(seed);
    auto without_cache = alvc::test::make_small_fabric(seed);
    RouteCacheStats cold_total;

    // Tear down every chain (exercising invalidate_slice on the cached
    // side), then re-provision the same specs; results must match.
    const auto ids = [&] {
      std::vector<util::NfcId> out;
      for (const auto* c : with_cache->orchestrator().chains()) out.push_back(c->record.id);
      return out;
    }();
    for (util::NfcId id : ids) {
      ReferencePlane::cold_restart(without_cache->orchestrator(), cold_total);
      ASSERT_TRUE(with_cache->orchestrator().teardown_chain(id).is_ok());
      ASSERT_TRUE(without_cache->orchestrator().teardown_chain(id).is_ok());
    }
    EXPECT_EQ(cached_entries(with_cache->orchestrator()), 0u);

    for (std::uint32_t s = 0; s < 3; ++s) {
      nfv::NfcSpec spec;
      spec.service = util::ServiceId{s};
      spec.name = "chain-" + std::to_string(s) + "-again";
      spec.bandwidth_gbps = 1.0;
      spec.functions = {*with_cache->catalog().find_by_type(VnfType::kDeepPacketInspection),
                        *with_cache->catalog().find_by_type(VnfType::kLoadBalancer)};
      ReferencePlane::cold_restart(without_cache->orchestrator(), cold_total);
      const auto ra =
          with_cache->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
      const auto rb =
          without_cache->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
      ASSERT_EQ(ra.has_value(), rb.has_value());
    }
    alvc::test::expect_identical_planes(*with_cache, *without_cache);
    ReferencePlane::cold_restart(without_cache->orchestrator(), cold_total);
    EXPECT_EQ(cold_total.revalidations, 0u);
    EXPECT_EQ(cold_total.stale_evictions, 0u);
  }
}

}  // namespace
}  // namespace alvc::orchestrator
