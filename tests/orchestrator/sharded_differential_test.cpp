// Shard-count differential: the cluster-agent control plane must be
// byte-identical at every shard count, after every single fault event.
// Twin data centers replay the small fabric's 20-seed fault schedules
// (tests/support/reference_plane.h) — a one-shard control and one variant
// per shard count in {2, 4, 8} — and the full plane must match event for
// event under the reference plane's comparator, with every plane sound
// (StateAuditor clean, no unsettled chain) after every event. Odd seeds
// run under kWaterFill so the rebalance is exercised too (under the
// default strict ladder it is a no-op).
//
// ALVC_SHARD_DIFF_SEEDS=<n> caps the seed count (the CI scale-soak leg
// runs a reduced sweep; locally the full 20 is the default). A value that
// is not a positive integer fails the test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "support/reference_plane.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;

constexpr std::size_t kShardCounts[] = {2, 4, 8};

/// The small fabric; water-fill seeds run near port capacity so the
/// allocator has contention to arbitrate (under the default strict ladder
/// rebalance_bandwidth() is a no-op and every rebalance would pass
/// vacuously). Heap-allocated: DataCenter's components hold pointers into
/// each other, so instances must never be moved (the variants live in a
/// vector).
std::unique_ptr<core::DataCenter> make_dc(std::uint64_t seed, bool water_fill) {
  alvc::test::SmallFabricOptions options;
  if (water_fill) {
    options.policy = AllocationPolicy::kWaterFill;
    options.bandwidth_gbps = 6.0;
  }
  return alvc::test::make_small_fabric(seed, options);
}

TEST(ShardedDifferentialTest, FaultReplayIsByteIdenticalAtEveryShardCount) {
  const std::optional<std::size_t> seed_override = alvc::test::positive_env(
      "ALVC_SHARD_DIFF_SEEDS", 20);
  ASSERT_TRUE(seed_override.has_value())
      << "ALVC_SHARD_DIFF_SEEDS must be a positive integer, got '"
      << std::getenv("ALVC_SHARD_DIFF_SEEDS") << "'";
  const std::uint64_t seeds = *seed_override;
  std::size_t total_degraded = 0;
  std::size_t water_fill_rebalances = 0;

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    const bool water_fill = (seed % 2) == 1;
    auto control = make_dc(seed, water_fill);
    ASSERT_FALSE(control->orchestrator().chains().empty());
    // Restart the control's cache cold too, so cache counters compare.
    control->orchestrator().set_sharding(1);

    std::vector<std::unique_ptr<core::DataCenter>> variants;
    variants.reserve(std::size(kShardCounts));
    for (const std::size_t shards : kShardCounts) {
      variants.push_back(make_dc(seed, water_fill));
      variants.back()->orchestrator().set_sharding(shards);
      ASSERT_EQ(variants.back()->orchestrator().shard_count(), shards);
      alvc::test::expect_identical_planes(*control, *variants.back());
    }

    const auto events = alvc::test::make_small_schedule(*control, seed);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent& event : events) {
      const auto ra = alvc::faults::apply_fault(control->orchestrator(), event);
      alvc::test::expect_sound(*control);
      for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE(::testing::Message() << "shards = " << kShardCounts[v]);
        const auto rb = alvc::faults::apply_fault(variants[v]->orchestrator(), event);
        ASSERT_EQ(ra.has_value(), rb.has_value());
        if (ra.has_value()) {
          EXPECT_EQ(*ra, *rb);
        }
        alvc::test::expect_identical_planes(*control, *variants[v]);
        alvc::test::expect_sound(*variants[v]);
        if (HasFailure()) FAIL() << "state diverged at " << alvc::test::describe(event);
      }
    }

    // Cache traffic is shard-count invariant: every plane started cold at
    // set_sharding and saw the same lookups, so the aggregated counters
    // must agree across {1, 2, 4, 8}.
    const RouteCacheStats base = control->orchestrator().aggregate_route_cache_stats();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE(::testing::Message() << "shards = " << kShardCounts[v]);
      const RouteCacheStats stats = variants[v]->orchestrator().aggregate_route_cache_stats();
      EXPECT_EQ(stats.hits, base.hits);
      EXPECT_EQ(stats.revalidations, base.revalidations);
      EXPECT_EQ(stats.misses, base.misses);
      EXPECT_EQ(stats.stale_evictions, base.stale_evictions);
      EXPECT_EQ(stats.bypasses, base.bypasses);
      EXPECT_EQ(stats.invalidations, base.invalidations);
    }
    EXPECT_GT(base.lookups(), 0u) << "the route caches never served a lookup — vacuous run";

    total_degraded += control->orchestrator().stats().chains_degraded;
    if (water_fill) water_fill_rebalances += control->orchestrator().stats().alloc_rebalances;
  }

  // The differential must exercise the machinery it certifies.
  EXPECT_GT(total_degraded, 0u) << "no chain ever entered degraded mode";
  EXPECT_GT(water_fill_rebalances, 0u)
      << "the water-fill seeds never rebalanced — the rebalance went untested";
}

// Regression: on seed 237 a ToR failure empties chain 2's AL; the refit
// gave up without terminating the chain's live VNFs, so they sat outside
// every later blast radius and one stayed on an OPS that failed at
// t = 34.59 s ("function 0 is placed on failed hardware"). Giving up now
// terminates them, and the audit stays clean after every event.
TEST(ShardedDifferentialTest, Seed237EmptyAlLeavesNoLiveVnfBehind) {
  constexpr std::uint64_t kSeed = 237;
  auto dc = make_dc(kSeed, /*water_fill=*/true);
  dc->orchestrator().set_sharding(1);
  ASSERT_FALSE(dc->orchestrator().chains().empty());
  const auto events = alvc::test::make_small_schedule(*dc, kSeed);
  ASSERT_FALSE(events.empty());
  for (const FaultEvent& event : events) {
    ALVC_IGNORE_STATUS(alvc::faults::apply_fault(dc->orchestrator(), event),
                       "a rejected event changes nothing; the audit below is the check");
    const auto violations = alvc::faults::StateAuditor::audit(dc->orchestrator());
    ASSERT_TRUE(violations.empty())
        << alvc::test::describe(event) << ": " << violations.front();
  }
}

}  // namespace
}  // namespace alvc::orchestrator
