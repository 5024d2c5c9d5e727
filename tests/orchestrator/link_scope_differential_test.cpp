// Differential proof that scoping a link failure to the AL that rides the
// link changes nothing but work: a production plane and the reference twin
// of tests/support/reference_plane.h, whose link failures repair and sweep
// every cluster whose AL holds the ToR, replay the same seeded fault
// schedule (links failing every 40 s per link) and must agree after every
// event. 20 seeds: even seeds on fault_storm's fabric, where most uplinks
// are in no AL, odd seeds on half-random uplinks with clusters held
// degraded behind dead racks from the start. The skip and repair counts
// are read from the clusters production's handler reported touched.
#include <gtest/gtest.h>

#include "support/fixtures.h"
#include "support/reference_plane.h"

namespace alvc::orchestrator {
namespace {

using alvc::test::ScopingFabric;

TEST(LinkScopeDifferentialTest, ScopedLinkRepairMatchesRepairEveryClusterOver20Seeds) {
  alvc::test::ReplayTally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ALVC_TRACE_SEED(seed);
    const ScopingFabric fabric =
        seed % 2 == 0 ? ScopingFabric::kStorm : ScopingFabric::kHalfRandomDegraded;
    auto production = alvc::test::make_scoping_fabric(fabric, seed);
    auto reference = alvc::test::make_scoping_fabric(fabric, seed);
    ASSERT_FALSE(production->orchestrator().chains().empty());
    const auto schedule = alvc::test::make_scoping_schedule(*production, seed, 40);
    tally += alvc::test::replay(*production, *reference, schedule);
    if (HasFailure()) return;
  }
  // Not vacuous: cuts hit AL links and off-layer links alike, the scoped
  // walk skipped clusters, and it still repaired unhealthy non-owners.
  EXPECT_GT(tally.cuts, 2000u);
  EXPECT_GT(tally.owner_cuts, 500u);
  EXPECT_GT(tally.skipped, 600u);
  EXPECT_GT(tally.unhealthy_non_owners, 400u);
}

// A degraded, connected cluster without the cut OPS keeps its repair
// because an OPS may have come free for it since its last attempt. No cut
// of the 20-seed replay above reaches such a repair that changes anything.
// Over seeds 1-100 of every fabric and schedule of the reference plane,
// one cut does: on storm seed 60, with links failing every 40 s, a
// degraded cluster whose AL had lost every OPS takes a free one when
// another uplink of its ToR is cut. This replay pins that repair against
// the reference.
TEST(LinkScopeDifferentialTest, DegradedNonOwnerTakesAFreedOpsOnStormSeed60) {
  constexpr std::uint64_t kSeed = 60;
  auto production = alvc::test::make_scoping_fabric(ScopingFabric::kStorm, kSeed);
  auto reference = alvc::test::make_scoping_fabric(ScopingFabric::kStorm, kSeed);
  const auto schedule = alvc::test::make_scoping_schedule(*production, kSeed, 40);
  const auto tally = alvc::test::replay(*production, *reference, schedule);
  EXPECT_GT(tally.degraded_non_owners_recovered, 0u);
}

}  // namespace
}  // namespace alvc::orchestrator
