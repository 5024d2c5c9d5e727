// Differential proof that restore_degraded_clusters' rebuild memo changes
// nothing but work: a production plane and the reference twin of
// tests/support/reference_plane.h, which forgets every memo before every
// event and so rebuilds every degraded cluster at each pass, replay the
// same seeded fault schedule and must agree after every event. 20 seeds on
// the half-random fabric with a rack of every third cluster failed first,
// so many clusters sit degraded with memos from the start; the storm and
// core fabrics run in restore_wake_differential_test.
#include <gtest/gtest.h>

#include "support/fixtures.h"
#include "support/reference_plane.h"
#include "telemetry/telemetry.h"

namespace alvc::orchestrator {
namespace {

using alvc::test::ScopingFabric;

TEST(RebuildMemoDifferentialTest, MemoizedRestoreMatchesAlwaysRebuildOver20Seeds) {
#if ALVC_TELEMETRY_ENABLED
  auto& skipped = telemetry::MetricRegistry::global().counter("cluster.restore.skipped");
  const std::uint64_t skipped_before = skipped.value();
#endif
  alvc::test::ReplayTally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto production = alvc::test::make_scoping_fabric(ScopingFabric::kHalfRandomDegraded, seed);
    auto reference = alvc::test::make_scoping_fabric(ScopingFabric::kHalfRandomDegraded, seed);
    ASSERT_FALSE(production->orchestrator().chains().empty());
    const auto schedule = alvc::test::make_scoping_schedule(*production, seed, 80);
    tally += alvc::test::replay(*production, *reference, schedule);
    if (HasFailure()) return;
  }
  // Not vacuous: recoveries found memos to test, and the production pass
  // skipped rebuilds on the strength of them.
  EXPECT_GT(tally.events, 3000u);
  EXPECT_GT(tally.recoveries_with_memos, 1000u);
#if ALVC_TELEMETRY_ENABLED
  EXPECT_GT(skipped.value() - skipped_before, 2000u);
#endif
}

}  // namespace
}  // namespace alvc::orchestrator
