// kStrictLadder differential: with the QoS allocator compiled in, the
// default policy must preserve the legacy fault/recovery behavior
// bit-for-bit. Twin data centers replay the small fabric's 20-seed fault
// schedules (tests/support/reference_plane.h) — one untouched (seed
// semantics), one with the policy set explicitly, every chain tagged
// LOPRI, and the ToR budget knob moved — and the full plane must stay
// identical under the reference plane's comparator after every single
// event. Priority metadata and allocator knobs are inert under strict;
// only kWaterFill / kPriorityDowngrade may change behavior.
#include <gtest/gtest.h>

#include "support/fixtures.h"
#include "support/reference_plane.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;

/// Strict never downgrades or rebalances (the comparator holds the control
/// to the same stats).
void expect_no_allocator_activity(const NetworkOrchestrator& orchestrator) {
  const OrchestratorStats& stats = orchestrator.stats();
  EXPECT_EQ(stats.chains_admitted_downgraded, 0u);
  EXPECT_EQ(stats.alloc_rebalances, 0u) << "strict policy must never rebalance";
  EXPECT_EQ(stats.alloc_downgrades, 0u);
  EXPECT_EQ(stats.alloc_restores, 0u);
}

TEST(StrictLadderDifferentialTest, FaultScheduleReplayIsByteIdenticalAcrossSeeds) {
  const alvc::test::SmallFabricOptions inert{.policy = AllocationPolicy::kStrictLadder,
                                             .tor_budget_factor = 0.125,
                                             .priority = nfv::PriorityClass::kLopri};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto control = alvc::test::make_small_fabric(seed);
    auto variant = alvc::test::make_small_fabric(seed, inert);
    ASSERT_FALSE(control->orchestrator().chains().empty());
    alvc::test::expect_identical_planes(*control, *variant);

    const auto events = alvc::test::make_small_schedule(*control, seed);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent& event : events) {
      const auto ra = alvc::faults::apply_fault(control->orchestrator(), event);
      const auto rb = alvc::faults::apply_fault(variant->orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        EXPECT_EQ(*ra, *rb);
      }
      alvc::test::expect_identical_planes(*control, *variant);
      expect_no_allocator_activity(variant->orchestrator());
      if (HasFailure()) FAIL() << "state diverged at " << alvc::test::describe(event);
    }
  }
}

}  // namespace
}  // namespace alvc::orchestrator
