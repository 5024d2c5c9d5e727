#include "util/lock_rank.h"

#include <gtest/gtest.h>

#include <thread>

namespace alvc::util {
namespace {

namespace lr = alvc::util::lock_rank;

TEST(LockRankTest, IncreasingAcquisitionsPass) {
  EXPECT_EQ(LockRank::held_depth(), 0u);
  {
    const LockRank::Scope outer(lr::kTelemetryTracer, "telemetry.tracer");
    EXPECT_EQ(LockRank::held_depth(), 1u);
    {
      const LockRank::Scope inner(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
      EXPECT_EQ(LockRank::held_depth(), 2u);
      const LockRank::Scope group(lr::kExecutorTaskGroup, "util.executor.task_group");
      EXPECT_EQ(LockRank::held_depth(), 3u);
    }
    EXPECT_EQ(LockRank::held_depth(), 1u);
  }
  EXPECT_EQ(LockRank::held_depth(), 0u);
}

TEST(LockRankTest, ReacquireAfterReleaseIsLegal) {
  for (int i = 0; i < 3; ++i) {
    const LockRank::Scope s(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
    EXPECT_EQ(LockRank::held_depth(), 1u);
  }
}

TEST(LockRankTest, HeldRanksArePerThread) {
  const LockRank::Scope outer(lr::kExecutorQueue, "util.executor.queue");
  // Another thread starts with an empty stack, so a lower rank is fine
  // there even while this thread holds the highest one.
  std::thread t([] {
    EXPECT_EQ(LockRank::held_depth(), 0u);
    const LockRank::Scope s(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
    EXPECT_EQ(LockRank::held_depth(), 1u);
  });
  t.join();
  EXPECT_EQ(LockRank::held_depth(), 1u);
}

TEST(LockRankDeathTest, InvertedOrderAborts) {
  EXPECT_DEATH(
      {
        const LockRank::Scope outer(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
        const LockRank::Scope inner(lr::kTelemetryTracer, "telemetry.tracer");
      },
      "lock-order violation");
}

TEST(LockRankDeathTest, SameRankReacquireWhileHeldAborts) {
  // Two locks of one class must be taken as a single scoped_lock (one
  // Scope); sequential acquisition is exactly the ABBA shape the ranks ban.
  EXPECT_DEATH(
      {
        const LockRank::Scope first(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
        const LockRank::Scope second(lr::kTelemetryMetricRegistry, "telemetry.metric_registry");
      },
      "lock-order violation");
}

}  // namespace
}  // namespace alvc::util
