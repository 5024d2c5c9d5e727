// Unit tests of the benchmark driver: the seeded generator, the quantile
// helper, call accounting, the metric catalog, and small-scale runs.
#include <gtest/gtest.h>

#include <numeric>
#include <regex>
#include <set>
#include <unordered_map>
#include <vector>

#include "metrics.h"
#include "orchestrator/placement.h"
#include "replay.h"
#include "schedule.h"

namespace alvc::e2e {
namespace {

constexpr double kTestScale = 0.05;

std::unique_ptr<core::DataCenter> small_fabric(const WorkloadShape& shape) {
  auto dc = std::make_unique<core::DataCenter>(datacenter_config(shape));
  const auto built = dc->build_clusters();
  EXPECT_TRUE(built.has_value());
  return dc;
}

Schedule small_schedule(Workload w, std::uint64_t seed, std::size_t budget = 3000) {
  const WorkloadShape shape = make_shape(w, kTestScale);
  const auto dc = small_fabric(shape);
  return generate_schedule(shape, *dc, seed, budget);
}

TEST(QuantileTest, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_FALSE(quantile_sorted({}, 0.5).has_value());
  const std::vector<double> one{7.0};
  EXPECT_EQ(quantile_sorted(one, 0.99), 7.0);
}

TEST(QuantileTest, P99NeedsAThousandSamplesAndLeavesTenBeyond) {
  LatencySeries s;
  for (int i = 1; i < 1000; ++i) s.add(1000.0 - i);  // unsorted input
  EXPECT_FALSE(s.p99().has_value());
  EXPECT_TRUE(s.p50().has_value());
  s.add(1000.0);
  const auto p99 = s.p99();
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_EQ(s.p50(), 500.0);
}

TEST(AccountingTest, RefusedProvisionCountsAsFailedCall) {
  const WorkloadShape shape = make_shape(Workload::kChurnQos, kTestScale);
  const auto dc = small_fabric(shape);
  const orchestrator::GreedyOpticalPlacement placement;
  ChainRequest request;
  request.slot = 0;
  request.gbps = 2.0;
  request.function_count = 2;
  request.functions = {nfv::VnfType::kFirewall, nfv::VnfType::kNat};
  OpAccounting ops;
  const auto spec = to_spec(request, dc->catalog());
  ops.record(dc->orchestrator().provision_chain(spec, placement).has_value());
  // The slot's AL already backs a chain: the second request is refused.
  ops.record(dc->orchestrator().provision_chain(spec, placement).has_value());
  EXPECT_EQ(ops.attempted, 2u);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_DOUBLE_EQ(ops.failure_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(OpAccounting{}.failure_ratio(), 0.0);
}

TEST(CatalogTest, EveryMetricAndWorkloadNameIsValid) {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  std::set<std::string> seen;
  for (const auto catalog : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricDef& def : catalog) {
      EXPECT_TRUE(std::regex_match(def.name, pattern)) << def.name;
      EXPECT_TRUE(valid_name(def.name)) << def.name;
      EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
      EXPECT_TRUE(std::regex_match(def.unit, std::regex("[A-Za-z0-9_/%.-]{1,16}"))) << def.unit;
    }
  }
  for (const Workload w : kAllWorkloads) {
    EXPECT_TRUE(std::regex_match(to_string(w), pattern)) << to_string(w);
    EXPECT_EQ(parse_workload(to_string(w)), w);
  }
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name("_leading"));
  EXPECT_FALSE(valid_name("has space"));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  EXPECT_FALSE(parse_workload("nope").has_value());
}

TEST(CatalogTest, MetricSetRejectsUnknownDuplicateAndMissing) {
  MetricSet m(end_to_end_metrics());
  EXPECT_THROW(m.set("no_such_metric", 1.0), std::invalid_argument);
  m.set("setup_s", 1.5);
  EXPECT_THROW(m.set("setup_s", 2.0), std::invalid_argument);
  EXPECT_THROW((void)m.to_json(), std::logic_error);
  for (const MetricDef& def : end_to_end_metrics()) {
    if (std::string_view(def.name) != "setup_s") m.set(def.name, 0.25);
  }
  EXPECT_TRUE(m.missing().empty());
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"), std::string::npos);
}

TEST(ScheduleTest, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const Workload w : kAllWorkloads) {
    const auto a = schedule_digest(small_schedule(w, 7));
    const auto b = schedule_digest(small_schedule(w, 7));
    const auto c = schedule_digest(small_schedule(w, 8));
    EXPECT_EQ(a, b) << to_string(w);
    EXPECT_NE(a, c) << to_string(w);
  }
}

TEST(ScheduleTest, ArrivalsOnlyTargetFreeSlotsAndTimesAscend) {
  for (const Workload w : kAllWorkloads) {
    const Schedule s = small_schedule(w, 11);
    ASSERT_EQ(s.events.size(), 3000u) << to_string(w);
    std::unordered_map<std::uint32_t, std::uint32_t> slot_of_key;
    std::set<std::uint32_t> occupied;
    for (const ChainRequest& r : s.initial) {
      EXPECT_TRUE(occupied.insert(r.slot).second);
      slot_of_key[r.key] = r.slot;
    }
    double last = 0;
    std::size_t provisions = 0;
    for (const ScheduledEvent& e : s.events) {
      EXPECT_GE(e.time_s, last);
      last = e.time_s;
      if (e.kind == EventKind::kProvision) {
        ++provisions;
        EXPECT_TRUE(occupied.insert(e.chain.slot).second)
            << to_string(w) << ": arrival into occupied slot " << e.chain.slot;
        slot_of_key[e.chain.key] = e.chain.slot;
      } else if (e.kind == EventKind::kTeardown) {
        ASSERT_TRUE(slot_of_key.contains(e.chain.key));
        EXPECT_EQ(occupied.erase(slot_of_key[e.chain.key]), 1u);
      }
    }
    EXPECT_DOUBLE_EQ(s.horizon_s, s.events.back().time_s);
    if (w == Workload::kFaultStorm) {
      EXPECT_EQ(provisions, 0u);
    } else {
      EXPECT_GT(provisions, 0u);
    }
  }
}

TEST(ScheduleTest, LongerBudgetExtendsTheSameSchedule) {
  const Schedule shorter = small_schedule(Workload::kElasticMixed, 5, 2000);
  const Schedule longer = small_schedule(Workload::kElasticMixed, 5, 4000);
  ASSERT_EQ(shorter.initial.size(), longer.initial.size());
  for (std::size_t i = 0; i < shorter.events.size(); ++i) {
    ASSERT_EQ(shorter.events[i].time_s, longer.events[i].time_s) << i;
    ASSERT_EQ(shorter.events[i].kind, longer.events[i].kind) << i;
  }
}

TEST(RunTest, HeldOutSeedRunsCleanOnEveryWorkloadTracedAndUntraced) {
  for (const Workload w : kAllWorkloads) {
    for (const bool trace : {false, true}) {
      RunOptions options;
      options.workload = w;
      options.seed = 424242;  // never used while tuning the shapes
      options.seconds = 0.1;
      options.trace = trace;
      options.scale = 0.125;
      RunReport report = run_benchmark(options);
      for (const auto& f : report.check_failures) ADD_FAILURE() << to_string(w) << ": " << f;
      EXPECT_TRUE(report.correct);
      EXPECT_GE(report.attempted, 1u);
      EXPECT_TRUE(report.metrics.missing().empty());
    }
  }
}

}  // namespace
}  // namespace alvc::e2e
