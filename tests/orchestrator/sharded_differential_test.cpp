// Shard-count differential: the cluster-agent control plane must be
// byte-identical at every shard count, after every single fault event.
// Twin data centers replay the same 20-seed fault schedules the chaos soak
// uses — a one-shard control and one variant per shard count in
// {2, 4, 8} — and the full per-chain state must match event for event,
// with every plane passing StateAuditor after every event. Odd seeds run
// under kWaterFill so the rebalance is exercised too (under the default
// strict ladder it is a no-op).
//
// ALVC_SHARD_DIFF_SEEDS=<n> caps the seed count (the CI scale-soak leg
// runs a reduced sweep; locally the full 20 is the default). A value that
// is not a positive integer fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultScheduleParams;
using alvc::nfv::VnfType;
using alvc::util::NfcId;

constexpr std::size_t kShardCounts[] = {2, 4, 8};

// Heap-allocated: DataCenter's components hold pointers into each other,
// so instances must never be moved (the variants live in a vector).
std::unique_ptr<core::DataCenter> make_dc(std::uint64_t seed, bool water_fill) {
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
  auto dc = std::make_unique<core::DataCenter>(config);
  auto clusters = dc->build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  // Water-fill on both twins of odd seeds: with the default strict ladder
  // rebalance_bandwidth() is a no-op and the rebalance would never run.
  if (water_fill) dc->orchestrator().set_allocation_policy(AllocationPolicy::kWaterFill);
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    // Water-fill seeds run near port capacity so the allocator actually
    // has contention to arbitrate; otherwise every rebalance is a no-op
    // and the differential would pass vacuously.
    spec.bandwidth_gbps = water_fill ? 6.0 : 1.0;
    spec.functions = {*dc->catalog().find_by_type(VnfType::kFirewall),
                      *dc->catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  return dc;
}

std::vector<FaultEvent> make_schedule(const core::DataCenter& dc, std::uint64_t seed) {
  FaultScheduleParams params;
  params.ops = {.mtbf_s = 35, .mttr_s = 7};
  params.tor = {.mtbf_s = 55, .mttr_s = 6};
  params.server = {.mtbf_s = 45, .mttr_s = 5};
  params.link = {.mtbf_s = 40, .mttr_s = 6};
  params.horizon_s = 40;
  params.seed = seed;
  auto events = FaultInjector::generate(dc.topology(), params);
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    auto scripted = FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
    events.insert(events.end(), scripted.begin(), scripted.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

void expect_identical(const NetworkOrchestrator& control, const NetworkOrchestrator& variant) {
  std::vector<NfcId> ids;
  for (const ProvisionedChain* chain : control.chains()) ids.push_back(chain->record.id);
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(control.chain_count(), variant.chain_count());
  for (NfcId id : ids) {
    SCOPED_TRACE(::testing::Message() << "chain " << id.value());
    const ProvisionedChain* a = control.chain(id);
    const ProvisionedChain* b = variant.chain(id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->route.vertices, b->route.vertices);
    EXPECT_EQ(a->route.legs, b->route.legs);
    EXPECT_EQ(a->placement.hosts, b->placement.hosts);
    EXPECT_EQ(a->flow_rules, b->flow_rules);
    EXPECT_DOUBLE_EQ(a->reserved_gbps, b->reserved_gbps);
    EXPECT_EQ(a->degraded, b->degraded);
    EXPECT_EQ(a->degraded_reason, b->degraded_reason);
    ASSERT_EQ(a->instances.size(), b->instances.size());
    for (std::size_t i = 0; i < a->instances.size(); ++i) {
      EXPECT_EQ(a->instances[i].valid(), b->instances[i].valid());
    }
  }
  const OrchestratorStats& sa = control.stats();
  const OrchestratorStats& sb = variant.stats();
  EXPECT_EQ(sa.chains_provisioned, sb.chains_provisioned);
  EXPECT_EQ(sa.chains_repaired, sb.chains_repaired);
  EXPECT_EQ(sa.chains_lost, sb.chains_lost);
  EXPECT_EQ(sa.chains_degraded, sb.chains_degraded);
  EXPECT_EQ(sa.chains_restored, sb.chains_restored);
  EXPECT_EQ(sa.alloc_rebalances, sb.alloc_rebalances);
  EXPECT_EQ(sa.alloc_downgrades, sb.alloc_downgrades);
  EXPECT_EQ(sa.alloc_restores, sb.alloc_restores);
  EXPECT_EQ(control.retry_queue_size(), variant.retry_queue_size());
  EXPECT_EQ(control.degraded_chain_count(), variant.degraded_chain_count());
  EXPECT_EQ(control.control_log().events().size(), variant.control_log().events().size());
}

void expect_audit_clean(const NetworkOrchestrator& orch) {
  for (const std::string& violation : alvc::faults::StateAuditor::audit(orch)) {
    ADD_FAILURE() << violation;
  }
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
      expect_identical(control->orchestrator(), variants.back()->orchestrator());
    }

    const auto events = make_schedule(*control, seed);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent& event : events) {
      const auto ra = alvc::faults::apply_fault(control->orchestrator(), event);
      expect_audit_clean(control->orchestrator());
      for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE(::testing::Message() << "shards = " << kShardCounts[v]);
        const auto rb = alvc::faults::apply_fault(variants[v]->orchestrator(), event);
        ASSERT_EQ(ra.has_value(), rb.has_value());
        if (ra.has_value()) {
          EXPECT_EQ(*ra, *rb);
        }
        expect_identical(control->orchestrator(), variants[v]->orchestrator());
        expect_audit_clean(variants[v]->orchestrator());
        if (::testing::Test::HasFailure()) {
          FAIL() << "state diverged at t=" << event.time_s << " " << to_string(event.kind)
                 << (event.failure ? " failure" : " recovery") << " id=" << event.id;
        }
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
  const auto events = make_schedule(*dc, kSeed);
  ASSERT_FALSE(events.empty());
  for (const FaultEvent& event : events) {
    ALVC_IGNORE_STATUS(alvc::faults::apply_fault(dc->orchestrator(), event),
                       "a rejected event changes nothing; the audit below is the check");
    const auto violations = alvc::faults::StateAuditor::audit(dc->orchestrator());
    ASSERT_TRUE(violations.empty())
        << "t=" << event.time_s << " " << to_string(event.kind)
        << (event.failure ? " failure" : " recovery") << " id=" << event.id << ": "
        << violations.front();
  }
}

}  // namespace
}  // namespace alvc::orchestrator
