// kStrictLadder differential: with the QoS allocator compiled in, the
// default policy must preserve the legacy fault/recovery behavior
// bit-for-bit. Twin data centers run the same 20-seed fault schedules the
// PR-2 chaos soak uses — one untouched (seed semantics), one with the
// policy set explicitly, every chain tagged LOPRI, and the ToR budget knob
// moved — and the full per-chain state must stay identical after every
// single event. Priority metadata and allocator knobs are inert under
// strict; only kWaterFill / kPriorityDowngrade may change behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultScheduleParams;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::util::NfcId;

constexpr std::uint64_t kSeeds = 20;

core::DataCenter make_dc(std::uint64_t seed, bool variant) {
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
  if (variant) {
    // Everything here must be a no-op under the strict policy.
    dc.orchestrator().set_allocation_policy(AllocationPolicy::kStrictLadder);
    dc.orchestrator().set_tor_budget_factor(0.125);
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    if (variant) spec.priority = PriorityClass::kLopri;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
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
  EXPECT_EQ(sa.chains_admitted_downgraded, 0u);
  EXPECT_EQ(sb.chains_admitted_downgraded, 0u);
  EXPECT_EQ(sb.alloc_rebalances, 0u) << "strict policy must never rebalance";
  EXPECT_EQ(sb.alloc_downgrades, 0u);
  EXPECT_EQ(sb.alloc_restores, 0u);
  EXPECT_EQ(control.retry_queue_size(), variant.retry_queue_size());
  EXPECT_EQ(control.control_log().events().size(), variant.control_log().events().size());
}

TEST(StrictLadderDifferentialTest, FaultScheduleReplayIsByteIdenticalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto control = make_dc(seed, /*variant=*/false);
    auto variant = make_dc(seed, /*variant=*/true);
    ASSERT_FALSE(control.orchestrator().chains().empty());
    expect_identical(control.orchestrator(), variant.orchestrator());

    const auto events = make_schedule(control, seed);
    ASSERT_FALSE(events.empty());
    for (const FaultEvent& event : events) {
      const auto ra = alvc::faults::apply_fault(control.orchestrator(), event);
      const auto rb = alvc::faults::apply_fault(variant.orchestrator(), event);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (ra.has_value()) {
        EXPECT_EQ(*ra, *rb);
      }
      expect_identical(control.orchestrator(), variant.orchestrator());
      if (::testing::Test::HasFailure()) {
        FAIL() << "state diverged at t=" << event.time_s << " " << to_string(event.kind)
               << (event.failure ? " failure" : " recovery") << " id=" << event.id;
      }
    }
  }
}

}  // namespace
}  // namespace alvc::orchestrator
