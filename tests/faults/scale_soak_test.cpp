// Scale soak for the sharded control plane (DESIGN.md §13).
//
// Two tiers:
//   * MidScaleShardedSoakStaysClean — always on: a ~1.6k-VM, 400-cluster
//     data center runs the chaos soak with an 8-shard control plane; the
//     full robustness contract (clean audits, no handler errors, no silent
//     chain loss) must hold.
//   * MillionVmSmoke — gated by ALVC_SCALE_SOAK=1 (the CI scale-soak leg
//     sets it): one million VMs across 12,500 racks, 100,000 server-local
//     clusters with 100,000 provisioned chains (slices bind 1:1 to
//     chains), mixed stochastic faults plus a scripted whole-rack outage,
//     all under the sharded control plane.
//
// Both builds use server_local_services (block service assignment) so each
// cluster's AL stays rack-local — the layout that makes 10^4+ clusters
// tractable — with ALVC_SHARDS overriding the default shard count (a value
// that is not a positive integer fails the test).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "core/alvc.h"
#include "faults/chaos.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::faults {
namespace {

using alvc::nfv::VnfType;

/// Shard count for the soak: ALVC_SHARDS when set, else 8; nullopt when
/// ALVC_SHARDS is not a positive integer.
std::optional<std::size_t> shard_count_from_env() {
  return alvc::test::positive_env("ALVC_SHARDS", 8);
}

std::string bad_shards_message() {
  return std::string("ALVC_SHARDS must be a positive integer, got '") +
         std::getenv("ALVC_SHARDS") + "'";
}

struct ScaleShape {
  std::size_t racks = 100;
  std::size_t servers_per_rack = 4;
  std::size_t vms_per_server = 4;

  // Slices bind 1:1 to chains (one VC hosts one NFC), so chain count ==
  // cluster count: one service (and thus one cluster and one chain) per
  // server, one exclusive window OPS per cluster.
  [[nodiscard]] std::size_t services() const noexcept { return racks * servers_per_rack; }
};

/// One cluster per server: service_count == server count with block service
/// assignment gives service s exactly server s's VMs, so each AL is one
/// ToR plus one of its window uplinks (tor_ops_degree == servers_per_rack
/// distinct exclusive OPSs per rack). Heap-allocated — DataCenter must
/// never be moved.
std::unique_ptr<core::DataCenter> make_scale_dc(const ScaleShape& shape,
                                                std::size_t* provisioned = nullptr) {
  core::DataCenterConfig config;
  config.topology.rack_count = shape.racks;
  config.topology.servers_per_rack = shape.servers_per_rack;
  config.topology.vms_per_server = shape.vms_per_server;
  config.topology.ops_count = shape.services();  // one window OPS per cluster
  config.topology.tor_ops_degree = shape.servers_per_rack;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 1.0;
  config.topology.service_count = shape.services();
  config.topology.server_local_services = true;
  config.topology.seed = 42;
  config.seed = 42;
  auto dc = std::make_unique<core::DataCenter>(config);

  const auto builder =
      core::DataCenter::make_al_builder(config.al_algorithm, config.seed,
                                        config.ensure_al_connectivity);
  const auto built = dc->clusters().build_all_clusters(*builder);
  if (!built.has_value()) throw std::runtime_error(built.error().to_string());
  if (built->size() != shape.services()) {
    throw std::runtime_error("expected one cluster per server, got " +
                             std::to_string(built->size()));
  }

  std::size_t ok = 0;
  for (std::uint32_t s = 0; s < shape.services(); ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc->catalog().find_by_type(VnfType::kFirewall)};
    if (dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical).has_value()) {
      ++ok;
    }
  }
  if (provisioned != nullptr) *provisioned = ok;
  return dc;
}

TEST(ScaleSoakTest, MidScaleShardedSoakStaysClean) {
  const std::optional<std::size_t> shards = shard_count_from_env();
  ASSERT_TRUE(shards.has_value()) << bad_shards_message();
  std::size_t provisioned = 0;
  auto dc = make_scale_dc(ScaleShape{}, &provisioned);
  EXPECT_EQ(provisioned, 400u) << "every rack-local chain should admit";
  ASSERT_GT(dc->orchestrator().chain_count(), 0u);

  ChaosParams params;
  params.schedule.ops = {.mtbf_s = 1000, .mttr_s = 8};
  params.schedule.tor = {.mtbf_s = 2000, .mttr_s = 8};
  params.schedule.server = {.mtbf_s = 1500, .mttr_s = 8};
  params.schedule.link = {.mtbf_s = 1500, .mttr_s = 8};
  params.schedule.horizon_s = 60;
  params.schedule.seed = 7;
  params.flow_rate_per_s = 5;
  params.traffic_seed = 11;
  params.shards = *shards;
  // One guaranteed whole-rack outage so recovery work is never left to
  // stochastic luck.
  params.scripted = FaultInjector::whole_rack(dc->topology(), util::TorId{0}, 10.0, 15.0);

  ChaosRunner runner(dc->orchestrator(), params);
  const ChaosReport report = runner.run();

  EXPECT_EQ(report.shard_count, params.shards);
  EXPECT_GT(report.fault_events, 10u);
  EXPECT_EQ(report.handler_errors, 0u);
  EXPECT_EQ(report.audit_violations, 0u)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.chains_unaccounted, 0u) << "a chain was silently lost";
  EXPECT_TRUE(report.clean());

  // The sharded agent actually did the sweeping: scan passes ran on every
  // shard and chains were visited. Scoped sweeps walk only each fault's
  // blast radius, so the visit total stays far below chains x events — that
  // gap is the whole point of the scoped pass.
  const auto* agent = dc->orchestrator().agent();
  ASSERT_NE(agent, nullptr);
  std::uint64_t scans = 0;
  std::uint64_t visited = 0;
  for (std::size_t s = 0; s < agent->shard_count(); ++s) {
    scans += agent->shard(s).counters().scans;
    visited += agent->shard(s).counters().chains_visited;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(visited, 0u);
}

TEST(ScaleSoakTest, MillionVmSmoke) {
  if (const char* env = std::getenv("ALVC_SCALE_SOAK"); env == nullptr ||
                                                        std::string(env) != "1") {
    GTEST_SKIP() << "set ALVC_SCALE_SOAK=1 to run the million-VM smoke";
  }
  const std::optional<std::size_t> shards = shard_count_from_env();
  ASSERT_TRUE(shards.has_value()) << bad_shards_message();

  ScaleShape shape;
  shape.racks = 12500;
  shape.servers_per_rack = 8;
  shape.vms_per_server = 10;  // 12,500 * 8 * 10 = 1,000,000 VMs
  // => 100,000 services/clusters/chains over 100,000 window OPSs.

  std::size_t provisioned = 0;
  auto dc = make_scale_dc(shape, &provisioned);
  ASSERT_GE(dc->topology().vm_count(), 1000000u);
  EXPECT_EQ(provisioned, 100000u) << "every rack-local chain should admit";
  ASSERT_GE(dc->orchestrator().chain_count(), 100000u);

  ChaosParams params;
  // ~40 stochastic events across the 160k-element fleet, plus a scripted
  // whole-rack outage that guarantees recovery work lands on real chains.
  params.schedule.ops = {.mtbf_s = 120000, .mttr_s = 6};
  params.schedule.tor = {.mtbf_s = 240000, .mttr_s = 6};
  params.schedule.server = {.mtbf_s = 120000, .mttr_s = 6};
  params.schedule.link = {.mtbf_s = 240000, .mttr_s = 6};
  params.schedule.horizon_s = 30;
  params.schedule.seed = 3;
  params.shards = *shards;
  // Per-event audits over 100k chains would dominate the run; the closing
  // audit still checks every invariant once.
  params.audit_every_event = false;
  params.scripted = FaultInjector::whole_rack(dc->topology(), util::TorId{0}, 5.0, 10.0);

  ChaosRunner runner(dc->orchestrator(), params);
  const ChaosReport report = runner.run();

  EXPECT_EQ(report.shard_count, params.shards);
  EXPECT_GT(report.failures_injected, 0u);
  EXPECT_EQ(report.handler_errors, 0u);
  EXPECT_EQ(report.audit_violations, 0u)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.chains_unaccounted, 0u) << "a chain was silently lost";
  EXPECT_TRUE(report.clean());
  EXPECT_GE(report.chains_live_healthy + report.chains_live_degraded +
                dc->orchestrator().stats().chains_lost,
            100000u);
}

}  // namespace
}  // namespace alvc::faults
