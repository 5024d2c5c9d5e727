// Heap allocations of a link flip. This binary replaces the global
// operator new with a counting one, builds the fault_storm fabric of
// BM_FaultStormLinkCycleOffLayer (bench/bench_failure_recovery.cpp: 1024
// racks, 512 two-rack clusters, 4 of them held degraded behind dead ToRs)
// and cycles an uplink of a healthy cluster's ToR that no AL on that ToR
// uses. Once the retry queue has spent its attempts and every owner-held
// buffer has grown, a failure + recovery through the orchestrator must
// allocate nothing: the cut flags live beside the ToR's uplinks, the
// handlers reuse their buffers, and the restore pass wakes no cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/alvc.h"
#include "support/reference_plane.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace alvc {
namespace {

/// bench_failure_recovery's make_fault_storm_dc.
std::unique_ptr<core::DataCenter> make_fault_storm_dc() {
  core::DataCenterConfig config;
  config.topology.rack_count = 1024;
  config.topology.servers_per_rack = 4;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 1024;
  config.topology.tor_ops_degree = 3;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.service_count = 512;
  config.topology.server_local_services = true;
  config.topology.seed = 20160627;
  auto dc = std::make_unique<core::DataCenter>(config);
  if (auto built = dc->build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  for (std::uint32_t s = 0; s < 512; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc->catalog().find_by_type(nfv::VnfType::kFirewall)};
    if (!dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical).has_value()) {
      throw std::runtime_error("provisioning chain " + std::to_string(s) + " failed");
    }
  }
  return dc;
}

TEST(LinkFlipAllocationTest, OffLayerLinkCycleAllocatesNothing) {
  auto dc = make_fault_storm_dc();
  auto& orch = dc->orchestrator();
  const auto clusters = dc->clusters().clusters();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(orch.handle_tor_failure(clusters[i * 64]->layer.tors.front()).has_value());
  }
  ASSERT_EQ(dc->clusters().degraded_cluster_ids().size(), 4u);

  // An uplink of healthy cluster 300's ToRs that no AL holding the ToR
  // uses (the bench fixture's off-layer pick).
  util::TorId tor = util::TorId::invalid();
  util::OpsId ops = util::OpsId::invalid();
  for (util::TorId t : clusters[300]->layer.tors) {
    const auto holders = dc->clusters().clusters_containing_tor(t);
    for (util::OpsId o : dc->topology().tor(t).uplinks) {
      const bool used = std::any_of(holders.begin(), holders.end(), [&](util::ClusterId id) {
        return dc->clusters().find(id)->layer.contains_ops(o);
      });
      if (!used && !tor.valid()) {
        tor = t;
        ops = o;
      }
    }
  }
  ASSERT_TRUE(tor.valid());

  const auto cycle = [&] {
    ASSERT_TRUE(orch.handle_link_failure(tor, ops).has_value());
    ASSERT_TRUE(orch.handle_link_recovery(tor, ops).has_value());
  };
  // Warm-up: every recovery drains the retry queue, and each retry of a
  // degraded chain re-places it; the queue empties once every entry has
  // spent its bounded attempts.
  for (int i = 0; i < 4000 && orch.retry_queue_size() > 0; ++i) cycle();
  ASSERT_EQ(orch.retry_queue_size(), 0u);
  for (int i = 0; i < 16; ++i) cycle();

  constexpr std::size_t kCycles = 500;
  test::ReferencePlane::reserve_control_log(orch, 2 * kCycles);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCycles; ++i) cycle();
  const std::size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kCycles << " link cycles";
  EXPECT_EQ(dc->clusters().degraded_cluster_ids().size(), 4u);
}

}  // namespace
}  // namespace alvc
