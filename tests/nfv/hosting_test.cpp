#include "nfv/hosting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "topology/builder.h"
#include "util/rng.h"

namespace alvc::nfv {
namespace {

using alvc::topology::DataCenterTopology;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;

DataCenterTopology hosting_dc() {
  DataCenterTopology topo;
  topo.add_ops(true, Resources{.cpu_cores = 4, .memory_gb = 8, .storage_gb = 32});  // OE router
  topo.add_ops();                                                                   // plain OPS
  const auto t = topo.add_tor();
  topo.connect_tor_ops(t, OpsId{0});
  topo.connect_tor_ops(t, OpsId{1});
  topo.add_server(t, Resources{.cpu_cores = 16, .memory_gb = 64, .storage_gb = 512});
  return topo;
}

TEST(HostingPoolTest, NominalCapacities) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  EXPECT_DOUBLE_EQ(pool.free_capacity(HostRef{ServerId{0}}).cpu_cores, 16);
  EXPECT_DOUBLE_EQ(pool.free_capacity(HostRef{OpsId{0}}).cpu_cores, 4);
  EXPECT_DOUBLE_EQ(pool.free_capacity(HostRef{OpsId{1}}).cpu_cores, 0);
}

TEST(HostingPoolTest, PlainOpsNeverHosts) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const Resources tiny{.cpu_cores = 0.1, .memory_gb = 0.1, .storage_gb = 0.1};
  EXPECT_FALSE(pool.fits(HostRef{OpsId{1}}, tiny));
  EXPECT_TRUE(pool.fits(HostRef{OpsId{0}}, tiny));
}

TEST(HostingPoolTest, ReserveAndRelease) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const Resources demand{.cpu_cores = 2, .memory_gb = 4, .storage_gb = 8};
  ASSERT_TRUE(pool.reserve(HostRef{OpsId{0}}, demand).is_ok());
  EXPECT_DOUBLE_EQ(pool.free_capacity(HostRef{OpsId{0}}).cpu_cores, 2);
  // Second identical reservation exceeds memory (4+4 <= 8 ok) — cpu 2+2 <= 4 ok,
  // storage 8+8 <= 32 ok: it fits exactly.
  ASSERT_TRUE(pool.reserve(HostRef{OpsId{0}}, demand).is_ok());
  // Third does not.
  const auto status = pool.reserve(HostRef{OpsId{0}}, demand);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCapacityExceeded);
  pool.release(HostRef{OpsId{0}}, demand);
  EXPECT_TRUE(pool.reserve(HostRef{OpsId{0}}, demand).is_ok());
  EXPECT_TRUE(pool.is_consistent());
}

TEST(HostingPoolTest, OverReleaseClamped) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const Resources demand{.cpu_cores = 2, .memory_gb = 2, .storage_gb = 2};
  pool.release(HostRef{ServerId{0}}, demand);  // nothing reserved
  EXPECT_DOUBLE_EQ(pool.free_capacity(HostRef{ServerId{0}}).cpu_cores, 16);
  EXPECT_TRUE(pool.is_consistent());
}

void expect_zero(const Resources& r) {
  EXPECT_DOUBLE_EQ(r.cpu_cores, 0);
  EXPECT_DOUBLE_EQ(r.memory_gb, 0);
  EXPECT_DOUBLE_EQ(r.storage_gb, 0);
}

TEST(HostingPoolTest, UntouchedHostsHaveNothingReserved) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  expect_zero(pool.reserved_on(HostRef{ServerId{0}}));
  expect_zero(pool.reserved_on(HostRef{OpsId{0}}));
  expect_zero(pool.reserved_on(HostRef{OpsId{1}}));  // plain OPS
  // Booking one host leaves every other host at zero.
  ASSERT_TRUE(pool.reserve(HostRef{OpsId{0}}, Resources{.cpu_cores = 1}).is_ok());
  EXPECT_DOUBLE_EQ(pool.reserved_on(HostRef{OpsId{0}}).cpu_cores, 1);
  expect_zero(pool.reserved_on(HostRef{OpsId{1}}));
  expect_zero(pool.reserved_on(HostRef{ServerId{0}}));
}

TEST(HostingPoolTest, OverReleaseClampsEachDimensionAtZero) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const HostRef server{ServerId{0}};
  ASSERT_TRUE(pool.reserve(server, Resources{.cpu_cores = 2, .memory_gb = 8, .storage_gb = 10})
                  .is_ok());
  // More cpu and storage back than was booked, less memory.
  pool.release(server, Resources{.cpu_cores = 3, .memory_gb = 4, .storage_gb = 50});
  const Resources left = pool.reserved_on(server);
  EXPECT_DOUBLE_EQ(left.cpu_cores, 0);
  EXPECT_DOUBLE_EQ(left.memory_gb, 4);
  EXPECT_DOUBLE_EQ(left.storage_gb, 0);
  EXPECT_DOUBLE_EQ(pool.free_capacity(server).cpu_cores, 16);
  EXPECT_DOUBLE_EQ(pool.free_capacity(server).storage_gb, 512);
  EXPECT_TRUE(pool.is_consistent());
}

TEST(HostingPoolTest, OverCommitIsInconsistent) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  ASSERT_TRUE(pool.reserve(HostRef{OpsId{0}}, Resources{.cpu_cores = 4}).is_ok());
  EXPECT_TRUE(pool.is_consistent());
  // reserve() refuses to over-commit; a negative release is the one way
  // past nominal capacity, and is_consistent() must see it on any host.
  pool.release(HostRef{OpsId{0}}, Resources{.cpu_cores = -1});
  EXPECT_DOUBLE_EQ(pool.reserved_on(HostRef{OpsId{0}}).cpu_cores, 5);
  EXPECT_FALSE(pool.is_consistent());
  pool.release(HostRef{OpsId{0}}, Resources{.cpu_cores = 1});
  EXPECT_TRUE(pool.is_consistent());
  // A plain OPS has no capacity at all: any booking over-commits it.
  pool.release(HostRef{OpsId{1}}, Resources{.memory_gb = -0.5});
  EXPECT_FALSE(pool.is_consistent());
}

TEST(HostingPoolTest, HostsAddedAfterThePoolAreTracked) {
  auto topo = hosting_dc();
  HostingPool pool(topo);
  ASSERT_TRUE(pool.reserve(HostRef{ServerId{0}}, Resources{.cpu_cores = 1}).is_ok());
  const auto server = topo.add_server(alvc::util::TorId{0}, Resources{.cpu_cores = 8});
  const auto ops = topo.add_ops(true, Resources{.cpu_cores = 2, .memory_gb = 2});
  expect_zero(pool.reserved_on(HostRef{server}));
  expect_zero(pool.reserved_on(HostRef{ops}));
  ASSERT_TRUE(pool.reserve(HostRef{server}, Resources{.cpu_cores = 8}).is_ok());
  ASSERT_TRUE(pool.reserve(HostRef{ops}, Resources{.cpu_cores = 2}).is_ok());
  EXPECT_DOUBLE_EQ(pool.reserved_on(HostRef{server}).cpu_cores, 8);
  EXPECT_DOUBLE_EQ(pool.reserved_on(HostRef{ops}).cpu_cores, 2);
  EXPECT_DOUBLE_EQ(pool.reserved_on(HostRef{ServerId{0}}).cpu_cores, 1);
  EXPECT_TRUE(pool.is_consistent());
  // Hosts the topology does not have are refused, as topology lookups are.
  EXPECT_THROW(pool.release(HostRef{ServerId{99}}, Resources{.cpu_cores = 1}),
               std::out_of_range);
  EXPECT_THROW(pool.release(HostRef{OpsId{99}}, Resources{.cpu_cores = 1}), std::out_of_range);
}

/// The utilization formula recomputed from the topology and the books:
/// max over dimensions of used / nominal, 0 for a dimension with no
/// capacity; a plain OPS has no capacity at all.
double recomputed_utilization(const DataCenterTopology& topo, const HostingPool& pool,
                              const HostRef& host) {
  Resources nominal;
  if (const auto* server = std::get_if<ServerId>(&host)) {
    nominal = topo.server(*server).capacity;
  } else if (const auto& ops = topo.ops(std::get<OpsId>(host)); ops.optoelectronic) {
    nominal = ops.compute;
  }
  const Resources used = pool.reserved_on(host);
  const auto ratio = [](double u, double n) { return n > 0 ? u / n : 0.0; };
  double util = ratio(used.cpu_cores, nominal.cpu_cores);
  util = std::max(util, ratio(used.memory_gb, nominal.memory_gb));
  util = std::max(util, ratio(used.storage_gb, nominal.storage_gb));
  return util;
}

std::vector<HostRef> all_hosts(const DataCenterTopology& topo) {
  std::vector<HostRef> hosts;
  for (const auto& server : topo.servers()) hosts.emplace_back(server.id);
  for (const auto& ops : topo.opss()) hosts.emplace_back(ops.id);
  return hosts;
}

TEST(HostingPoolTest, PeakFollowsTheHottestHost) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const HostRef oe{OpsId{0}};
  const HostRef server{ServerId{0}};
  EXPECT_EQ(pool.peak_utilization(), 0.0);
  ASSERT_TRUE(pool.reserve(oe, Resources{.cpu_cores = 2}).is_ok());       // 2/4
  ASSERT_TRUE(pool.reserve(server, Resources{.memory_gb = 16}).is_ok());  // 16/64
  EXPECT_EQ(pool.utilization(oe), 0.5);
  EXPECT_EQ(pool.utilization(server), 0.25);
  EXPECT_EQ(pool.peak_utilization(), 0.5);
  // The peak host cools below the runner-up: the peak moves to it.
  pool.release(oe, Resources{.cpu_cores = 2});
  EXPECT_EQ(pool.utilization(oe), 0.0);
  EXPECT_EQ(pool.peak_utilization(), 0.25);
  // A write above the peak raises it without a rescan.
  ASSERT_TRUE(pool.reserve(oe, Resources{.storage_gb = 24}).is_ok());  // 24/32
  EXPECT_EQ(pool.peak_utilization(), 0.75);
  EXPECT_TRUE(pool.is_consistent());
}

TEST(HostingPoolTest, CachedUtilizationMatchesTheFormulaUnderRandomBooking) {
  // Seeded reserve / release / over-release sequences, with a server and an
  // optoelectronic router added after the pool midway. Each step makes one
  // to three writes, so some writes land while the peak is stale; after
  // every step each host's cached utilization must equal the formula
  // bit-for-bit and the peak must equal the max over every host.
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    auto topo = hosting_dc();
    topo.add_ops(true, Resources{.cpu_cores = 2, .memory_gb = 6, .storage_gb = 20});
    topo.add_server(alvc::util::TorId{0}, Resources{.cpu_cores = 8, .memory_gb = 32});
    HostingPool pool(topo);
    alvc::util::Rng rng(seed);
    const auto random_demand = [&] {
      return Resources{.cpu_cores = rng.uniform(0, 3),
                       .memory_gb = rng.uniform(0, 8),
                       .storage_gb = rng.uniform(0, 40)};
    };
    for (int step = 0; step < 300; ++step) {
      if (step == 150) {
        topo.add_server(alvc::util::TorId{0},
                        Resources{.cpu_cores = 4, .memory_gb = 16, .storage_gb = 64});
        topo.add_ops(true, Resources{.cpu_cores = 3, .memory_gb = 3});
      }
      const auto hosts = all_hosts(topo);
      const std::size_t writes = 1 + rng.uniform_index(3);
      for (std::size_t w = 0; w < writes; ++w) {
        const HostRef host = hosts[rng.uniform_index(hosts.size())];
        const double action = rng.uniform01();
        if (action < 0.55) {
          ALVC_IGNORE_STATUS(pool.reserve(host, random_demand()), "refusals are part of the run");
        } else if (action < 0.85) {
          // Release part of what is booked.
          const Resources used = pool.reserved_on(host);
          const double share = rng.uniform01();
          pool.release(host, Resources{.cpu_cores = used.cpu_cores * share,
                                       .memory_gb = used.memory_gb * share,
                                       .storage_gb = used.storage_gb * share});
        } else {
          pool.release(host, random_demand());  // over-release: clamps at zero
        }
      }
      double expected_peak = 0;
      for (const HostRef& host : hosts) {
        const double expected = recomputed_utilization(topo, pool, host);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(pool.utilization(host)),
                  std::bit_cast<std::uint64_t>(expected))
            << "seed " << seed << " step " << step;
        expected_peak = std::max(expected_peak, expected);
      }
      ASSERT_EQ(pool.peak_utilization(), expected_peak) << "seed " << seed << " step " << step;
      ASSERT_TRUE(pool.is_consistent()) << "seed " << seed << " step " << step;
    }
  }
}

TEST(HostingPoolTest, OpticalHostEnumeration) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const Resources small{.cpu_cores = 1, .memory_gb = 1, .storage_gb = 1};
  const auto hosts = pool.optical_hosts_with_capacity(small);
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0], OpsId{0});
  // Restricted to a candidate list that excludes it.
  const std::vector<OpsId> only_plain{OpsId{1}};
  EXPECT_TRUE(pool.optical_hosts_with_capacity(small, only_plain).empty());
  // Demand too large for the OE router.
  const Resources huge{.cpu_cores = 100, .memory_gb = 1, .storage_gb = 1};
  EXPECT_TRUE(pool.optical_hosts_with_capacity(huge).empty());
}

TEST(HostingPoolTest, ElectronicHostEnumeration) {
  const auto topo = hosting_dc();
  HostingPool pool(topo);
  const Resources big{.cpu_cores = 10, .memory_gb = 32, .storage_gb = 100};
  const auto hosts = pool.electronic_hosts_with_capacity(big);
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0], ServerId{0});
  ASSERT_TRUE(pool.reserve(HostRef{ServerId{0}}, big).is_ok());
  EXPECT_TRUE(pool.electronic_hosts_with_capacity(big).empty());
}

TEST(HostingPoolTest, GeneratedTopologyRespectsOeFraction) {
  alvc::topology::TopologyParams params;
  params.ops_count = 10;
  params.optoelectronic_fraction = 0.4;
  const auto topo = alvc::topology::build_topology(params);
  HostingPool pool(topo);
  const Resources tiny{.cpu_cores = 0.5, .memory_gb = 0.5, .storage_gb = 0.5};
  EXPECT_EQ(pool.optical_hosts_with_capacity(tiny).size(), 4u);
}

}  // namespace
}  // namespace alvc::nfv
