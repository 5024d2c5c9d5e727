#include "topology/topology.h"

#include <gtest/gtest.h>

namespace alvc::topology {
namespace {

using alvc::util::ServiceId;

DataCenterTopology small_dc() {
  // 2 ToRs, 2 servers each, 2 VMs per server, 3 OPSs.
  DataCenterTopology topo;
  const OpsId o0 = topo.add_ops();
  const OpsId o1 = topo.add_ops(true, Resources{.cpu_cores = 4, .memory_gb = 8, .storage_gb = 32});
  const OpsId o2 = topo.add_ops();
  topo.connect_ops_ops(o0, o1);
  topo.connect_ops_ops(o1, o2);
  for (int t = 0; t < 2; ++t) {
    const TorId tor = topo.add_tor();
    topo.connect_tor_ops(tor, t == 0 ? o0 : o2);
    topo.connect_tor_ops(tor, o1);
    for (int s = 0; s < 2; ++s) {
      const ServerId server = topo.add_server(tor, Resources{.cpu_cores = 16, .memory_gb = 64, .storage_gb = 512});
      for (int v = 0; v < 2; ++v) {
        topo.add_vm(server, ServiceId{static_cast<ServiceId::value_type>(v)});
      }
    }
  }
  return topo;
}

TEST(TopologyTest, Counts) {
  const auto topo = small_dc();
  EXPECT_EQ(topo.tor_count(), 2u);
  EXPECT_EQ(topo.server_count(), 4u);
  EXPECT_EQ(topo.vm_count(), 8u);
  EXPECT_EQ(topo.ops_count(), 3u);
}

TEST(TopologyTest, IdsAreDense) {
  const auto topo = small_dc();
  for (std::size_t i = 0; i < topo.vm_count(); ++i) {
    EXPECT_EQ(topo.vms()[i].id.index(), i);
  }
  for (std::size_t i = 0; i < topo.ops_count(); ++i) {
    EXPECT_EQ(topo.opss()[i].id.index(), i);
  }
}

TEST(TopologyTest, LinksAreMirrored) {
  const auto topo = small_dc();
  const auto& tor0 = topo.tor(TorId{0});
  ASSERT_EQ(tor0.uplinks.size(), 2u);
  for (OpsId o : tor0.uplinks) {
    const auto& links = topo.ops(o).tor_links;
    EXPECT_NE(std::find(links.begin(), links.end(), TorId{0}), links.end());
  }
}

TEST(TopologyTest, TorOfVmFollowsServer) {
  const auto topo = small_dc();
  for (const auto& vm : topo.vms()) {
    EXPECT_EQ(topo.tor_of_vm(vm.id), topo.server(vm.server).tor);
  }
}

TEST(TopologyTest, TorsOfVmVisitPrimaryThenSecondaryHomings) {
  auto topo = small_dc();
  const VmId vm{0};
  topo.add_server_homing(topo.vm(vm).server, TorId{1});
  std::vector<TorId> seen;
  topo.for_each_tor_of_vm(vm, [&](TorId t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<TorId>{TorId{0}, TorId{1}}));

  // any_tor_of_vm stops at the first accepted homing.
  std::size_t calls = 0;
  EXPECT_TRUE(topo.any_tor_of_vm(vm, [&](TorId t) {
    ++calls;
    return t == TorId{0};
  }));
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(topo.any_tor_of_vm(VmId{7}, [](TorId t) { return t == TorId{0}; }));
}

TEST(TopologyTest, OptoelectronicFlagAndCompute) {
  const auto topo = small_dc();
  EXPECT_FALSE(topo.ops(OpsId{0}).optoelectronic);
  EXPECT_TRUE(topo.ops(OpsId{1}).optoelectronic);
  EXPECT_GT(topo.ops(OpsId{1}).compute.cpu_cores, 0);
  EXPECT_EQ(topo.ops(OpsId{0}).compute.cpu_cores, 0);
}

TEST(TopologyTest, PlainOpsDropsComputeArgument) {
  DataCenterTopology topo;
  topo.add_ops(false, Resources{.cpu_cores = 99, .memory_gb = 0, .storage_gb = 0});
  EXPECT_EQ(topo.ops(OpsId{0}).compute.cpu_cores, 0);
}

TEST(TopologyTest, SwitchGraphLayout) {
  const auto topo = small_dc();
  const auto& g = topo.switch_graph();
  EXPECT_EQ(g.vertex_count(), 5u);  // 2 ToRs + 3 OPSs
  // ToR-OPS links: 4; OPS-OPS links: 2.
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_FALSE(topo.is_ops_vertex(0));
  EXPECT_FALSE(topo.is_ops_vertex(1));
  EXPECT_TRUE(topo.is_ops_vertex(2));
  EXPECT_EQ(topo.vertex_domain(0), Domain::kElectronic);
  EXPECT_EQ(topo.vertex_domain(2), Domain::kOptical);
  EXPECT_EQ(topo.vertex_to_ops(2), OpsId{0});
  EXPECT_EQ(topo.vertex_to_tor(1), TorId{1});
  EXPECT_THROW((void)topo.vertex_to_ops(1), std::out_of_range);
  EXPECT_THROW((void)topo.vertex_to_tor(2), std::out_of_range);
}

TEST(TopologyTest, SwitchGraphRebuildsAfterMutation) {
  auto topo = small_dc();
  const auto before = topo.switch_graph().edge_count();
  const auto o = topo.add_ops();
  topo.connect_tor_ops(TorId{0}, o);
  EXPECT_EQ(topo.switch_graph().edge_count(), before + 1);
  EXPECT_EQ(topo.switch_graph().vertex_count(), 6u);
}

TEST(TopologyTest, VmTorGraphRestrictedToGroup) {
  const auto topo = small_dc();
  // VMs 0..3 live under ToR 0; 4..7 under ToR 1.
  const std::vector<VmId> group{VmId{0}, VmId{5}};
  const auto g = topo.vm_tor_graph(group);
  EXPECT_EQ(g.left_count(), 2u);
  EXPECT_EQ(g.right_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(1, 1));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(TopologyTest, TorOpsGraphMatchesUplinks) {
  const auto topo = small_dc();
  const auto g = topo.tor_ops_graph();
  EXPECT_EQ(g.left_count(), 2u);
  EXPECT_EQ(g.right_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 0));  // ToR0 -> OPS0
  EXPECT_TRUE(g.has_edge(0, 1));  // ToR0 -> OPS1
  EXPECT_TRUE(g.has_edge(1, 2));  // ToR1 -> OPS2
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(TopologyTest, SelfOpsLinkThrows) {
  DataCenterTopology topo;
  const auto o = topo.add_ops();
  EXPECT_THROW(topo.connect_ops_ops(o, o), std::invalid_argument);
}

TEST(TopologyTest, BadReferencesThrow) {
  DataCenterTopology topo;
  EXPECT_THROW(topo.add_server(TorId{0}, Resources{}), std::out_of_range);
  EXPECT_THROW(topo.add_vm(ServerId{0}, ServiceId{0}), std::out_of_range);
  const auto o = topo.add_ops();
  EXPECT_THROW(topo.connect_tor_ops(TorId{3}, o), std::out_of_range);
}

TEST(ResourcesTest, FitsWithinAndArithmetic) {
  const Resources small{.cpu_cores = 1, .memory_gb = 2, .storage_gb = 3};
  const Resources big{.cpu_cores = 10, .memory_gb = 20, .storage_gb = 30};
  EXPECT_TRUE(small.fits_within(big));
  EXPECT_FALSE(big.fits_within(small));
  const auto sum = small + big;
  EXPECT_DOUBLE_EQ(sum.cpu_cores, 11);
  const auto diff = big - small;
  EXPECT_DOUBLE_EQ(diff.storage_gb, 27);
  EXPECT_TRUE(diff.non_negative());
  EXPECT_FALSE((small - big).non_negative());
}

}  // namespace
}  // namespace alvc::topology
