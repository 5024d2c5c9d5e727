#include "orchestrator/routing.h"

#include <gtest/gtest.h>

#include "orchestrator/route_cache.h"
#include "support/fixtures.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::HostRef;
using alvc::test::ClusterFixture;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;

TEST(ChainRouterTest, AttachVertices) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  // Server 0 is on ToR 0 -> tor vertex 0; OPS 2 -> vertex tor_count + 2.
  EXPECT_EQ(router.attach_vertex(HostRef{ServerId{0}}), f.topo.tor_vertex(TorId{0}));
  EXPECT_EQ(router.attach_vertex(HostRef{OpsId{2}}), f.topo.ops_vertex(OpsId{2}));
}

TEST(ChainRouterTest, RouteVisitsHostsInOrder) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  const std::vector<HostRef> hosts{OpsId{0}, OpsId{2}};
  const auto route = router.route(f.cluster(), TorId{0}, TorId{1}, hosts);
  ASSERT_TRUE(route.has_value()) << route.error().to_string();
  // Legs: T0 -> O0, O0 -> O2, O2 -> T1.
  ASSERT_EQ(route->legs.size(), 3u);
  EXPECT_EQ(route->legs.front().front(), f.topo.tor_vertex(TorId{0}));
  EXPECT_EQ(route->legs.back().back(), f.topo.tor_vertex(TorId{1}));
  EXPECT_FALSE(route->vertices.empty());
  EXPECT_EQ(route->vertices.front(), f.topo.tor_vertex(TorId{0}));
  EXPECT_EQ(route->vertices.back(), f.topo.tor_vertex(TorId{1}));
  EXPECT_EQ(route->conversions.mid_chain, 0u);  // all-optical hosts
  EXPECT_GT(route->optical_hops, 0u);
}

TEST(ChainRouterTest, WalkIsContiguousInSwitchGraph) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  const std::vector<HostRef> hosts{ServerId{0}, OpsId{2}, ServerId{3}};
  const auto route = router.route(f.cluster(), TorId{0}, TorId{1}, hosts);
  ASSERT_TRUE(route.has_value());
  const auto& g = f.topo.switch_graph();
  for (std::size_t i = 0; i + 1 < route->vertices.size(); ++i) {
    EXPECT_TRUE(g.has_edge(route->vertices[i], route->vertices[i + 1]))
        << "hop " << route->vertices[i] << " -> " << route->vertices[i + 1];
  }
  EXPECT_EQ(route->conversions.mid_chain, 2u);  // two electronic excursions
}

TEST(ChainRouterTest, SameVertexLegCollapses) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  // Two VNFs on servers of the same rack: both attach at ToR0.
  const std::vector<HostRef> hosts{ServerId{0}, ServerId{1}};
  const auto route = router.route(f.cluster(), TorId{0}, TorId{1}, hosts);
  ASSERT_TRUE(route.has_value());
  // First legs are trivial (T0 -> T0); walk still starts at T0 once.
  EXPECT_EQ(route->vertices.front(), f.topo.tor_vertex(TorId{0}));
  std::size_t t0_occurrences = 0;
  for (std::size_t v : route->vertices) {
    if (v == f.topo.tor_vertex(TorId{0})) ++t0_occurrences;
  }
  EXPECT_EQ(t0_occurrences, 1u);
}

TEST(ChainRouterTest, StaysInsideSlice) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  const std::vector<HostRef> hosts{OpsId{0}};
  const auto route = router.route(f.cluster(), TorId{0}, TorId{1}, hosts);
  ASSERT_TRUE(route.has_value());
  const auto& layer = f.cluster().layer;
  for (std::size_t v : route->vertices) {
    if (f.topo.is_ops_vertex(v)) {
      EXPECT_TRUE(layer.contains_ops(f.topo.vertex_to_ops(v)))
          << "route used OPS outside the AL";
    } else {
      EXPECT_TRUE(layer.contains_tor(f.topo.vertex_to_tor(v)));
    }
  }
}

TEST(ChainRouterTest, InfeasibleWhenSliceDisconnected) {
  // A cluster whose AL cannot reach the egress ToR.
  alvc::topology::DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();  // not in the AL, no path allowed through it
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  const auto s0 = topo.add_server(t0, {});
  topo.add_vm(s0, alvc::util::ServiceId{0});
  alvc::cluster::VirtualCluster vc;
  vc.id = alvc::util::ClusterId{0};
  vc.layer.tors = {t0, t1};
  vc.layer.opss = {o0};  // o1 deliberately excluded
  ChainRouter router(topo);
  const std::vector<HostRef> hosts{OpsId{0}};
  const auto route = router.route(vc, t0, t1, hosts);
  ASSERT_FALSE(route.has_value());
  EXPECT_EQ(route.error().code, ErrorCode::kInfeasible);
}

/// Two slices over one fabric, T0 and T1 in both: `wide`'s AL holds O2,
/// which bridges the ToRs; `split`'s AL holds O0 and O1, which do not
/// touch each other, so no path joins its ToRs inside its slice. A slice
/// set that kept `wide`'s vertices would route `split` through O2.
struct TwoSlices {
  alvc::topology::DataCenterTopology topo;
  alvc::cluster::VirtualCluster wide;
  alvc::cluster::VirtualCluster split;
  TorId t0;
  TorId t1;

  TwoSlices() {
    const OpsId o0 = topo.add_ops();
    const OpsId o1 = topo.add_ops();
    const OpsId o2 = topo.add_ops();
    t0 = topo.add_tor();
    t1 = topo.add_tor();
    topo.connect_tor_ops(t0, o0);
    topo.connect_tor_ops(t1, o1);
    topo.connect_tor_ops(t0, o2);
    topo.connect_tor_ops(t1, o2);
    wide.id = alvc::util::ClusterId{1};
    wide.layer.tors = {t0, t1};
    wide.layer.opss = {o2};
    split.id = alvc::util::ClusterId{2};
    split.layer.tors = {t0, t1};
    split.layer.opss = {o0, o1};
  }
};

void expect_same_route(const Expected<ChainRoute>& got, const Expected<ChainRoute>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want.has_value()) {
    EXPECT_EQ(got.error().code, want.error().code);
    return;
  }
  EXPECT_EQ(got->legs, want->legs);
  EXPECT_EQ(got->vertices, want->vertices);
}

TEST(ChainRouterTest, ReusedRouterMatchesFreshAcrossClusters) {
  TwoSlices f;
  const std::vector<HostRef> hosts;
  ChainRouter reused(f.topo);
  for (const auto* vc : {&f.wide, &f.split, &f.wide}) {
    SCOPED_TRACE("cluster " + std::to_string(vc->id.value()));
    ChainRouter fresh(f.topo);
    expect_same_route(reused.route(*vc, f.t0, f.t1, hosts), fresh.route(*vc, f.t0, f.t1, hosts));
  }
  EXPECT_FALSE(ChainRouter(f.topo).route(f.split, f.t0, f.t1, hosts).has_value());
}

TEST(RouteCacheTest, ReusedCacheMatchesFreshAcrossClusters) {
  TwoSlices f;
  const std::vector<HostRef> hosts;
  ChainRouter router(f.topo);
  RouteCache reused(f.topo);
  for (const auto* vc : {&f.wide, &f.split, &f.wide}) {
    SCOPED_TRACE("cluster " + std::to_string(vc->id.value()));
    RouteCache fresh(f.topo);
    expect_same_route(reused.route(router, *vc, f.t0, f.t1, hosts, BandwidthTier::kFull),
                      fresh.route(router, *vc, f.t0, f.t1, hosts, BandwidthTier::kFull));
  }
  EXPECT_EQ(reused.stats().bypasses, 0u) << "vacuous: the routes never reached the cache";
}

TEST(ChainRouterTest, HopDomainSplit) {
  ClusterFixture f;
  ChainRouter router(f.topo);
  const std::vector<HostRef> hosts{OpsId{0}, OpsId{2}};
  const auto route = router.route(f.cluster(), TorId{0}, TorId{1}, hosts);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->total_hops(), route->optical_hops + route->electronic_hops);
  EXPECT_EQ(route->total_hops() + 1, route->vertices.size());
}

}  // namespace
}  // namespace alvc::orchestrator
