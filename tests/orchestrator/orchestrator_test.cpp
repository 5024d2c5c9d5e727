// End-to-end orchestration tests (integration across cluster/nfv/sdn/
// orchestrator): provision -> inspect -> scale -> teardown, plus the
// paper's one-NFC-per-VC and isolation claims.
#include "orchestrator/orchestrator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/service.h"
#include "support/fixtures.h"
#include "topology/builder.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::ErrorCode;
using alvc::util::ServiceId;
using alvc::util::TenantId;

struct OrchFixture : ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};

  NfcSpec chain(std::initializer_list<VnfType> types, ServiceId service = ServiceId{0},
                double bandwidth = 1.0) {
    NfcSpec spec;
    spec.tenant = TenantId{1};
    spec.name = "chain";
    spec.bandwidth_gbps = bandwidth;
    spec.service = service;
    for (auto t : types) spec.functions.push_back(*catalog.find_by_type(t));
    return spec;
  }
};

TEST(OrchestratorTest, ProvisionEndToEnd) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id = f.orch.provision_chain(
      f.chain({VnfType::kFirewall, VnfType::kNat, VnfType::kLoadBalancer}), placement);
  ASSERT_TRUE(id.has_value()) << id.error().to_string();
  const auto* chain = f.orch.chain(*id);
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->instances.size(), 3u);
  EXPECT_EQ(chain->placement.hosts.size(), 3u);
  EXPECT_GT(chain->flow_rules, 0u);
  EXPECT_EQ(f.orch.cloud().lifecycle().active_count(), 3u);
  EXPECT_EQ(f.orch.slices().slice_count(), 1u);
  EXPECT_TRUE(f.orch.check_isolation().empty());
  EXPECT_EQ(f.orch.stats().chains_provisioned, 1u);
}

TEST(OrchestratorTest, OneChainPerCluster) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  ASSERT_TRUE(f.orch.provision_chain(f.chain({VnfType::kFirewall}), placement).has_value());
  const auto second = f.orch.provision_chain(f.chain({VnfType::kNat}), placement);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().code, ErrorCode::kConflict);
  EXPECT_EQ(f.orch.stats().provision_failures, 1u);
}

TEST(OrchestratorTest, UnknownServiceRejected) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id = f.orch.provision_chain(f.chain({VnfType::kFirewall}, ServiceId{9}), placement);
  ASSERT_FALSE(id.has_value());
  EXPECT_EQ(id.error().code, ErrorCode::kNotFound);
}

TEST(OrchestratorTest, AdmissionRejectionRollsBackCleanly) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id = f.orch.provision_chain(f.chain({VnfType::kFirewall}, ServiceId{0}, 999.0),
                                         placement);
  ASSERT_FALSE(id.has_value());
  EXPECT_EQ(id.error().code, ErrorCode::kRejected);
  EXPECT_EQ(f.orch.slices().slice_count(), 0u);
  EXPECT_EQ(f.orch.cloud().lifecycle().instance_count(), 0u);
  EXPECT_EQ(f.orch.controller().tables().total_rules(), 0u);
  // The cluster is still usable afterwards.
  EXPECT_TRUE(f.orch.provision_chain(f.chain({VnfType::kFirewall}), placement).has_value());
}

TEST(OrchestratorTest, TeardownReleasesEverything) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id =
      f.orch.provision_chain(f.chain({VnfType::kFirewall, VnfType::kDeepPacketInspection}),
                             placement);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(f.orch.teardown_chain(*id).is_ok());
  EXPECT_EQ(f.orch.chain_count(), 0u);
  EXPECT_EQ(f.orch.slices().slice_count(), 0u);
  EXPECT_EQ(f.orch.cloud().lifecycle().active_count(), 0u);
  EXPECT_EQ(f.orch.controller().tables().total_rules(), 0u);
  // Capacity returned: a new identical chain provisions again.
  EXPECT_TRUE(
      f.orch.provision_chain(f.chain({VnfType::kFirewall, VnfType::kDeepPacketInspection}),
                             placement)
          .has_value());
  EXPECT_FALSE(f.orch.teardown_chain(*id).is_ok()) << "second teardown must fail";
}

TEST(OrchestratorTest, ScaleFunctionRoundTrip) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id = f.orch.provision_chain(f.chain({VnfType::kFirewall}), placement);
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(f.orch.scale_function(*id, 0, 2.0).is_ok());
  EXPECT_FALSE(f.orch.scale_function(*id, 5, 2.0).is_ok());
  EXPECT_FALSE(f.orch.scale_function(alvc::util::NfcId{99}, 0, 2.0).is_ok());
}

TEST(OrchestratorTest, RouteStartsAndEndsAtClusterTors) {
  OrchFixture f;
  const GreedyOpticalPlacement placement;
  const auto id = f.orch.provision_chain(f.chain({VnfType::kFirewall, VnfType::kNat}), placement);
  ASSERT_TRUE(id.has_value());
  const auto* chain = f.orch.chain(*id);
  const auto& layer = f.cluster().layer;
  const std::size_t first = chain->route.vertices.front();
  const std::size_t last = chain->route.vertices.back();
  EXPECT_FALSE(f.topo.is_ops_vertex(first));
  EXPECT_FALSE(f.topo.is_ops_vertex(last));
  EXPECT_TRUE(layer.contains_tor(f.topo.vertex_to_tor(first)));
  EXPECT_TRUE(layer.contains_tor(f.topo.vertex_to_tor(last)));
}

TEST(OrchestratorTest, MultiTenantChainsAreIsolated) {
  // Bigger DC with several service clusters, one chain each.
  alvc::topology::TopologyParams params;
  params.seed = 5;
  params.rack_count = 9;
  params.ops_count = 36;
  params.tor_ops_degree = 8;
  params.service_count = 3;
  params.optoelectronic_fraction = 0.5;
  params.core = alvc::topology::CoreKind::kRing;
  auto topo = alvc::topology::build_topology(params);
  alvc::cluster::ClusterManager manager(topo);
  const alvc::cluster::VertexCoverAlBuilder builder;
  const auto ids = manager.create_clusters_by_service(builder);
  ASSERT_TRUE(ids.has_value()) << ids.error().to_string();

  const auto catalog = alvc::nfv::VnfCatalog::make_default();
  NetworkOrchestrator orch(manager, catalog);
  const GreedyOpticalPlacement placement;
  for (std::uint32_t s = 0; s < 3; ++s) {
    NfcSpec spec;
    spec.tenant = TenantId{s};
    spec.name = "tenant-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.service = ServiceId{s};
    spec.functions = {*catalog.find_by_type(VnfType::kFirewall),
                      *catalog.find_by_type(VnfType::kNat)};
    const auto id = orch.provision_chain(spec, placement);
    ASSERT_TRUE(id.has_value()) << "tenant " << s << ": " << id.error().to_string();
  }
  EXPECT_EQ(orch.chain_count(), 3u);
  EXPECT_TRUE(orch.check_isolation().empty());
  // No two chains share an OPS on their routes (ALs are disjoint). A chain
  // may revisit its own OPS across legs, so dedupe per chain first.
  std::vector<std::size_t> all_vertices;
  for (const auto* chain : orch.chains()) {
    std::set<std::size_t> own;
    for (std::size_t v : chain->route.vertices) {
      if (topo.is_ops_vertex(v)) own.insert(v);
    }
    all_vertices.insert(all_vertices.end(), own.begin(), own.end());
  }
  std::sort(all_vertices.begin(), all_vertices.end());
  EXPECT_EQ(std::adjacent_find(all_vertices.begin(), all_vertices.end()), all_vertices.end())
      << "two chains rode the same OPS";
}

TEST(OrchestratorTest, ChainIndexStaysIdOrderedUnderChurn) {
  // Three one-chain service clusters; provisions interleave with teardowns
  // of the first, a middle and the last id, and chains() must list the
  // live set in ascending id order, each entry the pointer chain(id) gives.
  alvc::topology::TopologyParams params;
  params.seed = 5;
  params.rack_count = 9;
  params.ops_count = 36;
  params.tor_ops_degree = 8;
  params.service_count = 3;
  params.optoelectronic_fraction = 0.5;
  params.core = alvc::topology::CoreKind::kRing;
  auto topo = alvc::topology::build_topology(params);
  alvc::cluster::ClusterManager manager(topo);
  const alvc::cluster::VertexCoverAlBuilder builder;
  ASSERT_TRUE(manager.create_clusters_by_service(builder).has_value());
  const auto catalog = alvc::nfv::VnfCatalog::make_default();
  NetworkOrchestrator orch(manager, catalog);
  const GreedyOpticalPlacement placement;

  std::vector<NfcId> live;  // the expected index, ascending
  const auto expect_index = [&](const char* step) {
    SCOPED_TRACE(step);
    const auto chains = orch.chains();
    ASSERT_EQ(chains.size(), live.size());
    EXPECT_EQ(orch.chain_count(), live.size());
    for (std::size_t i = 0; i < chains.size(); ++i) {
      EXPECT_EQ(chains[i]->record.id, live[i]);
      EXPECT_EQ(orch.chain(live[i]), chains[i]);
    }
  };
  const auto provision = [&](std::uint32_t service) {
    NfcSpec spec;
    spec.tenant = TenantId{service};
    spec.name = "tenant-" + std::to_string(service);
    spec.bandwidth_gbps = 1.0;
    spec.service = ServiceId{service};
    spec.functions = {*catalog.find_by_type(VnfType::kFirewall)};
    return orch.provision_chain(spec, placement);
  };
  const auto add = [&](std::uint32_t service) {
    const auto id = provision(service);
    ASSERT_TRUE(id.has_value()) << id.error().to_string();
    ASSERT_TRUE(live.empty() || live.back() < *id);
    live.push_back(*id);
  };
  const auto remove = [&](NfcId id) {
    ASSERT_TRUE(orch.teardown_chain(id).is_ok());
    live.erase(std::find(live.begin(), live.end(), id));
  };

  expect_index("empty");
  for (std::uint32_t s = 0; s < 3; ++s) add(s);
  expect_index("three provisioned");
  // A refused provision (the service's cluster is taken) leaves it alone.
  EXPECT_FALSE(provision(1).has_value());
  expect_index("refused provision");

  const auto service_of = [&](NfcId id) { return orch.chain(id)->record.spec.service.value(); };
  const NfcId first = live.front();
  const std::uint32_t first_service = service_of(first);
  remove(first);
  expect_index("first torn down");
  add(first_service);
  expect_index("re-provisioned after first");

  const NfcId middle = live[1];
  const std::uint32_t middle_service = service_of(middle);
  remove(middle);
  expect_index("middle torn down");
  add(middle_service);
  expect_index("re-provisioned after middle");

  const NfcId last = live.back();
  const std::uint32_t last_service = service_of(last);
  remove(last);
  expect_index("last torn down");
  add(last_service);
  expect_index("re-provisioned after last");

  while (!live.empty()) remove(live[live.size() / 2]);
  expect_index("all torn down");
  ASSERT_FALSE(orch.teardown_chain(first).is_ok());
  expect_index("teardown of a dead id");
}

}  // namespace
}  // namespace alvc::orchestrator
