// Epoch-versioned route cache: hit/revalidate/miss tiers, the variant ring
// under fail/recover oscillation, bandwidth-tier key partitioning, slice
// teardown invalidation, and coherence under churn. Every served path is
// checked against the uncached router — bit-identity is the contract.
#include <gtest/gtest.h>

#include <vector>

#include "faults/state_auditor.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/route_cache.h"
#include "orchestrator/routing.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::HostRef;
using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;

/// ClusterFixture plus a router/cache pair and a host list whose route has
/// real (non-trivial) legs: an in-slice optoelectronic OPS host between the
/// two ToR anchors.
struct CacheFixture : ClusterFixture {
  ChainRouter router{topo};
  RouteCache cache{topo};
  std::vector<HostRef> hosts;
  TorId ingress;
  TorId egress;

  CacheFixture() {
    const auto& layer = cluster().layer;
    ingress = layer.tors.front();
    egress = layer.tors.back();
    for (OpsId o : layer.opss) {
      if (topo.ops(o).optoelectronic) {
        hosts.push_back(HostRef{o});
        break;
      }
    }
    if (hosts.empty()) throw std::runtime_error("fixture AL has no optoelectronic OPS");
  }

  [[nodiscard]] Expected<ChainRoute> cached() { return cached_in(cluster()); }
  [[nodiscard]] Expected<ChainRoute> cached_in(const alvc::cluster::VirtualCluster& vc) {
    return cache.route(router, vc, ingress, egress, hosts, BandwidthTier::kFull);
  }
  /// A second slice over the same AL under another cluster id: the cache
  /// keys by id, so its legs live apart from the fixture cluster's.
  [[nodiscard]] alvc::cluster::VirtualCluster twin_cluster() const {
    alvc::cluster::VirtualCluster twin = cluster();
    twin.id = alvc::util::ClusterId{cluster_id.value() + 1};
    return twin;
  }
  [[nodiscard]] Expected<ChainRoute> uncached() {
    return router.route(cluster(), ingress, egress, hosts);
  }
};

void expect_same_stats(const RouteCacheStats& a, const RouteCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.revalidations, b.revalidations);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.stale_evictions, b.stale_evictions);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.invalidations, b.invalidations);
}

void expect_same_route(const Expected<ChainRoute>& a, const Expected<ChainRoute>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) return;
  EXPECT_EQ(a->vertices, b->vertices);
  EXPECT_EQ(a->legs, b->legs);
  EXPECT_EQ(a->optical_hops, b->optical_hops);
  EXPECT_EQ(a->electronic_hops, b->electronic_hops);
}

TEST(BandwidthTierTest, LadderRungsMapToTiers) {
  EXPECT_EQ(bandwidth_tier(1.0), BandwidthTier::kFull);
  EXPECT_EQ(bandwidth_tier(0.5), BandwidthTier::kHalf);
  EXPECT_EQ(bandwidth_tier(0.25), BandwidthTier::kQuarter);
  EXPECT_EQ(bandwidth_tier(0.125), BandwidthTier::kEighth);
  EXPECT_EQ(bandwidth_tier(0.0), BandwidthTier::kEighth);
  EXPECT_EQ(bandwidth_tier(2.0), BandwidthTier::kFull);
}

TEST(RouteCacheTest, MissThenHitServesIdenticalRoute) {
  CacheFixture f;
  const auto first = f.cached();
  ASSERT_TRUE(first.has_value());
  expect_same_route(first, f.uncached());
  const auto misses = f.cache.stats().misses;
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(f.cache.stats().hits, 0u);
  EXPECT_GT(f.cache.entry_count(), 0u);

  const auto second = f.cached();
  expect_same_route(first, second);
  EXPECT_EQ(f.cache.stats().misses, misses) << "epoch unchanged: no leg may recompute";
  EXPECT_GT(f.cache.stats().hits, 0u);
}

TEST(RouteCacheTest, UnrelatedEpochBumpRevalidatesInsteadOfRecomputing) {
  CacheFixture f;
  const auto first = f.cached();
  ASSERT_TRUE(first.has_value());
  const auto misses = f.cache.stats().misses;

  // An element outside the slice moves the epoch but not the slice state.
  const auto epoch_before = f.topo.mutation_epoch();
  ALVC_IGNORE_STATUS(f.topo.add_ops(), "only the epoch side effect matters here");
  ASSERT_GT(f.topo.mutation_epoch(), epoch_before);

  const auto again = f.cached();
  expect_same_route(first, again);
  EXPECT_EQ(f.cache.stats().misses, misses);
  EXPECT_GT(f.cache.stats().revalidations, 0u);
  EXPECT_EQ(f.cache.stats().hits, 0u);

  // The revalidation restamped the epoch; the next call is a pure hit.
  const auto third = f.cached();
  expect_same_route(first, third);
  EXPECT_GT(f.cache.stats().hits, 0u);
}

TEST(RouteCacheTest, SliceElementFailureForcesMissAndMatchesUncached) {
  CacheFixture f;
  ASSERT_TRUE(f.cached().has_value());
  const auto misses = f.cache.stats().misses;

  // Fail an in-slice OPS the cached route rides (not the host itself, so
  // the same stop sequence stays routable around it).
  OpsId victim = OpsId::invalid();
  const auto host_ops = std::get<OpsId>(f.hosts.front());
  for (OpsId o : f.cluster().layer.opss) {
    if (o != host_ops) {
      victim = o;
      break;
    }
  }
  if (!victim.valid()) GTEST_SKIP() << "single-OPS AL: nothing to fail around";
  ASSERT_TRUE(f.topo.set_ops_failed(victim, true).is_ok());

  const auto rerouted = f.cached();
  expect_same_route(rerouted, f.uncached());
  EXPECT_GT(f.cache.stats().misses, misses) << "slice state changed: hits would be stale";
  if (rerouted.has_value()) {
    const std::size_t dead = f.topo.ops_vertex(victim);
    for (std::size_t v : rerouted->vertices) EXPECT_NE(v, dead);
  }
}

TEST(RouteCacheTest, FailRecoverOscillationHitsFromSecondCycle) {
  CacheFixture f;
  // The minimal vertex-cover AL has no spare OPS, so widen the slice to the
  // whole ring by hand: then one non-host OPS can fail while both ToRs stay
  // reachable, and both states are routable. Infeasible legs are
  // deliberately never cached, so an unroutable broken state would re-miss
  // on every flip instead of exercising the variant ring.
  alvc::cluster::VirtualCluster wide = f.cluster();
  wide.layer.opss = {OpsId{0}, OpsId{1}, OpsId{2}, OpsId{3}};
  const auto route = [&] {
    return f.cache.route(f.router, wide, f.ingress, f.egress, f.hosts, BandwidthTier::kFull);
  };

  const auto healthy = route();  // variant for the healthy state
  ASSERT_TRUE(healthy.has_value());
  const OpsId victim{1};  // hosts sit on optoelectronic OPSs (0 or 2)
  ASSERT_TRUE(f.topo.set_ops_failed(victim, true).is_ok());
  const auto broken = route();  // variant for the outage state
  ASSERT_TRUE(broken.has_value());
  const auto misses_after_both = f.cache.stats().misses;

  // Every later flip reuses one of the two variants: revalidations rise,
  // misses do not, and the paths are the exact earlier ones.
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(f.topo.set_ops_failed(victim, false).is_ok());
    expect_same_route(route(), healthy);
    ASSERT_TRUE(f.topo.set_ops_failed(victim, true).is_ok());
    expect_same_route(route(), broken);
  }
  EXPECT_EQ(f.cache.stats().misses, misses_after_both);
  EXPECT_GT(f.cache.stats().revalidations, 0u);
}

TEST(RouteCacheTest, FailAndRecoverWithinOneSweepIsNotAMiss) {
  CacheFixture f;
  const auto first = f.cached();
  ASSERT_TRUE(first.has_value());
  const auto misses = f.cache.stats().misses;

  // The element fails AND recovers before the next route call: the epoch
  // moved twice but the slice state is back to the cached one, so the
  // entry revalidates instead of recomputing.
  const auto host_ops = std::get<OpsId>(f.hosts.front());
  ASSERT_TRUE(f.topo.set_ops_failed(host_ops, true).is_ok());
  ASSERT_TRUE(f.topo.set_ops_failed(host_ops, false).is_ok());

  const auto after = f.cached();
  expect_same_route(first, after);
  EXPECT_EQ(f.cache.stats().misses, misses);
  EXPECT_GT(f.cache.stats().revalidations, 0u);
}

TEST(RouteCacheTest, BandwidthTiersPartitionTheKeySpace) {
  CacheFixture f;
  ASSERT_TRUE(
      f.cache.route(f.router, f.cluster(), f.ingress, f.egress, f.hosts, BandwidthTier::kFull)
          .has_value());
  const auto misses_full = f.cache.stats().misses;
  ASSERT_TRUE(
      f.cache.route(f.router, f.cluster(), f.ingress, f.egress, f.hosts, BandwidthTier::kHalf)
          .has_value());
  EXPECT_GT(f.cache.stats().misses, misses_full) << "tiers must not alias";
  EXPECT_EQ(f.cache.stats().hits, 0u);

  const auto misses_half = f.cache.stats().misses;
  ASSERT_TRUE(
      f.cache.route(f.router, f.cluster(), f.ingress, f.egress, f.hosts, BandwidthTier::kHalf)
          .has_value());
  EXPECT_EQ(f.cache.stats().misses, misses_half);
  EXPECT_GT(f.cache.stats().hits, 0u);
}

TEST(RouteCacheTest, PriorityClassesPartitionTheKeySpace) {
  CacheFixture f;
  // Same endpoints, same hosts, same tier — only the QoS class differs. A
  // HIPRI and a LOPRI leg must never share a cached variant, or a class
  // flip on re-provision would serve the other class's path unchecked.
  ASSERT_TRUE(f.cache
                  .route(f.router, f.cluster(), f.ingress, f.egress, f.hosts,
                         BandwidthTier::kFull, alvc::nfv::PriorityClass::kHipri)
                  .has_value());
  const auto misses_hipri = f.cache.stats().misses;
  ASSERT_TRUE(f.cache
                  .route(f.router, f.cluster(), f.ingress, f.egress, f.hosts,
                         BandwidthTier::kFull, alvc::nfv::PriorityClass::kLopri)
                  .has_value());
  EXPECT_GT(f.cache.stats().misses, misses_hipri) << "classes must not alias";
  EXPECT_EQ(f.cache.stats().hits, 0u);

  // Each class hits its own entry afterwards — the partition is stable.
  const auto misses_both = f.cache.stats().misses;
  ASSERT_TRUE(f.cache
                  .route(f.router, f.cluster(), f.ingress, f.egress, f.hosts,
                         BandwidthTier::kFull, alvc::nfv::PriorityClass::kLopri)
                  .has_value());
  ASSERT_TRUE(f.cache
                  .route(f.router, f.cluster(), f.ingress, f.egress, f.hosts,
                         BandwidthTier::kFull, alvc::nfv::PriorityClass::kHipri)
                  .has_value());
  EXPECT_EQ(f.cache.stats().misses, misses_both);
  EXPECT_GE(f.cache.stats().hits, 2u);
}

TEST(RouteCacheTest, StopOutsideTheSliceBypassesTheCache) {
  CacheFixture f;
  // A third rack outside the cluster's AL: its ToR is a stop the slice
  // fingerprint cannot cover.
  const TorId outside = f.topo.add_tor();
  f.topo.connect_tor_ops(outside, OpsId{1});
  const ServerId server =
      f.topo.add_server(outside, {.cpu_cores = 8, .memory_gb = 16, .storage_gb = 64});
  ASSERT_FALSE(f.cluster().layer.contains_tor(outside));

  std::vector<HostRef> hosts{HostRef{server}};
  const auto cached =
      f.cache.route(f.router, f.cluster(), f.ingress, f.egress, hosts, BandwidthTier::kFull);
  const auto plain = f.router.route(f.cluster(), f.ingress, f.egress, hosts);
  expect_same_route(cached, plain);
  EXPECT_GT(f.cache.stats().bypasses, 0u);
  EXPECT_EQ(f.cache.stats().lookups(), 0u) << "bypassed requests never touch the memo";
  EXPECT_EQ(f.cache.entry_count(), 0u);
}

TEST(RouteCacheTest, InvalidateSliceDropsOnlyThatSlice) {
  CacheFixture f;
  const alvc::cluster::VirtualCluster other = f.twin_cluster();
  ASSERT_TRUE(f.cached().has_value());
  const auto own_entries = f.cache.entry_count();
  const auto own_variants = f.cache.variant_count();
  ASSERT_GT(own_variants, 0u);
  ASSERT_TRUE(f.cached_in(other).has_value());
  const auto all_entries = f.cache.entry_count();
  const auto other_variants = f.cache.variant_count() - own_variants;
  ASSERT_GT(other_variants, 0u);

  const RouteCacheStats before = f.cache.stats();
  f.cache.invalidate_slice(alvc::util::ClusterId{999});  // never cached
  expect_same_stats(f.cache.stats(), before);
  EXPECT_EQ(f.cache.entry_count(), all_entries);

  f.cache.invalidate_slice(f.cluster_id);
  EXPECT_EQ(f.cache.entry_count(), all_entries - own_entries);
  EXPECT_EQ(f.cache.variant_count(), other_variants) << "the other slice's share is untouched";
  EXPECT_EQ(f.cache.stats().invalidations, own_variants);

  // The other slice still serves from the memo: pure hits, no recompute.
  const auto misses = f.cache.stats().misses;
  const auto hits = f.cache.stats().hits;
  expect_same_route(f.cached_in(other), f.router.route(other, f.ingress, f.egress, f.hosts));
  EXPECT_EQ(f.cache.stats().misses, misses);
  EXPECT_GT(f.cache.stats().hits, hits);

  // Dropped entries rebuild from scratch.
  ASSERT_TRUE(f.cached().has_value());
  EXPECT_GT(f.cache.stats().misses, misses);
  EXPECT_EQ(f.cache.entry_count(), all_entries);
}

TEST(RouteCacheTest, InfeasibleRouteLeavesNoEntry) {
  CacheFixture f;
  // Cut every slice uplink of the ingress ToR: its first leg has no path,
  // and an infeasible leg is never cached — not even as an empty key.
  std::vector<OpsId> cut;
  for (OpsId o : f.topo.tor(f.ingress).uplinks) {
    if (f.cluster().layer.contains_ops(o)) cut.push_back(o);
  }
  for (OpsId o : cut) ASSERT_TRUE(f.topo.set_link_failed(f.ingress, o, true).is_ok());
  const auto entries = f.cache.entry_count();
  EXPECT_FALSE(f.cached().has_value());
  EXPECT_FALSE(f.uncached().has_value());
  EXPECT_GT(f.cache.stats().misses, 0u);
  EXPECT_EQ(f.cache.entry_count(), entries);
  EXPECT_EQ(f.cache.variant_count(), 0u);

  // Healed, the same route caches normally.
  for (OpsId o : cut) ASSERT_TRUE(f.topo.set_link_failed(f.ingress, o, false).is_ok());
  ASSERT_TRUE(f.cached().has_value());
  EXPECT_GT(f.cache.entry_count(), entries);
}

TEST(RouteCacheTest, ClearDropsEverythingAndCountsIt) {
  CacheFixture f;
  ASSERT_TRUE(f.cached().has_value());
  const auto variants = f.cache.variant_count();
  ASSERT_GT(variants, 0u);
  f.cache.clear();
  EXPECT_EQ(f.cache.entry_count(), 0u);
  EXPECT_EQ(f.cache.variant_count(), 0u);
  EXPECT_EQ(f.cache.stats().invalidations, variants);
}

TEST(RouteCacheTest, CoherenceHoldsThroughChurn) {
  CacheFixture f;
  const auto host_ops = std::get<OpsId>(f.hosts.front());
  ASSERT_TRUE(f.cached().has_value());
  const std::vector<const alvc::cluster::VirtualCluster*> clusters{&f.cluster()};
  EXPECT_TRUE(f.cache.check_coherence(clusters).empty());

  for (OpsId o : std::vector<OpsId>(f.cluster().layer.opss)) {
    if (o == host_ops) continue;
    ASSERT_TRUE(f.topo.set_ops_failed(o, true).is_ok());
    ALVC_IGNORE_STATUS(f.cached(), "churn step; feasibility is not the subject here");
    EXPECT_TRUE(f.cache.check_coherence(clusters).empty());
    ASSERT_TRUE(f.topo.set_ops_failed(o, false).is_ok());
    ALVC_IGNORE_STATUS(f.cached(), "churn step; feasibility is not the subject here");
    EXPECT_TRUE(f.cache.check_coherence(clusters).empty());
  }
}

TEST(RouteCacheTest, CoherenceOverClustersInAnyOrder) {
  CacheFixture f;
  const alvc::cluster::VirtualCluster other = f.twin_cluster();
  ASSERT_TRUE(f.cached().has_value());
  ASSERT_TRUE(f.cached_in(other).has_value());
  // Non-ascending cluster order: each input finds its own slice's legs.
  const std::vector<const alvc::cluster::VirtualCluster*> clusters{&other, &f.cluster()};
  EXPECT_TRUE(f.cache.check_coherence(clusters).empty());

  ALVC_IGNORE_STATUS(f.topo.add_ops(), "only the epoch side effect matters here");
  EXPECT_TRUE(f.cache.check_coherence(clusters).empty());
}

// ---- orchestrator wiring ----

struct OrchFixture : ClusterFixture {
  NetworkOrchestrator orch{manager, catalog};

  /// The orchestrator's one shard owns the only route cache.
  [[nodiscard]] const RouteCache& route_cache() const { return orch.agent()->shard(0).cache(); }

  alvc::util::NfcId provision(double gbps = 1.0) {
    NfcSpec spec;
    spec.name = "chain";
    spec.service = ServiceId{0};
    spec.bandwidth_gbps = gbps;
    spec.functions = {*catalog.find_by_type(VnfType::kFirewall),
                      *catalog.find_by_type(VnfType::kNat)};
    const GreedyOpticalPlacement placement;
    auto id = orch.provision_chain(spec, placement);
    if (!id.has_value()) throw std::runtime_error(id.error().to_string());
    return *id;
  }
};

TEST(OrchestratorRouteCacheTest, ProvisionPopulatesAndTeardownInvalidates) {
  OrchFixture f;
  const auto id = f.provision();
  EXPECT_GT(f.route_cache().stats().lookups(), 0u);
  EXPECT_GT(f.route_cache().entry_count(), 0u);
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());

  ASSERT_TRUE(f.orch.teardown_chain(id).is_ok());
  EXPECT_EQ(f.route_cache().entry_count(), 0u)
      << "a reused cluster id must never see another tenant's paths";
  EXPECT_GT(f.route_cache().stats().invalidations, 0u);
}

TEST(OrchestratorRouteCacheTest, RecoverySweepsStayCoherentAndCorrect) {
  OrchFixture f;
  const auto id = f.provision();
  const auto* chain = f.orch.chain(id);
  ASSERT_NE(chain, nullptr);
  const auto* host_ops = std::get_if<OpsId>(&chain->placement.hosts[0]);
  ASSERT_NE(host_ops, nullptr);
  const OpsId victim = *host_ops;

  ASSERT_TRUE(f.orch.handle_ops_failure(victim).has_value());
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());

  // Right after the sweep the refitted route must equal what the plain
  // router computes against the same topology state — bit-identity.
  const auto* after = f.orch.chain(id);
  ASSERT_NE(after, nullptr);
  if (!after->degraded) {
    ChainRouter router{f.topo};
    const auto& vc = f.cluster();
    auto fresh =
        router.route(vc, vc.layer.tors.front(), vc.layer.tors.back(), after->placement.hosts);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(after->route.vertices, fresh->vertices);
    EXPECT_EQ(after->route.legs, fresh->legs);
  }

  ASSERT_TRUE(f.orch.handle_ops_recovery(victim).has_value());
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
  EXPECT_GT(f.route_cache().stats().misses, 0u);
}

TEST(OrchestratorRouteCacheTest, DegradedLadderTracksSliceBandwidthAndEpoch) {
  OrchFixture f;
  const auto id = f.provision();
  const auto slice_before = f.orch.slices().slice_of_chain(id);
  ASSERT_TRUE(slice_before.has_value());
  const auto epoch_before = slice_before->epoch;

  // Cut every uplink of the egress ToR: no refit can reach it, so the chain
  // parks on the bottom rung of the degraded ladder (reserved 0), and the
  // AL itself goes degraded (the ToR is uncoverable).
  const TorId egress = f.cluster().layer.tors.back();
  const std::vector<OpsId> uplinks = f.topo.tor(egress).uplinks;
  for (OpsId o : uplinks) {
    ASSERT_TRUE(f.orch.handle_link_failure(egress, o).has_value());
  }
  const auto* parked = f.orch.chain(id);
  ASSERT_NE(parked, nullptr);
  ASSERT_TRUE(parked->degraded);
  EXPECT_LT(parked->reserved_gbps, parked->record.spec.bandwidth_gbps);
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());

  // Restore the links, then tick the recovery clock (the retry queue's
  // deterministic backoff is counted in recovery events) until the retry
  // queue climbs the chain back to full bandwidth.
  for (OpsId o : uplinks) {
    ASSERT_TRUE(f.orch.handle_link_recovery(egress, o).has_value());
  }
  const ServerId clock{0};
  for (int tick = 0; tick < 40 && f.orch.degraded_chain_count() > 0; ++tick) {
    ASSERT_TRUE(f.orch.handle_server_failure(clock).has_value());
    ASSERT_TRUE(f.orch.handle_server_recovery(clock).has_value());
  }
  const auto* restored = f.orch.chain(id);
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(restored->degraded);
  EXPECT_DOUBLE_EQ(restored->reserved_gbps, restored->record.spec.bandwidth_gbps);
  const auto slice_after = f.orch.slices().slice_of_chain(id);
  ASSERT_TRUE(slice_after.has_value());
  EXPECT_DOUBLE_EQ(slice_after->bandwidth_gbps, restored->reserved_gbps);
  EXPECT_GE(slice_after->epoch, epoch_before);
  EXPECT_TRUE(faults::StateAuditor::audit(f.orch).empty());
}

}  // namespace
}  // namespace alvc::orchestrator
