// Route-cache throughput on a churn-heavy recovery workload.
//
// Experiment: every fault or recovery event makes the orchestrator's sweep
// re-derive chain routes, and almost all of those events leave any given
// slice untouched — the route comes out identical, but the plain router
// pays a full filtered BFS per leg anyway. The epoch-versioned cache
// answers the same lookups with a fingerprint revalidation (or a pure
// epoch hit) and falls back to the identical BFS only when the slice
// really changed. Benchmarks: the same churn loop routed uncached (arg 0)
// and cached (arg 1) — the per-route time ratio is the headline speedup —
// plus the in-slice fail/recover oscillation that exercises the variant
// ring. The experiment table reports the deterministic hit/revalidate/miss
// split so the speedup can be attributed without trusting wall clocks.
// BM_TeardownProvisionCycle/{256,2048} pins the teardown cost: one chain
// torn down and re-provisioned among N live chains, which reads the same
// at both N when invalidating a slice costs O(legs of that slice).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/alvc.h"
#include "orchestrator/route_cache.h"
#include "orchestrator/routing.h"
#include "util/error.h"

namespace {

using namespace alvc;
using nfv::HostRef;
using nfv::VnfType;
using orchestrator::BandwidthTier;
using orchestrator::ChainRouter;
using orchestrator::RouteCache;
using util::OpsId;
using util::TorId;

core::DataCenter make_loaded_dc(std::uint64_t seed) {
  core::DataCenterConfig config;
  config.topology.rack_count = 12;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 24;
  config.topology.tor_ops_degree = 8;
  config.topology.service_count = 3;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.seed = seed;
  core::DataCenter dc(config);
  if (auto built = dc.build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                      *dc.catalog().find_by_type(VnfType::kNat),
                      *dc.catalog().find_by_type(VnfType::kProxy)};
    ALVC_IGNORE_STATUS(dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "capacity conflicts just mean fewer chains in the workload");
  }
  return dc;
}

/// The routing workload the recovery sweep generates: one lookup per chain
/// per event, plus the churn victims the loop oscillates.
struct Workload {
  core::DataCenter dc;
  ChainRouter router;
  RouteCache cache;

  struct ChainRef {
    const cluster::VirtualCluster* vc;
    TorId ingress;
    TorId egress;
    std::vector<HostRef> hosts;
  };
  std::vector<ChainRef> chains;
  OpsId unowned_victim = OpsId::invalid();  // outside every slice: epoch-only churn
  // A slice-internal ToR-OPS link whose outage keeps every chain routable:
  // cutting it flips the slice fingerprint without breaking feasibility.
  TorId churn_link_tor = TorId::invalid();
  OpsId churn_link_ops = OpsId::invalid();

  explicit Workload(std::uint64_t seed)
      : dc(make_loaded_dc(seed)), router(dc.topology()), cache(dc.topology()) {
    std::unordered_set<std::uint32_t> owned;
    for (const auto* vc : dc.clusters().clusters()) {
      for (OpsId o : vc->layer.opss) owned.insert(o.value());
    }
    for (const auto* chain : dc.orchestrator().chains()) {
      const auto* vc = dc.clusters().find(chain->cluster);
      if (vc == nullptr || vc->layer.tors.empty()) continue;
      chains.push_back(ChainRef{.vc = vc,
                                .ingress = vc->layer.tors.front(),
                                .egress = vc->layer.tors.back(),
                                .hosts = chain->placement.hosts});
    }
    if (chains.empty()) throw std::runtime_error("workload provisioned no chains");
    for (std::size_t i = 0; i < dc.topology().ops_count(); ++i) {
      const OpsId o{static_cast<OpsId::value_type>(i)};
      if (owned.find(o.value()) == owned.end()) {
        unowned_victim = o;
        break;
      }
    }
    if (!unowned_victim.valid()) throw std::runtime_error("no unowned OPS for churn");
    // A slice-internal link whose outage keeps every chain routable, so the
    // oscillation loop measures the variant ring rather than repeated
    // uncacheable infeasibility. The dense uplink degree makes one usually
    // redundant; probe until one proves it.
    const auto* vc = chains.front().vc;
    for (TorId tor : vc->layer.tors) {
      for (OpsId ops : dc.topology().tor(tor).uplinks) {
        if (!vc->layer.contains_ops(ops)) continue;
        ALVC_IGNORE_STATUS(dc.topology().set_link_failed(tor, ops, true),
                           "probe: reverted right below");
        const bool routable = route_all_cached();
        ALVC_IGNORE_STATUS(dc.topology().set_link_failed(tor, ops, false),
                           "probe: restores the healthy state");
        if (routable) {
          churn_link_tor = tor;
          churn_link_ops = ops;
          break;
        }
      }
      if (churn_link_tor.valid()) break;
    }
    cache.clear();
  }

  /// Routes every chain through the cache; true when all were feasible.
  bool route_all_cached() {
    bool ok = true;
    for (const auto& chain : chains) {
      ok = cache.route(router, *chain.vc, chain.ingress, chain.egress, chain.hosts,
                       BandwidthTier::kFull)
               .has_value() &&
           ok;
    }
    return ok;
  }

  void route_all_uncached() {
    for (const auto& chain : chains) {
      benchmark::DoNotOptimize(
          router.route(*chain.vc, chain.ingress, chain.egress, chain.hosts));
    }
  }
};

// The recovery-sweep hot path: every event bumps the mutation epoch, no
// event touches the measured slices. Uncached pays |chains| x legs BFS per
// event; cached pays one fingerprint revalidation per leg, then pure hits.
void BM_ChurnRecoveryRouting(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Workload w(7);
  bool fail = true;
  for (auto _ : state) {
    ALVC_IGNORE_STATUS(w.dc.topology().set_ops_failed(w.unowned_victim, fail),
                       "churn: the OPS is outside every slice, only the epoch moves");
    fail = !fail;
    if (cached) {
      benchmark::DoNotOptimize(w.route_all_cached());
    } else {
      w.route_all_uncached();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.chains.size()));
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_ChurnRecoveryRouting)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Cut/restore oscillation of a link inside a slice: both states' paths live
// in the variant ring, so from the second cycle on the cache revalidates
// instead of recomputing either state.
void BM_OscillatingSliceRouting(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Workload w(7);
  if (!w.churn_link_tor.valid()) {
    state.SkipWithError("no slice-internal link outage keeps every chain routable");
    return;
  }
  bool fail = true;
  for (auto _ : state) {
    ALVC_IGNORE_STATUS(
        w.dc.topology().set_link_failed(w.churn_link_tor, w.churn_link_ops, fail),
        "churn: oscillates one slice between two routable states");
    fail = !fail;
    if (cached) {
      benchmark::DoNotOptimize(w.route_all_cached());
    } else {
      w.route_all_uncached();
    }
  }
  if (fail == false) {
    ALVC_IGNORE_STATUS(w.dc.topology().set_link_failed(w.churn_link_tor, w.churn_link_ops, false),
                       "leave the topology healthy for the next benchmark");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.chains.size()));
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_OscillatingSliceRouting)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// `live` one-function chains in one orchestrator, one per cluster, on a
/// fabric of a fixed 2048 clusters: block service assignment gives each
/// server's VMs their own service, so every AL is one ToR plus one
/// exclusive OPS (the sharded bench's layout). The fabric does not grow
/// with `live`, so the row isolates the cost of the other live chains and
/// their cached legs from per-route costs that scale with the switch graph.
/// Heap-allocated — DataCenter must never be moved.
struct ChainChurn {
  std::unique_ptr<core::DataCenter> dc;
  nfv::NfcSpec spec;  // the churned chain's spec (service 0)
  util::NfcId live;   // its current id; each re-provision issues a new one
};

ChainChurn make_chain_churn(std::size_t live) {
  constexpr std::size_t kServersPerRack = 4;
  constexpr std::size_t kClusters = 2048;
  if (live > kClusters) throw std::runtime_error("more live chains than clusters");
  core::DataCenterConfig config;
  config.topology.rack_count = kClusters / kServersPerRack;
  config.topology.servers_per_rack = kServersPerRack;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = kClusters;
  config.topology.tor_ops_degree = kServersPerRack;
  config.topology.uplink_locality = 1.0;
  config.topology.core = topology::CoreKind::kNone;
  config.topology.optoelectronic_fraction = 1.0;
  config.topology.service_count = kClusters;
  config.topology.server_local_services = true;
  config.topology.seed = 42;
  config.seed = 42;
  ChainChurn churn{.dc = std::make_unique<core::DataCenter>(config), .spec = {}, .live = {}};
  if (auto built = churn.dc->build_clusters(); !built) {
    throw std::runtime_error(built.error().to_string());
  }
  for (std::uint32_t s = 0; s < live; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*churn.dc->catalog().find_by_type(VnfType::kFirewall)};
    auto id = churn.dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
    if (!id) throw std::runtime_error("provisioning " + spec.name + ": " + id.error().to_string());
    if (s == 0) {
      churn.spec = spec;
      churn.live = *id;
    }
  }
  return churn;
}

// Teardown + re-provision of one chain among range(0) live chains. Every
// teardown drops its slice's cached legs and the provision re-routes them
// cold, so each cycle also pays one miss per leg.
void BM_TeardownProvisionCycle(benchmark::State& state) {
  static std::map<std::int64_t, ChainChurn> by_size;  // built once per arg
  auto it = by_size.find(state.range(0));
  if (it == by_size.end()) {
    it = by_size.emplace(state.range(0),
                         make_chain_churn(static_cast<std::size_t>(state.range(0))))
             .first;
  }
  ChainChurn& churn = it->second;
  for (auto _ : state) {
    if (!churn.dc->teardown_chain(churn.live).is_ok()) {
      state.SkipWithError("teardown failed");
      return;
    }
    auto id = churn.dc->provision_chain(churn.spec, core::PlacementAlgorithm::kGreedyOptical);
    if (!id) {
      state.SkipWithError(id.error().to_string().c_str());
      return;
    }
    churn.live = *id;
  }
  std::size_t legs = 0;
  for (const RouteCache* cache : churn.dc->orchestrator().route_caches()) {
    legs += cache->entry_count();
  }
  state.counters["cached_legs"] = static_cast<double>(legs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TeardownProvisionCycle)->Arg(256)->Arg(2048)->Unit(benchmark::kMicrosecond);

void print_experiment() {
  std::cout << "=== Route cache under churn: deterministic lookup split ===\n\n";
  core::TextTable table({"seed", "chains", "events", "lookups", "hits", "revalidations",
                         "misses", "served from cache"});
  for (const std::uint64_t seed : {7u, 21u, 42u}) {
    Workload w(seed);
    constexpr int kEvents = 200;
    bool fail = true;
    for (int event = 0; event < kEvents; ++event) {
      ALVC_IGNORE_STATUS(w.dc.topology().set_ops_failed(w.unowned_victim, fail),
                         "churn: epoch-only events, slices untouched");
      fail = !fail;
      benchmark::DoNotOptimize(w.route_all_cached());
    }
    const auto& stats = w.cache.stats();
    const double served =
        stats.lookups() == 0
            ? 0.0
            : 100.0 * static_cast<double>(stats.hits + stats.revalidations) /
                  static_cast<double>(stats.lookups());
    table.add_row_values(seed, w.chains.size(), kEvents, stats.lookups(), stats.hits,
                         stats.revalidations, stats.misses,
                         std::to_string(static_cast<int>(served)) + "%");
  }
  table.print();
  std::cout << "\nExpected shape: misses stay at the first event's cold legs; every later\n"
               "event is answered by revalidations (epoch moved, slice fingerprint did\n"
               "not) or pure hits, so the served-from-cache column approaches 100%.\n"
               "The BM_* pairs below time the same loops; the cached/uncached ratio is\n"
               "the recovery-sweep speedup.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
