#include "orchestrator/route_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "graph/graph.h"
#include "telemetry/telemetry.h"

namespace alvc::orchestrator {

using alvc::cluster::VirtualCluster;
using alvc::graph::fingerprint_mix;
using alvc::nfv::HostRef;
using alvc::util::OpsId;

BandwidthTier bandwidth_tier(double fraction) noexcept {
  if (fraction >= 1.0) return BandwidthTier::kFull;
  if (fraction >= 0.5) return BandwidthTier::kHalf;
  if (fraction >= 0.25) return BandwidthTier::kQuarter;
  return BandwidthTier::kEighth;
}

std::uint64_t RouteCache::slice_fingerprint(const VirtualCluster& cluster) const {
  // Everything the filtered BFS can observe: which vertices the slice
  // admits, which of them are alive, and which slice-internal edges exist
  // and are intact. Non-slice elements cannot influence a slice-filtered
  // search, so they stay out of the fingerprint — that is what makes
  // revalidation cheap under unrelated churn.
  std::uint64_t fp = alvc::graph::kFingerprintSeed;
  const auto& layer = cluster.layer;
  fp = fingerprint_mix(fp, layer.tors.size());
  for (TorId t : layer.tors) {
    fp = fingerprint_mix(fp, t.value());
    fp = fingerprint_mix(fp, topo_->tor_usable(t) ? 1 : 0);
    for (OpsId o : topo_->tor(t).uplinks) {
      if (!layer.contains_ops(o)) continue;
      fp = fingerprint_mix(fp, o.value());
      fp = fingerprint_mix(fp, topo_->link_failed(t, o) ? 1 : 0);
    }
  }
  fp = fingerprint_mix(fp, layer.opss.size());
  for (OpsId o : layer.opss) {
    fp = fingerprint_mix(fp, o.value());
    fp = fingerprint_mix(fp, topo_->ops_usable(o) ? 1 : 0);
    // Core links have no per-link failure flag, but new ones can be strung
    // at runtime; the adjacency itself is part of the subgraph.
    for (OpsId peer : topo_->ops(o).peer_links) {
      if (layer.contains_ops(peer)) fp = fingerprint_mix(fp, peer.value());
    }
  }
  return fp;
}

std::uint64_t RouteCache::slice_state(Slice& slice, const VirtualCluster& cluster,
                                      std::uint64_t epoch) const {
  if (!slice.valid || slice.epoch != epoch) {
    slice.fingerprint = slice_fingerprint(cluster);
    slice.epoch = epoch;
    slice.valid = true;
  }
  return slice.fingerprint;
}

bool RouteCache::walk_live(const VirtualCluster& cluster, std::span<const std::size_t> path) const {
  for (std::size_t i = 0; i < path.size(); ++i) {
    const std::size_t v = path[i];
    if (topo_->is_ops_vertex(v)) {
      const auto ops = topo_->vertex_to_ops(v);
      if (!topo_->ops_usable(ops) || !cluster.layer.contains_ops(ops)) return false;
    } else {
      const auto tor = topo_->vertex_to_tor(v);
      if (!topo_->tor_usable(tor) || !cluster.layer.contains_tor(tor)) return false;
    }
    if (i == 0) continue;
    const std::size_t prev = path[i - 1];
    if (topo_->is_ops_vertex(prev) != topo_->is_ops_vertex(v)) {
      const std::size_t tor_v = topo_->is_ops_vertex(prev) ? v : prev;
      const std::size_t ops_v = topo_->is_ops_vertex(prev) ? prev : v;
      if (topo_->link_failed(topo_->vertex_to_tor(tor_v), topo_->vertex_to_ops(ops_v))) {
        return false;
      }
    }
  }
  return true;
}

bool RouteCache::stops_in_slice(const VirtualCluster& cluster,
                                std::span<const std::size_t> stops) const {
  for (std::size_t v : stops) {
    if (topo_->is_ops_vertex(v)) {
      if (!cluster.layer.contains_ops(topo_->vertex_to_ops(v))) return false;
    } else {
      if (!cluster.layer.contains_tor(topo_->vertex_to_tor(v))) return false;
    }
  }
  return true;
}

Expected<std::vector<std::size_t>> RouteCache::cached_leg(
    const VirtualCluster& cluster, BandwidthTier tier, alvc::nfv::PriorityClass cls,
    std::size_t from, std::size_t to, std::size_t leg_index) {
  // Trivial legs are cheaper to produce than to look up.
  if (from == to) return std::vector<std::size_t>{from};
  const std::uint64_t epoch = topo_->mutation_epoch();
  Slice& slice = slices_[cluster.id];
  const std::uint64_t fp = slice_state(slice, cluster, epoch);
  const LegKey key{static_cast<std::uint8_t>(tier), static_cast<std::uint8_t>(cls), from, to};
  auto leg = std::find_if(slice.legs.begin(), slice.legs.end(),
                          [&](const Leg& l) { return l.key == key; });
  if (leg != slice.legs.end()) {
    std::vector<Variant>& variants = leg->variants;
    for (std::size_t i = 0; i < variants.size(); ++i) {
      Variant& v = variants[i];
      if (v.slice_fp != fp) continue;  // another slice state; keep for when it returns
      if (v.validated_epoch == epoch) {
        ++stats_.hits;
        ALVC_COUNT("orchestrator.route_cache.hit");
      } else if (walk_live(cluster, v.path) &&
                 alvc::graph::path_fingerprint(v.path) == v.path_fp) {
        v.validated_epoch = epoch;
        ++stats_.revalidations;
        ALVC_COUNT("orchestrator.route_cache.revalidate");
      } else {
        // The fingerprint says the subgraph is back, yet the stored path no
        // longer walks clean: a fingerprint collision (or corruption). Drop
        // the variant and recompute — correctness never rides the hash.
        ++stats_.stale_evictions;
        ALVC_COUNT("orchestrator.route_cache.stale");
        variants.erase(variants.begin() + static_cast<std::ptrdiff_t>(i));
        if (variants.empty()) {
          // No leg outlives its last variant; the BFS below re-creates it.
          slice.legs.erase(leg);
          leg = slice.legs.end();
          --leg_count_;
        }
        break;
      }
      if (i != 0) std::rotate(variants.begin(), variants.begin() + i,
                              variants.begin() + i + 1);  // promote to MRU
      return variants.front().path;
    }
  }
  ++stats_.misses;
  ALVC_COUNT("orchestrator.route_cache.miss");
  if (allowed_.size() == 0) {
    // Built once per route() call, and only when some leg actually misses:
    // a fully cached route never pays the O(slice) set construction.
    routing_detail::slice_vertices(*topo_, cluster, {}, allowed_);
  }
  auto path = routing_detail::route_leg(*topo_, allowed_, from, to, leg_index);
  // Infeasible legs are not cached: negative results would have to be
  // invalidated on every recovery, and callers treat them as terminal.
  if (!path) return path;
  if (leg == slice.legs.end()) {
    slice.legs.push_back(Leg{.key = key, .variants = {}});
    leg = std::prev(slice.legs.end());
    ++leg_count_;
  }
  std::vector<Variant>& variants = leg->variants;
  variants.insert(variants.begin(), Variant{.slice_fp = fp,
                                            .validated_epoch = epoch,
                                            .path_fp = alvc::graph::path_fingerprint(*path),
                                            .path = *path});
  if (variants.size() > kMaxVariants) {
    variants.pop_back();
    ++stats_.stale_evictions;
    ALVC_COUNT("orchestrator.route_cache.stale");
  }
  ALVC_GAUGE_SET("orchestrator.route_cache.entries", static_cast<double>(leg_count_));
  return path;
}

Expected<ChainRoute> RouteCache::route(ChainRouter& router, const VirtualCluster& cluster,
                                       TorId ingress, TorId egress,
                                       std::span<const HostRef> hosts, BandwidthTier tier,
                                       alvc::nfv::PriorityClass cls) {
  ALVC_SPAN(span, "orchestrator.route_cache.route");
  const auto stops = router.chain_stops(ingress, egress, hosts);
  if (!stops_in_slice(cluster, stops)) {
    // A stop outside the AL widens the allowed set beyond the slice; the
    // fingerprint would not cover it. Rare (anchors are AL ToRs) — punt.
    ++stats_.bypasses;
    ALVC_COUNT("orchestrator.route_cache.bypass");
    return router.route(cluster, ingress, egress, hosts);
  }
  allowed_.clear();  // filled by the first miss
  return router.route_via(cluster, ingress, egress, hosts,
                          [&](std::size_t from, std::size_t to, std::size_t leg_index) {
                            return cached_leg(cluster, tier, cls, from, to, leg_index);
                          });
}

Expected<ChainRoute> RouteCache::route_graph(ChainRouter& router,
                                             const VirtualCluster& cluster, TorId ingress,
                                             TorId egress,
                                             const alvc::nfv::ForwardingGraph& graph,
                                             std::span<const HostRef> node_hosts,
                                             BandwidthTier tier, alvc::nfv::PriorityClass cls) {
  ALVC_SPAN(span, "orchestrator.route_cache.route_graph");
  std::vector<std::size_t> stops;
  stops.reserve(node_hosts.size() + 2);
  for (const HostRef& host : node_hosts) stops.push_back(router.attach_vertex(host));
  stops.push_back(topo_->tor_vertex(ingress));
  stops.push_back(topo_->tor_vertex(egress));
  if (!stops_in_slice(cluster, stops)) {
    ++stats_.bypasses;
    ALVC_COUNT("orchestrator.route_cache.bypass");
    return router.route_graph(cluster, ingress, egress, graph, node_hosts);
  }
  allowed_.clear();  // filled by the first miss
  return router.route_graph_via(ingress, egress, graph, node_hosts,
                                [&](std::size_t from, std::size_t to, std::size_t leg_index) {
                                  return cached_leg(cluster, tier, cls, from, to, leg_index);
                                });
}

void RouteCache::invalidate_slice(ClusterId cluster) {
  const auto it = slices_.find(cluster);
  if (it == slices_.end()) return;
  std::uint64_t dropped = 0;
  for (const Leg& leg : it->second.legs) dropped += leg.variants.size();
  leg_count_ -= it->second.legs.size();
  slices_.erase(it);
  stats_.invalidations += dropped;
  if (dropped > 0) ALVC_COUNT_N("orchestrator.route_cache.invalidate", dropped);
  ALVC_GAUGE_SET("orchestrator.route_cache.entries", static_cast<double>(leg_count_));
}

void RouteCache::clear() {
  stats_.invalidations += variant_count();
  slices_.clear();
  leg_count_ = 0;
  ALVC_GAUGE_SET("orchestrator.route_cache.entries", 0.0);
}

std::size_t RouteCache::variant_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, slice] : slices_) {
    for (const Leg& leg : slice.legs) n += leg.variants.size();
  }
  return n;
}

std::vector<std::string> RouteCache::check_coherence(
    std::span<const VirtualCluster* const> clusters) const {
  std::vector<std::string> violations;
  std::vector<const Leg*> legs;
  for (const VirtualCluster* vc : clusters) {
    if (vc == nullptr) continue;
    const auto it = slices_.find(vc->id);
    if (it == slices_.end()) continue;
    // Audit in key order, not insertion order: coherence reports are
    // compared across runs by the differential suites.
    legs.clear();
    for (const Leg& leg : it->second.legs) legs.push_back(&leg);
    std::sort(legs.begin(), legs.end(),
              [](const Leg* a, const Leg* b) { return a->key < b->key; });
    const std::uint64_t fp = slice_fingerprint(*vc);
    for (const Leg* leg : legs) {
      const LegKey& key = leg->key;
      for (const Variant& v : leg->variants) {
        if (v.slice_fp != fp) continue;  // not servable right now; exempt
        const std::string tag = "route-cache leg " + std::to_string(key.from) + "->" +
                                std::to_string(key.to) + " of cluster " +
                                std::to_string(vc->id.value());
        if (alvc::graph::path_fingerprint(v.path) != v.path_fp) {
          violations.push_back(tag + ": stored path fails its own fingerprint");
          continue;
        }
        if (v.path.empty() || v.path.front() != key.from || v.path.back() != key.to) {
          violations.push_back(tag + ": stored path endpoints disagree with the key");
          continue;
        }
        if (!walk_live(*vc, v.path)) {
          violations.push_back(tag + ": servable variant rides dead or out-of-slice hops");
        }
      }
    }
  }
  return violations;
}

}  // namespace alvc::orchestrator
