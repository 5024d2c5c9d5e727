// Epoch-versioned route cache for the orchestrator hot path.
//
// Every provision, refit, and recovery sweep re-runs a filtered BFS per
// chain leg over the slice subgraph, even though churn invalidates only a
// handful of elements between calls. RouteCache memoizes ChainRouter legs
// keyed by (slice, src, dst, bandwidth-tier) and invalidates by EPOCH, not
// by flush: DataCenterTopology (and ClusterManager, for AL membership)
// bump a mutation epoch on every element failure/recovery/layer change,
// and a cached leg is served in three tiers:
//
//   hit         — the epoch has not moved since the leg was validated;
//                 the slice subgraph is provably unchanged, serve as-is.
//   revalidate  — the epoch moved, but the slice's own fingerprint
//                 (membership + failure state of every slice element and
//                 slice-internal link) matches the one the leg was
//                 computed under, and the path's hops still walk clean
//                 against the live element table. The filtered BFS sees an
//                 identical subgraph, so the cached result IS the BFS
//                 result; serve it and stamp the new epoch.
//   stale/miss  — the fingerprint changed (or no variant exists): fall
//                 back to the full BFS, then cache the fresh leg.
//
// Bit-identity is the design invariant, not best-effort: the fingerprint
// covers everything the filtered BFS can observe (slice membership, per-
// element failed flags, slice-internal link cuts), and the deterministic
// switch-graph rebuild preserves the relative adjacency order of surviving
// neighbors, so equal fingerprints imply equal BFS tie-breaking. A 20-seed
// differential test asserts that a warm cache routes exactly like one
// restarted cold before every event (plain BFS) on full fault workloads.
//
// Each leg key retains a small ring of fingerprint variants (MRU-first),
// so the common fail -> recover -> fail oscillation of a churn workload
// hits from the second cycle onward instead of recomputing every flip.
//
// Storage is per slice: one hash entry per cluster holds that slice's
// fingerprint memo and a short vector of its legs, found by linear search
// (a slice hosts one NFC, so it owns a handful of legs). A lookup is one
// hash probe plus a scan of the slice's legs, and a teardown's
// invalidate_slice drops one entry — O(legs of that slice), independent
// of how many other slices are cached. A leg exists only while it holds
// at least one variant: an infeasible leg is never stored, and a leg whose
// last variant is evicted is dropped.
//
// Threading contract: externally synchronized, same as the orchestrator
// that owns it — single writer, no concurrent use during mutation.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/virtual_cluster.h"
#include "nfv/nfc.h"
#include "orchestrator/routing.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::orchestrator {

using alvc::util::ClusterId;

/// Rung of the degraded-mode bandwidth ladder a route is keyed under.
/// Plain shortest-path legs are bandwidth-independent, so the orchestrator
/// routes everything under kFull; the tier keeps entries reserved at
/// different rungs from aliasing if a bandwidth-aware leg source is ever
/// cached, and partitions stats in tests.
enum class BandwidthTier : std::uint8_t { kFull = 0, kHalf = 1, kQuarter = 2, kEighth = 3 };

/// The ladder rung for a fraction of demanded bandwidth (1.0 -> kFull,
/// 0.5 -> kHalf, 0.25 -> kQuarter, anything at or below 0.125 -> kEighth).
[[nodiscard]] BandwidthTier bandwidth_tier(double fraction) noexcept;

struct RouteCacheStats {
  std::uint64_t hits = 0;             // epoch unchanged; served as-is
  std::uint64_t revalidations = 0;    // fingerprint + hop walk passed under a new epoch
  std::uint64_t misses = 0;           // full BFS ran (no variant, or all stale)
  std::uint64_t stale_evictions = 0;  // variants dropped after failing revalidation
  std::uint64_t bypasses = 0;         // request not cacheable (stop outside the slice)
  std::uint64_t invalidations = 0;    // variants dropped by invalidate_slice/clear
  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return hits + revalidations + misses;
  }
};

class RouteCache {
 public:
  explicit RouteCache(const alvc::topology::DataCenterTopology& topo) : topo_(&topo) {}

  /// Cached counterpart of `router.route(...)`: identical stops, assembly,
  /// and error behavior, with each leg served from the memo when its slice
  /// state provably matches. Requests whose stops leave the slice (an
  /// ingress/egress or attach vertex outside the AL) bypass the cache and
  /// delegate to the router untouched.
  /// `cls` partitions the key space by QoS class: a HIPRI leg and a LOPRI
  /// leg between the same endpoints never share a cached variant, so a
  /// class-aware leg source can diverge per class without aliasing.
  [[nodiscard]] Expected<ChainRoute> route(
      ChainRouter& router, const alvc::cluster::VirtualCluster& cluster, TorId ingress,
      TorId egress, std::span<const alvc::nfv::HostRef> hosts, BandwidthTier tier,
      alvc::nfv::PriorityClass cls = alvc::nfv::PriorityClass::kHipri);

  /// Cached counterpart of `router.route_graph(...)` (same contract).
  [[nodiscard]] Expected<ChainRoute> route_graph(
      ChainRouter& router, const alvc::cluster::VirtualCluster& cluster, TorId ingress,
      TorId egress, const alvc::nfv::ForwardingGraph& graph,
      std::span<const alvc::nfv::HostRef> node_hosts, BandwidthTier tier,
      alvc::nfv::PriorityClass cls = alvc::nfv::PriorityClass::kHipri);

  /// Drops every cached leg of `cluster`'s slice (all tiers). Called on
  /// slice teardown so a reused cluster id can never see another tenant's
  /// paths.
  void invalidate_slice(ClusterId cluster);

  /// Drops everything.
  void clear();

  [[nodiscard]] const RouteCacheStats& stats() const noexcept { return stats_; }
  /// Distinct (slice, tier, class, src, dst) keys held.
  [[nodiscard]] std::size_t entry_count() const noexcept { return leg_count_; }
  /// Total fingerprint variants across all keys.
  [[nodiscard]] std::size_t variant_count() const noexcept;

  /// Auditor hook: every variant whose fingerprint matches its cluster's
  /// CURRENT slice state must hop-walk clean against the live element
  /// table and carry an intact path fingerprint — i.e. everything the
  /// cache would serve right now is servable. Returns violations.
  [[nodiscard]] std::vector<std::string> check_coherence(
      std::span<const alvc::cluster::VirtualCluster* const> clusters) const;

 private:
  /// A leg's key within its slice.
  struct LegKey {
    std::uint8_t tier = 0;
    std::uint8_t cls = 0;  // PriorityClass value
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    auto operator<=>(const LegKey&) const = default;  // (tier, cls, from, to)
  };
  /// One cached path, valid under one slice fingerprint.
  struct Variant {
    std::uint64_t slice_fp = 0;        // slice state the path was computed under
    std::uint64_t validated_epoch = 0; // mutation epoch at last validation
    std::uint64_t path_fp = 0;         // graph::path_fingerprint of `path`
    std::vector<std::size_t> path;
  };
  struct Leg {
    LegKey key;
    std::vector<Variant> variants;  // MRU-first, capped at kMaxVariants; never empty
  };
  /// One cluster's cached state: the fingerprint memo (valid for exactly
  /// one epoch) and every leg cached under that slice, in no set order.
  struct Slice {
    std::uint64_t epoch = 0;
    std::uint64_t fingerprint = 0;
    bool valid = false;
    std::vector<Leg> legs;
  };

  static constexpr std::size_t kMaxVariants = 4;

  /// Membership + failure state of every slice element and slice-internal
  /// link, in deterministic AL order. Equal fingerprints imply the
  /// filtered BFS sees an identical subgraph.
  [[nodiscard]] std::uint64_t slice_fingerprint(
      const alvc::cluster::VirtualCluster& cluster) const;
  /// `slice`'s fingerprint memo for the given epoch, recomputed on a move.
  [[nodiscard]] std::uint64_t slice_state(Slice& slice,
                                          const alvc::cluster::VirtualCluster& cluster,
                                          std::uint64_t epoch) const;
  /// Cheap live-table check: every hop's endpoints usable, in the slice,
  /// and every ToR-OPS hop's cable intact.
  [[nodiscard]] bool walk_live(const alvc::cluster::VirtualCluster& cluster,
                               std::span<const std::size_t> path) const;
  /// True when every stop is a slice vertex (cacheable: allowed == slice).
  [[nodiscard]] bool stops_in_slice(const alvc::cluster::VirtualCluster& cluster,
                                    std::span<const std::size_t> stops) const;
  /// The leg source shared by route()/route_graph(): memo first, the
  /// router's own BFS on miss. allowed_ is filled lazily on the first miss
  /// of a route.
  [[nodiscard]] Expected<std::vector<std::size_t>> cached_leg(
      const alvc::cluster::VirtualCluster& cluster, BandwidthTier tier,
      alvc::nfv::PriorityClass cls, std::size_t from, std::size_t to, std::size_t leg_index);

  const alvc::topology::DataCenterTopology* topo_;
  std::unordered_map<ClusterId, Slice> slices_;
  std::size_t leg_count_ = 0;  // legs across all slices
  RouteCacheStats stats_;
  /// The routed slice's vertex set (graph/scratch.h reuse contract).
  /// route()/route_graph() empty it on entry, so a route never sees the
  /// last route's slice, and cached_leg fills it on the route's first miss.
  alvc::graph::VertexSet allowed_;
};

}  // namespace alvc::orchestrator
