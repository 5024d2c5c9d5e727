// Persistent chain <-> resource index behind the incremental bandwidth
// rebalance (DESIGN.md §10, "Rebalance scope").
//
// Every NFC rides its own optical slice and routes never leave it, so two
// chains compete for bandwidth only through a resource they both use: a
// route link, or the aggregate uplink budget of a ToR both routes cross.
// BandwidthAllocator::plan() decomposes exactly over the connected
// components of that chain <-> resource graph, so a rebalance only has to
// re-plan the components a change touched. AllocationIndex keeps the graph
// between rebalances:
//
//   * per chain: its class, demand, and resource uses (the same resource
//     model the allocator documents: coeff 1.0 per distinct route link,
//     the incident-link count per crossed ToR budget);
//   * per resource: its capacity and the ascending ids of its users;
//   * the dirty set: chains whose route or reservation changed since the
//     last rebalance.
//
// The orchestrator marks a chain dirty on every write to its route or
// reservation; rebalance re-indexes the dirty chains (update), then walks
// from their old and new resources to the union of affected components
// (collect) and plans only that.
//
// Threading contract: owned by the single-writer orchestrator; no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "nfv/nfc.h"
#include "orchestrator/bandwidth.h"
#include "orchestrator/bandwidth_allocator.h"
#include "topology/topology.h"
#include "util/ids.h"

namespace alvc::orchestrator {

using alvc::util::NfcId;

class AllocationIndex {
 public:
  /// Capacities come from `ledger` (links) and `topo` (ToR port
  /// bandwidth); both must outlive the index.
  AllocationIndex(const alvc::topology::DataCenterTopology& topo, const BandwidthLedger& ledger)
      : topo_(&topo), ledger_(&ledger) {}

  /// Drops every chain, resource and dirty mark. ToR budgets are priced at
  /// `tor_budget_factor` x port bandwidth from now on (<= 0: links only).
  void reset(double tor_budget_factor);

  void mark_dirty(NfcId id) { dirty_.push_back(id); }
  [[nodiscard]] bool has_dirty() const noexcept { return !dirty_.empty(); }
  /// The dirty ids, ascending and deduplicated; the set is left empty, so
  /// marks made while the caller works on the result land in a fresh set.
  [[nodiscard]] std::vector<NfcId> take_dirty();

  /// Re-indexes `id` on `walk`, its route's vertex sequence; an empty walk
  /// (a parked chain) drops it like erase(). Appends every resource the
  /// chain used before and uses now to `touched`.
  void update(NfcId id, alvc::nfv::PriorityClass cls, double demand_gbps,
              std::span<const std::size_t> walk, std::vector<std::uint32_t>& touched);
  /// Drops `id` (a no-op when it is not indexed), appending the resources
  /// it used to `touched`.
  void erase(NfcId id, std::vector<std::uint32_t>& touched);

  /// The allocator's input for a set of components.
  struct Scope {
    std::vector<NfcId> ids;               // ascending, parallel to `chains`
    std::vector<AllocChain> chains;       // uses renumbered into `resources`
    std::vector<AllocResource> resources;  // only those the chains use
  };
  /// Every indexed chain in a component that contains one of `seeds` or
  /// one of the `touched` resources.
  [[nodiscard]] Scope collect(std::span<const NfcId> seeds,
                              std::span<const std::uint32_t> touched);

 private:
  struct Resource {
    double capacity_gbps = 0;
    std::vector<NfcId> users;  // ascending
    std::uint64_t stamp = 0;   // walk marker (see stamp_)
    std::uint32_t local = 0;   // index in the Scope being built
  };
  struct Entry {
    alvc::nfv::PriorityClass cls = alvc::nfv::PriorityClass::kHipri;
    double demand_gbps = 0;
    std::vector<std::pair<std::uint32_t, double>> uses;  // (resource, coeff)
    std::uint64_t stamp = 0;
  };

  /// Resource for `key`, created on first use with `capacity_gbps`. Link
  /// keys pack (lo << 32 | hi) with lo < hi; a ToR budget uses lo == hi ==
  /// the ToR's vertex, which no link can.
  [[nodiscard]] std::uint32_t resource(std::uint64_t key, double capacity_gbps);

  const alvc::topology::DataCenterTopology* topo_;
  const BandwidthLedger* ledger_;
  double tor_budget_factor_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> resource_of_key_;
  std::vector<Resource> resources_;
  std::unordered_map<NfcId, Entry> entries_;
  std::vector<NfcId> dirty_;
  /// Bumped per walk; a resource or entry is visited iff its stamp equals
  /// the current one, so walks never clear per-node flags.
  std::uint64_t stamp_ = 0;
};

}  // namespace alvc::orchestrator
