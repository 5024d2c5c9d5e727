// QoS-aware bandwidth allocation with water-filling fairness and graceful
// downgrade (ROADMAP item 3; heyp-agents' per-aggregate allocator family is
// the model).
//
// The PR-2 fault engine degrades chains on a blunt 1/2/4/8 ladder with no
// notion of priority or fairness: each chain independently probes the
// largest rung its route can reserve, first-come order decides who wins
// contended capacity, and nothing ever shrinks a healthy chain to make room.
// BandwidthAllocator replaces that with a real allocation policy, pluggable
// via AllocationPolicy:
//
//   kStrictLadder      — the legacy behavior, preserved bit-for-bit. The
//                        orchestrator's fit path is untouched and no
//                        rebalance ever runs; the 20-seed chaos
//                        differentials pin this down.
//   kWaterFill         — classless max-min fairness. Continuous shares come
//                        from progressive filling over every contended
//                        resource, are quantized down to the ladder's rungs
//                        (the data plane still programs rungs, not
//                        arbitrary rates), and a deterministic climb pass
//                        reclaims the quantization slack so no chain sits
//                        below a rung its route could carry.
//   kPriorityDowngrade — two-tier water-filling: HIPRI aggregates fill
//                        first, LOPRI shares come from the residual, and a
//                        shedding pass demotes LOPRI rung-by-rung whenever
//                        that lets a bandwidth-short HIPRI climb. The
//                        guarantee (audited by StateAuditor) is priority-
//                        feasibility: a HIPRI chain is short only if it
//                        could not climb even with every LOPRI aggregate
//                        shed to zero.
//
// Resource model. Slices are OPS-disjoint and routes are slice-internal, so
// distinct chains never share a ToR-OPS *link* — per-link contention alone
// would make fairness vacuous. Chains of different slices do share *ToRs*
// (two services with VMs in one rack ride the same ToR through different
// uplinks), so the allocator models, besides every route link, an aggregate
// uplink budget per ToR: tor_budget_factor × the ToR's port bandwidth,
// shared by every chain whose route crosses that ToR (counted once per
// incident route link — a through-ToR hop consumes ingress and egress).
// The budget is enforced by the allocator's rebalance, never by the
// ledger's reserve path, which keeps kStrictLadder byte-identical.
//
// plan() is a pure function of its inputs (no topology, no clocks), which
// is what the water-filling property tests exercise directly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nfv/nfc.h"
#include "util/ids.h"

namespace alvc::orchestrator {

enum class AllocationPolicy : std::uint8_t {
  kStrictLadder = 0,
  kWaterFill = 1,
  kPriorityDowngrade = 2,
};

[[nodiscard]] constexpr const char* to_string(AllocationPolicy policy) noexcept {
  switch (policy) {
    case AllocationPolicy::kStrictLadder: return "strict-ladder";
    case AllocationPolicy::kWaterFill: return "water-fill";
    case AllocationPolicy::kPriorityDowngrade: return "priority-downgrade";
  }
  return "?";
}

/// Result of single-resource water-filling (the textbook max-min special
/// case; plan() uses the multi-resource generalization internally).
struct WaterFillResult {
  std::vector<double> grants;   // one per demand, grants[i] <= demands[i]
  double level = 0;             // final common fill level
  std::size_t iterations = 0;   // progressive-filling rounds
};

/// Max-min fair split of `capacity_gbps` among `demands`: the common water
/// level rises until a demand is satisfied (it freezes at its demand) or
/// the capacity is exhausted (everyone unfrozen shares the level equally).
/// Deterministic, allocation order independent of demand order.
[[nodiscard]] WaterFillResult water_fill(std::span<const double> demands, double capacity_gbps);

/// One chain as the allocator sees it: a demand drawing on a set of
/// resources, `coeff` units of resource per Gbps granted (1.0 for a route
/// link; the per-ToR incidence count for an aggregate ToR budget).
struct AllocChain {
  alvc::util::NfcId id;
  alvc::nfv::PriorityClass cls = alvc::nfv::PriorityClass::kHipri;
  double demand_gbps = 0;
  std::vector<std::pair<std::uint32_t, double>> uses;  // (resource index, coeff)
};

struct AllocResource {
  double capacity_gbps = 0;
};

struct AllocationPlan {
  /// Target reservation per chain, parallel to the input span. Always a
  /// ladder rung of the chain's demand (possibly 0 = shed, or the demand
  /// itself = full service).
  std::vector<double> target_gbps;
  std::size_t fill_iterations = 0;   // progressive-filling rounds, all tiers and components
  std::size_t lopri_demotions = 0;   // LOPRI rungs shed for blocked HIPRIs
};

class BandwidthAllocator {
 public:
  /// The degraded-mode ladder both the legacy fit path and plan() quantize
  /// to: fractions of a chain's demand the data plane programs.
  static constexpr std::array<double, 4> kLadder{1.0, 0.5, 0.25, 0.125};

  void set_policy(AllocationPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] AllocationPolicy policy() const noexcept { return policy_; }

  /// Aggregate uplink budget per ToR as a multiple of its port bandwidth;
  /// <= 0 disables the aggregate resource (links only).
  void set_tor_budget_factor(double factor) noexcept { tor_budget_factor_ = factor; }
  [[nodiscard]] double tor_budget_factor() const noexcept { return tor_budget_factor_; }

  /// Largest ladder rung of `demand` not exceeding `share` (0 when even
  /// the 1/8 rung does not fit).
  [[nodiscard]] static double quantize_down(double demand_gbps, double share_gbps) noexcept;
  /// The next rung above `current` as an absolute grant, or 0 when the
  /// chain already holds its full demand.
  [[nodiscard]] static double next_rung_gbps(double demand_gbps, double current_gbps) noexcept;

  /// Computes the policy's target reservation for every chain against raw
  /// resource capacities (current reservations are re-derived, not input:
  /// the plan is the full allocation, shrink and grow fall out of the
  /// diff). Pure and deterministic; kStrictLadder returns every chain's
  /// demand unchanged (the legacy fit path owns strict behavior).
  ///
  /// The plan decomposes exactly over the connected components of the
  /// chain <-> resource graph: fill, quantization, climb and shedding run
  /// once per component, so plan(all chains) equals, bit for bit, the
  /// per-component plans stitched together, whatever the input order.
  /// `fill_iterations` is then the sum of every component's rounds.
  [[nodiscard]] AllocationPlan plan(std::span<const AllocChain> chains,
                                    std::span<const AllocResource> resources) const;

 private:
  AllocationPolicy policy_ = AllocationPolicy::kStrictLadder;
  double tor_budget_factor_ = 2.0;
};

}  // namespace alvc::orchestrator
