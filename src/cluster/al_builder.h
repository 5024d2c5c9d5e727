// Abstraction-layer construction strategies (paper §III-C, Fig. 4).
//
// The paper's algorithm is two greedy "max-weightage" cover stages:
//   1. over the bipartite VM->ToR graph, pick the fewest ToRs covering every
//      VM of the group (ToRs whose VMs are already covered are skipped);
//   2. over the ToR->OPS graph restricted to the stage-1 ToRs and to OPSs
//      not owned by another AL, pick the fewest OPSs covering every chosen
//      ToR. That OPS set is the AL.
// An optional third stage augments the AL with extra free OPSs until the
// subgraph induced by {chosen ToRs} ∪ {AL} is connected, honouring the
// architectural requirement that the AL "provides connectivity to all the
// machines of the group".
//
// Baselines/ablations: random OPS selection (the authors' earlier approach,
// ref [15]), direct greedy set cover without the ToR-minimisation stage,
// and exact (optimal) covers via branch and bound.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/abstraction_layer.h"
#include "graph/scratch.h"
#include "topology/topology.h"
#include "util/error.h"
#include "util/ids.h"
#include "util/rng.h"

namespace alvc::cluster {

using alvc::util::Expected;
using alvc::util::VmId;

struct AlBuildResult {
  AbstractionLayer layer;
  /// True when {tors} ∪ {opss} induce a connected subgraph of the switch
  /// graph (always true if connectivity augmentation is enabled and
  /// achievable).
  bool connected = false;
  /// OPSs added by the augmentation stage (subset of layer.opss).
  std::size_t augmented_ops = 0;
  /// True when the build read nothing beyond the group's footprint: its
  /// VMs' home ToRs and, for each home ToR's uplinks, the link, the OPS and
  /// whether the OPS is free for `self`. ClusterManager skips a degraded
  /// cluster's rebuild while that footprint is unchanged, so a builder sets
  /// this only when its result is a function of the footprint alone. The
  /// cover builders qualify when the AL came out connected with no OPS
  /// augmented: augment_layer_connectivity's BFS can recruit free OPSs
  /// anywhere in the fabric.
  bool reads_local = false;
};

/// Owner-held traversal state for AL builds and the cluster free functions
/// below (graph/scratch.h reuse contract). Every call resets what it uses
/// in O(1), so an owner that keeps one instance pays for what a call
/// touches — the group, its footprint, the AL — and never for the whole
/// switch graph. ClusterManager holds one; tests and benches hold their
/// own. One call at a time per instance. Holds no result: any instance
/// gives the same output.
struct AlBuildScratch {
  alvc::graph::VertexSet members;       // layer / subgraph membership
  alvc::graph::VertexIndexMap index;    // component labels, dense re-indexing
  std::vector<std::size_t> vertices;    // member or candidate vertex list
  std::vector<std::size_t> frontier;
};

struct AlBuilderOptions {
  /// Grow the AL until the cluster subgraph is connected (stage 3).
  bool ensure_connectivity = true;
};

/// Strategy interface. build() constructs an AL for cluster `self` (an
/// invalid id for a cluster not yet created). Implementations must not
/// mutate the topology and must only return OPSs that are free or owned by
/// `self` in `ownership` (OpsOwnership::is_free_for; the caller commits
/// them afterwards), so a rebuild may keep any OPS its cluster holds and
/// never takes another cluster's. A build that fails must fail from the
/// group's footprint alone (see AlBuildResult::reads_local): every builder
/// here fails only when some group ToR has no usable uplink free for
/// `self`.
///
/// Purity contract: build() is const and keeps no mutable per-call state —
/// RandomAlBuilder, the only stochastic one, derives a fresh local Rng from
/// its fixed seed and the group — so the result is a pure function of
/// (topo, group, ownership, self). `scratch` is working memory only and
/// never changes the result. ClusterManager's rebuild memo relies on it.
class AlBuilder {
 public:
  AlBuilder() noexcept;
  virtual ~AlBuilder() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Process-unique number of this builder's configuration, carried along
  /// by copies: two builders with the same serial return the same result
  /// for the same inputs. ClusterManager's rebuild memo keys on it, so a
  /// restore pass under a different builder always rebuilds.
  [[nodiscard]] std::uint64_t serial() const noexcept { return serial_; }
  [[nodiscard]] virtual Expected<AlBuildResult> build(
      const alvc::topology::DataCenterTopology& topo, std::span<const VmId> group,
      const OpsOwnership& ownership, ClusterId self, AlBuildScratch& scratch) const = 0;

 private:
  std::uint64_t serial_;
};

/// The paper's algorithm: greedy one-sided covers in both stages.
class VertexCoverAlBuilder final : public AlBuilder {
 public:
  explicit VertexCoverAlBuilder(AlBuilderOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "vertex-cover"; }
  [[nodiscard]] Expected<AlBuildResult> build(const alvc::topology::DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const override;

 private:
  AlBuilderOptions options_;
};

/// The ref-[15] baseline: keep all of the group's ToRs, pick uniformly
/// random free OPSs until every ToR is covered.
class RandomAlBuilder final : public AlBuilder {
 public:
  explicit RandomAlBuilder(std::uint64_t seed, AlBuilderOptions options = {})
      : seed_(seed), options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "random"; }
  [[nodiscard]] Expected<AlBuildResult> build(const alvc::topology::DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const override;

 private:
  std::uint64_t seed_;
  AlBuilderOptions options_;
};

/// Ablation: skip the ToR-minimisation stage and set-cover the group's ToRs
/// with OPSs directly.
class GreedySetCoverAlBuilder final : public AlBuilder {
 public:
  explicit GreedySetCoverAlBuilder(AlBuilderOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "greedy-set-cover"; }
  [[nodiscard]] Expected<AlBuildResult> build(const alvc::topology::DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const override;

 private:
  AlBuilderOptions options_;
};

/// Resilience-hardened variant: runs the paper's vertex-cover construction,
/// then greedily adds free OPSs until no AL switch is a single point of
/// failure (no articulation points), or no candidate helps. Trades AL size
/// for single-failure survivability — the trade-off ABL3(b) quantifies:
/// minimum-cover ALs are 100% exposed.
class ResilientAlBuilder final : public AlBuilder {
 public:
  explicit ResilientAlBuilder(AlBuilderOptions options = {}) : options_(options) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "resilient"; }
  [[nodiscard]] Expected<AlBuildResult> build(const alvc::topology::DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const override;

 private:
  AlBuilderOptions options_;
};

/// Ground truth for small instances: exact minimum covers in both stages
/// (branch and bound). Falls back to the greedy result when the search
/// budget is exhausted.
class ExactAlBuilder final : public AlBuilder {
 public:
  explicit ExactAlBuilder(AlBuilderOptions options = {}, std::size_t node_budget = 2'000'000)
      : options_(options), node_budget_(node_budget) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "exact"; }
  [[nodiscard]] Expected<AlBuildResult> build(const alvc::topology::DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const override;

 private:
  AlBuilderOptions options_;
  std::size_t node_budget_;
};

/// Stage-3 primitive, also used by ClusterManager during churn: grows
/// `layer.opss` with OPSs that are free or owned by `self` in `ownership`
/// until the induced subgraph over layer.tors ∪ layer.opss is connected
/// (or no further progress is possible). Returns the number of OPSs added
/// and sets `connected` to the final state. The caller is responsible for
/// committing the added OPSs.
std::size_t augment_layer_connectivity(const alvc::topology::DataCenterTopology& topo,
                                       const OpsOwnership& ownership, ClusterId self,
                                       AbstractionLayer& layer, bool& connected,
                                       AlBuildScratch& scratch);

/// True when the subgraph of the switch graph induced by layer.tors and
/// layer.opss is connected (single component containing all of them).
[[nodiscard]] bool cluster_subgraph_connected(const alvc::topology::DataCenterTopology& topo,
                                              const AbstractionLayer& layer,
                                              AlBuildScratch& scratch);

/// Resilience diagnostic: the AL's single points of failure — OPSs whose
/// loss disconnects the cluster subgraph (articulation points of the
/// induced {tors} ∪ {opss} subgraph, restricted to OPS vertices). Empty
/// for 2-connected ALs; each entry is a switch whose failure forces an AL
/// repair before traffic can flow again.
[[nodiscard]] std::vector<alvc::util::OpsId> critical_ops(
    const alvc::topology::DataCenterTopology& topo, const AbstractionLayer& layer,
    AlBuildScratch& scratch);

/// True when every VM of `group` sits behind one of `layer.tors` and every
/// one of those ToRs uplinks to at least one AL OPS — i.e. the AL actually
/// "connects all the machines of the group".
[[nodiscard]] bool al_covers_group(const alvc::topology::DataCenterTopology& topo,
                                   std::span<const VmId> group, const AbstractionLayer& layer);

}  // namespace alvc::cluster
