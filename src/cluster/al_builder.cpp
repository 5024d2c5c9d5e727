#include "cluster/al_builder.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "graph/articulation.h"
#include "graph/scratch.h"
#include "graph/set_cover.h"
#include "graph/vertex_cover.h"
#include "telemetry/telemetry.h"
#include "util/bitset.h"

namespace alvc::cluster {

using alvc::graph::BipartiteGraph;
using alvc::topology::DataCenterTopology;
using alvc::util::DynamicBitset;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::Rng;

namespace {

/// Distinct ToRs hosting at least one VM of the group, ascending.
std::vector<TorId> tors_of_group(const DataCenterTopology& topo, std::span<const VmId> group) {
  std::set<TorId> tors;
  for (VmId vm : group) tors.insert(topo.tor_of_vm(vm));
  return {tors.begin(), tors.end()};
}

/// Stage 1 (paper): minimum ToR set covering all VMs of the group.
std::vector<TorId> select_tors(const DataCenterTopology& topo, std::span<const VmId> group,
                               bool exact, std::size_t node_budget) {
  ALVC_SPAN(span, "al_builder.select_tors");
  // Left = the group's VMs, right = only the live ToRs those VMs connect
  // to, dense re-indexed in ascending id order so the greedy cover's
  // lowest-index tie-break is untouched (a failed ToR covered nobody
  // before, so dropping it entirely is equivalent). vm_tor_graph sizes the
  // right side to every ToR in the DC, which made each build O(#ToRs) and
  // a 100k-cluster batch build quadratic.
  std::vector<TorId::value_type> candidates;
  for (const VmId vm : group) {
    topo.for_each_tor_of_vm(vm, [&](TorId t) {
      if (topo.tor_usable(t)) candidates.push_back(t.value());
    });
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  const auto dense_index = [&](TorId t) {
    return static_cast<std::size_t>(
        std::lower_bound(candidates.begin(), candidates.end(), t.value()) - candidates.begin());
  };
  BipartiteGraph g(group.size(), candidates.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    topo.for_each_tor_of_vm(group[i], [&](TorId t) {
      if (topo.tor_usable(t)) g.add_edge(i, dense_index(t));
    });
  }
  std::vector<std::size_t> chosen;
  if (exact) {
    if (auto result = alvc::graph::exact_one_sided_cover(g, node_budget)) {
      chosen = std::move(*result);
    } else {
      chosen = alvc::graph::greedy_one_sided_cover(g);
    }
  } else {
    chosen = alvc::graph::greedy_one_sided_cover(g);
  }
  std::vector<TorId> tors;
  tors.reserve(chosen.size());
  for (std::size_t t : chosen) tors.push_back(TorId{candidates[t]});
  return tors;
}

/// Stage 2 (paper): minimum set of OPSs free for `self` covering every
/// selected ToR. Returns kInfeasible if some ToR has no such uplink.
Expected<std::vector<OpsId>> select_ops(const DataCenterTopology& topo,
                                        std::span<const TorId> tors,
                                        const OpsOwnership& ownership, ClusterId self,
                                        bool exact, std::size_t node_budget) {
  ALVC_SPAN(span, "al_builder.select_ops");
  // Left = selected ToRs (dense re-index), right = the OPSs on those ToRs'
  // uplink windows (dense re-index in ascending id order, so the greedy
  // cover's lowest-index tie-break is untouched); edges only to OPSs free
  // for `self`, so ownership exclusivity is respected by construction.
  // Sizing the right side to the whole pool made every build O(pool), which
  // turned a 100k-cluster batch build quadratic.
  std::vector<OpsId::value_type> candidates;
  for (const TorId tor : tors) {
    for (OpsId ops : topo.tor(tor).uplinks) candidates.push_back(ops.value());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  const auto dense_index = [&](OpsId ops) {
    return static_cast<std::size_t>(
        std::lower_bound(candidates.begin(), candidates.end(), ops.value()) -
        candidates.begin());
  };
  BipartiteGraph g(tors.size(), candidates.size());
  for (std::size_t i = 0; i < tors.size(); ++i) {
    bool any = false;
    for (OpsId ops : topo.tor(tors[i]).uplinks) {
      if (ownership.is_free_for(ops, self) && topo.link_usable(tors[i], ops)) {
        g.add_edge(i, dense_index(ops));
        any = true;
      }
    }
    if (!any) {
      return Error{ErrorCode::kInfeasible,
                   "ToR " + std::to_string(tors[i].value()) + " has no free OPS uplink"};
    }
  }
  std::vector<std::size_t> chosen;
  if (exact) {
    if (auto result = alvc::graph::exact_one_sided_cover(g, node_budget)) {
      chosen = std::move(*result);
    } else {
      chosen = alvc::graph::greedy_one_sided_cover(g);
    }
  } else {
    chosen = alvc::graph::greedy_one_sided_cover(g);
  }
  std::vector<OpsId> opss;
  opss.reserve(chosen.size());
  for (std::size_t o : chosen) opss.push_back(OpsId{candidates[o]});
  return opss;
}

}  // namespace

std::size_t augment_layer_connectivity(const DataCenterTopology& topo,
                                       const OpsOwnership& ownership, ClusterId self,
                                       AbstractionLayer& layer, bool& connected) {
  ALVC_SPAN(span, "al_builder.augment_connectivity");
  const auto& g = topo.switch_graph();
  const alvc::graph::CsrView csr = g.csr();
  std::size_t added = 0;

  // Layer membership as a stamped dense set, re-snapshotted each round:
  // the per-neighbor in_layer test inside the BFS becomes one array load
  // instead of a sorted-vector search. The recruit walk at the bottom only
  // ever adds vertices the snapshot did NOT contain (pred-chain vertices
  // are distinct), so the snapshot is observationally identical to the old
  // live contains_ops/contains_tor queries.
  alvc::graph::VertexSet layer_set;
  const auto traversable = [&](std::size_t v) {
    if (layer_set.contains(v)) return true;
    // May recruit working optical switches free for `self` only; foreign
    // ToRs are off-limits. (Failed OPSs have no switch-graph edges anyway;
    // the explicit check keeps the invariant local.)
    if (!topo.is_ops_vertex(v)) return false;
    const OpsId ops = topo.vertex_to_ops(v);
    return ownership.is_free_for(ops, self) && topo.ops_usable(ops);
  };

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  alvc::graph::VertexIndexMap component;
  std::vector<std::size_t> members;
  std::vector<std::size_t> frontier;
  for (;;) {
    // Label the layer's vertices by connected component (within the layer).
    members.clear();
    for (TorId t : layer.tors) members.push_back(topo.tor_vertex(t));
    for (OpsId o : layer.opss) members.push_back(topo.ops_vertex(o));
    if (members.size() <= 1) {
      connected = true;
      return added;
    }
    layer_set.reset(g.vertex_count());
    for (std::size_t v : members) layer_set.insert(v);
    component.reset(g.vertex_count());
    std::size_t comp_count = 0;
    for (std::size_t seed : members) {
      if (component.contains(seed)) continue;
      const std::size_t label = comp_count++;
      frontier.clear();
      component.put(seed, label);
      frontier.push_back(seed);
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const std::size_t v = frontier[head];
        for (const auto& nb : csr.neighbors(v)) {
          if (component.contains(nb.vertex) || !layer_set.contains(nb.vertex)) continue;
          component.put(nb.vertex, label);
          frontier.push_back(nb.vertex);
        }
      }
    }
    if (comp_count <= 1) {
      connected = true;
      return added;
    }

    // Multi-source BFS from component 0 through traversable vertices to the
    // nearest vertex of any other component; recruit the free OPSs on the
    // path.
    alvc::graph::TraversalScratch& scratch = alvc::graph::thread_scratch();
    scratch.begin(g.vertex_count());
    for (std::size_t v : members) {
      if (component.get(v) == 0) {
        scratch.mark(v);
        scratch.predecessor[v] = kNone;
        scratch.frontier.push_back(v);
      }
    }
    std::size_t meet = kNone;
    for (std::size_t head = 0; head < scratch.frontier.size() && meet == kNone; ++head) {
      const std::size_t v = scratch.frontier[head];
      for (const auto& nb : csr.neighbors(v)) {
        if (scratch.seen(nb.vertex) || !traversable(nb.vertex)) continue;
        scratch.mark(nb.vertex);
        scratch.predecessor[nb.vertex] = v;
        const std::size_t label = component.get(nb.vertex);
        if (label != alvc::graph::kScratchNoVertex && label != 0) {
          meet = nb.vertex;
          break;
        }
        scratch.frontier.push_back(nb.vertex);
      }
    }
    if (meet == kNone) {
      connected = false;  // other components unreachable through free OPSs
      return added;
    }
    for (std::size_t v = scratch.predecessor[meet]; v != kNone && !layer_set.contains(v);
         v = scratch.predecessor[v]) {
      layer.opss.push_back(topo.vertex_to_ops(v));
      ++added;
    }
    std::sort(layer.opss.begin(), layer.opss.end());
  }
}

namespace {

Expected<AlBuildResult> finish(const DataCenterTopology& topo, const OpsOwnership& ownership,
                               ClusterId self, AbstractionLayer layer,
                               const AlBuilderOptions& options) {
  std::sort(layer.tors.begin(), layer.tors.end());
  std::sort(layer.opss.begin(), layer.opss.end());
  AlBuildResult result{.layer = std::move(layer)};
  if (options.ensure_connectivity) {
    result.augmented_ops =
        augment_layer_connectivity(topo, ownership, self, result.layer, result.connected);
  } else {
    result.connected = cluster_subgraph_connected(topo, result.layer);
  }
  ALVC_COUNT("al_builder.builds");
  ALVC_OBSERVE("al_builder.layer_tors", 0, 64, 32, result.layer.tors.size());
  ALVC_OBSERVE("al_builder.layer_opss", 0, 64, 32, result.layer.opss.size());
  ALVC_COUNT_N("al_builder.augmented_ops", result.augmented_ops);
  return result;
}

/// finish() for the two cover builders, whose stages 1-2 read only the
/// footprint: the result is local unless stage 3 searched beyond the AL.
Expected<AlBuildResult> finish_cover(const DataCenterTopology& topo,
                                     const OpsOwnership& ownership, ClusterId self,
                                     AbstractionLayer layer, const AlBuilderOptions& options) {
  auto result = finish(topo, ownership, self, std::move(layer), options);
  if (result) result->reads_local = result->connected && result->augmented_ops == 0;
  return result;
}

}  // namespace

AlBuilder::AlBuilder() noexcept {
  static std::atomic<std::uint64_t> next_serial{0};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
}

Expected<AlBuildResult> VertexCoverAlBuilder::build(const DataCenterTopology& topo,
                                                    std::span<const VmId> group,
                                                    const OpsOwnership& ownership,
                                                    ClusterId self) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  AbstractionLayer layer;
  layer.tors = select_tors(topo, group, /*exact=*/false, 0);
  auto opss = select_ops(topo, layer.tors, ownership, self, /*exact=*/false, 0);
  if (!opss) return opss.error();
  layer.opss = std::move(*opss);
  return finish_cover(topo, ownership, self, std::move(layer), options_);
}

Expected<AlBuildResult> RandomAlBuilder::build(const DataCenterTopology& topo,
                                               std::span<const VmId> group,
                                               const OpsOwnership& ownership,
                                               ClusterId self) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  // Seed varies with the group's first VM so different clusters draw
  // different streams while staying reproducible.
  Rng rng(seed_ ^ (0x517cc1b727220a95ULL * (group.front().value() + 1)));
  AbstractionLayer layer;
  layer.tors = tors_of_group(topo, group);  // no ToR minimisation (ref [15])

  std::vector<char> covered(layer.tors.size(), 0);
  std::size_t remaining = layer.tors.size();
  std::set<OpsId> picked;
  // Candidate pool: OPSs free for `self` adjacent to any group ToR.
  std::vector<OpsId> pool;
  {
    std::set<OpsId> pool_set;
    for (TorId t : layer.tors) {
      for (OpsId o : topo.tor(t).uplinks) {
        if (ownership.is_free_for(o, self) && topo.link_usable(t, o)) pool_set.insert(o);
      }
    }
    pool.assign(pool_set.begin(), pool_set.end());
  }
  rng.shuffle(pool);
  for (OpsId ops : pool) {
    if (remaining == 0) break;
    bool useful = false;
    for (std::size_t i = 0; i < layer.tors.size(); ++i) {
      if (covered[i]) continue;
      const auto& uplinks = topo.tor(layer.tors[i]).uplinks;
      if (std::find(uplinks.begin(), uplinks.end(), ops) != uplinks.end() &&
          topo.link_usable(layer.tors[i], ops)) {
        covered[i] = 1;
        --remaining;
        useful = true;
      }
    }
    // Random baseline keeps even "useless" picks with some probability,
    // modelling the unguided selection of ref [15].
    if (useful || rng.bernoulli(0.25)) picked.insert(ops);
  }
  if (remaining > 0) {
    return Error{ErrorCode::kInfeasible, "random AL: some group ToR has no free OPS uplink"};
  }
  layer.opss.assign(picked.begin(), picked.end());
  return finish(topo, ownership, self, std::move(layer), options_);
}

Expected<AlBuildResult> GreedySetCoverAlBuilder::build(const DataCenterTopology& topo,
                                                       std::span<const VmId> group,
                                                       const OpsOwnership& ownership,
                                                       ClusterId self) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  AbstractionLayer layer;
  layer.tors = tors_of_group(topo, group);  // cover ALL group ToRs

  alvc::graph::SetCoverInstance instance;
  instance.universe_size = layer.tors.size();
  std::vector<OpsId> set_ops;
  for (std::size_t o = 0; o < topo.ops_count(); ++o) {
    const OpsId ops{static_cast<OpsId::value_type>(o)};
    if (!ownership.is_free_for(ops, self) || !topo.ops_usable(ops)) continue;
    DynamicBitset covers(layer.tors.size());
    const auto& links = topo.ops(ops).tor_links;
    for (std::size_t i = 0; i < layer.tors.size(); ++i) {
      if (std::find(links.begin(), links.end(), layer.tors[i]) != links.end() &&
          topo.link_usable(layer.tors[i], ops)) {
        covers.set(i);
      }
    }
    if (covers.any()) {
      instance.add_set(std::move(covers));
      set_ops.push_back(ops);
    }
  }
  const auto chosen = alvc::graph::greedy_set_cover(instance);
  if (!chosen) {
    return Error{ErrorCode::kInfeasible, "set-cover AL: some group ToR has no free OPS uplink"};
  }
  for (std::size_t i : *chosen) layer.opss.push_back(set_ops[i]);
  return finish(topo, ownership, self, std::move(layer), options_);
}

Expected<AlBuildResult> ResilientAlBuilder::build(const DataCenterTopology& topo,
                                                  std::span<const VmId> group,
                                                  const OpsOwnership& ownership,
                                                  ClusterId self) const {
  // Start from the paper's construction (connectivity forced on — a
  // disconnected AL cannot become 2-connected by adding vertices it is not
  // even attached to in our greedy scheme).
  AlBuilderOptions base_options = options_;
  base_options.ensure_connectivity = true;
  auto result = VertexCoverAlBuilder{base_options}.build(topo, group, ownership, self);
  if (!result) return result;
  result->reads_local = false;  // the hardening below reads the AL's whole neighbourhood
  if (!result->connected) return result;  // can't harden a split layer

  // Candidate pool: usable OPSs free for `self` adjacent to the cluster
  // subgraph.
  const auto& g = topo.switch_graph();
  const auto adjacent_free_ops = [&](const AbstractionLayer& layer) {
    std::set<OpsId> pool;
    const auto consider_vertex = [&](std::size_t v) {
      for (const auto& nb : g.neighbors(v)) {
        if (!topo.is_ops_vertex(nb.vertex)) continue;
        const OpsId o = topo.vertex_to_ops(nb.vertex);
        if (ownership.is_free_for(o, self) && topo.ops_usable(o) && !layer.contains_ops(o)) {
          pool.insert(o);
        }
      }
    };
    for (TorId t : layer.tors) consider_vertex(topo.tor_vertex(t));
    for (OpsId o : layer.opss) consider_vertex(topo.ops_vertex(o));
    return pool;
  };

  // Greedy: add the candidate that removes the most critical OPSs; stop at
  // zero exposure or when nothing helps.
  for (;;) {
    const auto critical = critical_ops(topo, result->layer);
    if (critical.empty()) break;
    OpsId best = OpsId::invalid();
    std::size_t best_remaining = critical.size();
    for (OpsId candidate : adjacent_free_ops(result->layer)) {
      AbstractionLayer trial = result->layer;
      trial.opss.push_back(candidate);
      const std::size_t remaining = critical_ops(topo, trial).size();
      if (remaining < best_remaining) {
        best_remaining = remaining;
        best = candidate;
      }
    }
    if (!best.valid()) break;  // no candidate reduces exposure
    result->layer.opss.push_back(best);
    std::sort(result->layer.opss.begin(), result->layer.opss.end());
    ++result->augmented_ops;
  }
  return result;
}

Expected<AlBuildResult> ExactAlBuilder::build(const DataCenterTopology& topo,
                                              std::span<const VmId> group,
                                              const OpsOwnership& ownership, ClusterId self) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  AbstractionLayer layer;
  layer.tors = select_tors(topo, group, /*exact=*/true, node_budget_);
  auto opss = select_ops(topo, layer.tors, ownership, self, /*exact=*/true, node_budget_);
  if (!opss) return opss.error();
  layer.opss = std::move(*opss);
  return finish_cover(topo, ownership, self, std::move(layer), options_);
}

bool cluster_subgraph_connected(const DataCenterTopology& topo, const AbstractionLayer& layer) {
  std::vector<std::size_t> members;
  for (TorId t : layer.tors) members.push_back(topo.tor_vertex(t));
  for (OpsId o : layer.opss) members.push_back(topo.ops_vertex(o));
  if (members.size() <= 1) return true;
  const auto& g = topo.switch_graph();
  const alvc::graph::CsrView csr = g.csr();
  alvc::graph::VertexSet member_set;
  member_set.reset(g.vertex_count());
  for (std::size_t v : members) member_set.insert(v);
  alvc::graph::TraversalScratch& scratch = alvc::graph::thread_scratch();
  scratch.begin(g.vertex_count());
  scratch.mark(members.front());
  scratch.frontier.push_back(members.front());
  std::size_t reached = 1;
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const std::size_t v = scratch.frontier[head];
    for (const auto& nb : csr.neighbors(v)) {
      if (!member_set.contains(nb.vertex) || scratch.seen(nb.vertex)) continue;
      scratch.mark(nb.vertex);
      ++reached;
      scratch.frontier.push_back(nb.vertex);
    }
  }
  return reached == member_set.size();
}

std::vector<OpsId> critical_ops(const DataCenterTopology& topo, const AbstractionLayer& layer) {
  std::vector<std::size_t> members;
  for (TorId t : layer.tors) members.push_back(topo.tor_vertex(t));
  for (OpsId o : layer.opss) members.push_back(topo.ops_vertex(o));
  const auto cuts = alvc::graph::articulation_points_in_subgraph(topo.switch_graph(), members);
  std::vector<OpsId> out;
  for (std::size_t v : cuts) {
    if (topo.is_ops_vertex(v)) out.push_back(topo.vertex_to_ops(v));
  }
  return out;
}

bool al_covers_group(const DataCenterTopology& topo, std::span<const VmId> group,
                     const AbstractionLayer& layer) {
  for (VmId vm : group) {
    const bool covered = topo.any_tor_of_vm(
        vm, [&](TorId t) { return layer.contains_tor(t) && topo.tor_usable(t); });
    if (!covered) return false;
  }
  for (TorId t : layer.tors) {
    if (!topo.tor_usable(t)) return false;  // a dead ToR cannot anchor coverage
    bool linked = false;
    for (OpsId o : topo.tor(t).uplinks) {
      if (layer.contains_ops(o) && topo.link_usable(t, o)) {
        linked = true;
        break;
      }
    }
    if (!linked) return false;
  }
  return true;
}

}  // namespace alvc::cluster
