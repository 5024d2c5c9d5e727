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

/// Vertices of the switch graph (ToRs, then OPSs): the key space of the
/// scratch's stamped maps. Read from the element counts, so a build never
/// forces the lazy switch graph just to size a map.
std::size_t switch_vertex_space(const DataCenterTopology& topo) {
  return topo.tor_count() + topo.ops_count();
}

/// Numbers the distinct vertices in `scratch.vertices` 0, 1, ... in
/// ascending vertex order (= ascending id within one element kind) and
/// maps each to its number in `scratch.index`: the bipartite right side of
/// a cover stage, so the greedy cover's lowest-index tie-break follows ids.
void number_candidates(AlBuildScratch& scratch) {
  std::sort(scratch.vertices.begin(), scratch.vertices.end());
  for (std::size_t i = 0; i < scratch.vertices.size(); ++i) {
    scratch.index.put(scratch.vertices[i], i);
  }
}

/// Stage 1 (paper): minimum ToR set covering all VMs of the group.
std::vector<TorId> select_tors(const DataCenterTopology& topo, std::span<const VmId> group,
                               bool exact, std::size_t node_budget,
                               AlBuildScratch& scratch) {
  ALVC_SPAN(span, "al_builder.select_tors");
  // Left = the group's VMs, right = only the live ToRs those VMs connect
  // to, dense re-indexed in ascending id order (a failed ToR covered nobody
  // before, so dropping it entirely is equivalent). vm_tor_graph sizes the
  // right side to every ToR in the DC, which made each build O(#ToRs) and
  // a 100k-cluster batch build quadratic. The stamped map dedups the
  // candidates and answers each edge's dense index with one array load.
  std::vector<std::size_t>& candidates = scratch.vertices;
  candidates.clear();
  scratch.index.reset(switch_vertex_space(topo));
  for (const VmId vm : group) {
    topo.for_each_tor_of_vm(vm, [&](TorId t) {
      const std::size_t v = topo.tor_vertex(t);
      if (scratch.index.contains(v) || !topo.tor_usable(t)) return;
      scratch.index.put(v, 0);
      candidates.push_back(v);
    });
  }
  number_candidates(scratch);
  BipartiteGraph g(group.size(), candidates.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    topo.for_each_tor_of_vm(group[i], [&](TorId t) {
      if (topo.tor_usable(t)) g.add_edge(i, scratch.index.get(topo.tor_vertex(t)));
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
  for (std::size_t t : chosen) tors.push_back(topo.vertex_to_tor(candidates[t]));
  return tors;
}

/// Stage 2 (paper): minimum set of OPSs free for `self` covering every
/// selected ToR. Returns kInfeasible if some ToR has no such uplink.
Expected<std::vector<OpsId>> select_ops(const DataCenterTopology& topo,
                                        std::span<const TorId> tors,
                                        const OpsOwnership& ownership, ClusterId self,
                                        bool exact, std::size_t node_budget,
                                        AlBuildScratch& scratch) {
  ALVC_SPAN(span, "al_builder.select_ops");
  // Left = selected ToRs (dense re-index), right = the OPSs on those ToRs'
  // uplink windows (dense re-index in ascending id order, so the greedy
  // cover's lowest-index tie-break is untouched); edges only to OPSs free
  // for `self`, so ownership exclusivity is respected by construction.
  // Sizing the right side to the whole pool made every build O(pool), which
  // turned a 100k-cluster batch build quadratic.
  std::vector<std::size_t>& candidates = scratch.vertices;
  candidates.clear();
  scratch.index.reset(switch_vertex_space(topo));
  for (const TorId tor : tors) {
    for (OpsId ops : topo.tor(tor).uplinks) {
      const std::size_t v = topo.ops_vertex(ops);
      if (scratch.index.contains(v)) continue;
      scratch.index.put(v, 0);
      candidates.push_back(v);
    }
  }
  number_candidates(scratch);
  BipartiteGraph g(tors.size(), candidates.size());
  for (std::size_t i = 0; i < tors.size(); ++i) {
    bool any = false;
    for (OpsId ops : topo.tor(tors[i]).uplinks) {
      if (ownership.is_free_for(ops, self) && topo.link_usable(tors[i], ops)) {
        g.add_edge(i, scratch.index.get(topo.ops_vertex(ops)));
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
  for (std::size_t o : chosen) opss.push_back(topo.vertex_to_ops(candidates[o]));
  return opss;
}

}  // namespace

std::size_t augment_layer_connectivity(const DataCenterTopology& topo,
                                       const OpsOwnership& ownership, ClusterId self,
                                       AbstractionLayer& layer, bool& connected,
                                       AlBuildScratch& scratch) {
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
  alvc::graph::VertexSet& layer_set = scratch.members;
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
  alvc::graph::VertexIndexMap& component = scratch.index;
  std::vector<std::size_t>& members = scratch.vertices;
  std::vector<std::size_t>& frontier = scratch.frontier;
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
    alvc::graph::TraversalScratch& bfs = alvc::graph::thread_scratch();
    bfs.begin(g.vertex_count());
    for (std::size_t v : members) {
      if (component.get(v) == 0) {
        bfs.mark(v);
        bfs.predecessor[v] = kNone;
        bfs.frontier.push_back(v);
      }
    }
    std::size_t meet = kNone;
    for (std::size_t head = 0; head < bfs.frontier.size() && meet == kNone; ++head) {
      const std::size_t v = bfs.frontier[head];
      for (const auto& nb : csr.neighbors(v)) {
        if (bfs.seen(nb.vertex) || !traversable(nb.vertex)) continue;
        bfs.mark(nb.vertex);
        bfs.predecessor[nb.vertex] = v;
        const std::size_t label = component.get(nb.vertex);
        if (label != alvc::graph::kScratchNoVertex && label != 0) {
          meet = nb.vertex;
          break;
        }
        bfs.frontier.push_back(nb.vertex);
      }
    }
    if (meet == kNone) {
      connected = false;  // other components unreachable through free OPSs
      return added;
    }
    for (std::size_t v = bfs.predecessor[meet]; v != kNone && !layer_set.contains(v);
         v = bfs.predecessor[v]) {
      layer.opss.push_back(topo.vertex_to_ops(v));
      ++added;
    }
    std::sort(layer.opss.begin(), layer.opss.end());
  }
}

namespace {

Expected<AlBuildResult> finish(const DataCenterTopology& topo, const OpsOwnership& ownership,
                               ClusterId self, AbstractionLayer layer,
                               const AlBuilderOptions& options, AlBuildScratch& scratch) {
  std::sort(layer.tors.begin(), layer.tors.end());
  std::sort(layer.opss.begin(), layer.opss.end());
  AlBuildResult result{.layer = std::move(layer)};
  if (options.ensure_connectivity) {
    result.augmented_ops =
        augment_layer_connectivity(topo, ownership, self, result.layer, result.connected, scratch);
  } else {
    result.connected = cluster_subgraph_connected(topo, result.layer, scratch);
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
                                     AbstractionLayer layer, const AlBuilderOptions& options,
                                     AlBuildScratch& scratch) {
  auto result = finish(topo, ownership, self, std::move(layer), options, scratch);
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
                                                    const OpsOwnership& ownership, ClusterId self,
                                                    AlBuildScratch& scratch) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  AbstractionLayer layer;
  layer.tors = select_tors(topo, group, /*exact=*/false, 0, scratch);
  auto opss = select_ops(topo, layer.tors, ownership, self, /*exact=*/false, 0, scratch);
  if (!opss) return opss.error();
  layer.opss = std::move(*opss);
  return finish_cover(topo, ownership, self, std::move(layer), options_, scratch);
}

Expected<AlBuildResult> RandomAlBuilder::build(const DataCenterTopology& topo,
                                               std::span<const VmId> group,
                                               const OpsOwnership& ownership, ClusterId self,
                                               AlBuildScratch& scratch) const {
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
  return finish(topo, ownership, self, std::move(layer), options_, scratch);
}

Expected<AlBuildResult> GreedySetCoverAlBuilder::build(const DataCenterTopology& topo,
                                                       std::span<const VmId> group,
                                                       const OpsOwnership& ownership,
                                                       ClusterId self,
                                                       AlBuildScratch& scratch) const {
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
  return finish(topo, ownership, self, std::move(layer), options_, scratch);
}

Expected<AlBuildResult> ResilientAlBuilder::build(const DataCenterTopology& topo,
                                                  std::span<const VmId> group,
                                                  const OpsOwnership& ownership, ClusterId self,
                                                  AlBuildScratch& scratch) const {
  // Start from the paper's construction (connectivity forced on — a
  // disconnected AL cannot become 2-connected by adding vertices it is not
  // even attached to in our greedy scheme).
  AlBuilderOptions base_options = options_;
  base_options.ensure_connectivity = true;
  auto result = VertexCoverAlBuilder{base_options}.build(topo, group, ownership, self, scratch);
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
    const auto critical = critical_ops(topo, result->layer, scratch);
    if (critical.empty()) break;
    OpsId best = OpsId::invalid();
    std::size_t best_remaining = critical.size();
    for (OpsId candidate : adjacent_free_ops(result->layer)) {
      AbstractionLayer trial = result->layer;
      trial.opss.push_back(candidate);
      const std::size_t remaining = critical_ops(topo, trial, scratch).size();
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
                                              const OpsOwnership& ownership, ClusterId self,
                                              AlBuildScratch& scratch) const {
  if (group.empty()) return Error{ErrorCode::kInvalidArgument, "empty VM group"};
  AbstractionLayer layer;
  layer.tors = select_tors(topo, group, /*exact=*/true, node_budget_, scratch);
  auto opss =
      select_ops(topo, layer.tors, ownership, self, /*exact=*/true, node_budget_, scratch);
  if (!opss) return opss.error();
  layer.opss = std::move(*opss);
  return finish_cover(topo, ownership, self, std::move(layer), options_, scratch);
}

bool cluster_subgraph_connected(const DataCenterTopology& topo, const AbstractionLayer& layer,
                                AlBuildScratch& scratch) {
  std::vector<std::size_t>& members = scratch.vertices;
  members.clear();
  for (TorId t : layer.tors) members.push_back(topo.tor_vertex(t));
  for (OpsId o : layer.opss) members.push_back(topo.ops_vertex(o));
  if (members.size() <= 1) return true;
  const auto& g = topo.switch_graph();
  const alvc::graph::CsrView csr = g.csr();
  alvc::graph::VertexSet& member_set = scratch.members;
  member_set.reset(g.vertex_count());
  for (std::size_t v : members) member_set.insert(v);
  alvc::graph::TraversalScratch& bfs = alvc::graph::thread_scratch();
  bfs.begin(g.vertex_count());
  bfs.mark(members.front());
  bfs.frontier.push_back(members.front());
  std::size_t reached = 1;
  for (std::size_t head = 0; head < bfs.frontier.size(); ++head) {
    const std::size_t v = bfs.frontier[head];
    for (const auto& nb : csr.neighbors(v)) {
      if (!member_set.contains(nb.vertex) || bfs.seen(nb.vertex)) continue;
      bfs.mark(nb.vertex);
      ++reached;
      bfs.frontier.push_back(nb.vertex);
    }
  }
  return reached == member_set.size();
}

std::vector<OpsId> critical_ops(const DataCenterTopology& topo, const AbstractionLayer& layer,
                                AlBuildScratch& scratch) {
  std::vector<std::size_t>& members = scratch.vertices;
  members.clear();
  for (TorId t : layer.tors) members.push_back(topo.tor_vertex(t));
  for (OpsId o : layer.opss) members.push_back(topo.ops_vertex(o));
  const auto cuts =
      alvc::graph::articulation_points_in_subgraph(topo.switch_graph(), members, scratch.index);
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
