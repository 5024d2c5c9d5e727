// Pre-CSR reference implementations, preserved verbatim for differential
// testing.
//
// The graph core moved from per-vertex adjacency vectors to a flat CSR
// layout with reusable scratch buffers. The refactor's contract is
// BIT-IDENTICAL results — same distances, same predecessors, same
// tie-breaking everywhere. These are the old implementations (adjacency
// built by per-vertex push_back, std::queue frontiers, per-call state,
// std::unordered_map re-indexing), kept as the oracle the CSR algorithms
// are compared against edge-for-edge. Do not "improve" them: their value
// is that they are exactly what shipped before.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "graph/matching.h"
#include "graph/shortest_path.h"

namespace alvc::test::legacy {

/// The old adjacency-list build: one push_back per half-edge, walking the
/// edge list in insertion order. CSR slices must reproduce these vectors
/// exactly (same neighbor order, same edge ids, same weights). Dead edges
/// (Graph::set_edge_live) are skipped, as the old graph never held them.
[[nodiscard]] std::vector<std::vector<alvc::graph::Neighbor>> build_adjacency(
    const alvc::graph::Graph& g);

/// Old BFS: std::queue frontier, per-call distance/predecessor vectors.
[[nodiscard]] alvc::graph::PathResult bfs(const alvc::graph::Graph& g, std::size_t source,
                                          const alvc::graph::VertexFilter& filter = nullptr);

/// Old Dijkstra over the rebuilt adjacency lists.
[[nodiscard]] alvc::graph::PathResult dijkstra(const alvc::graph::Graph& g, std::size_t source,
                                               const alvc::graph::VertexFilter& filter = nullptr);

/// Old Dinic max-flow: per-vertex arc-index vectors.
class FlowNetwork {
 public:
  explicit FlowNetwork(std::size_t vertex_count);
  std::size_t add_edge(std::size_t u, std::size_t v, double capacity);
  double max_flow(std::size_t s, std::size_t t);
  [[nodiscard]] double flow_on(std::size_t e) const;

 private:
  struct Arc {
    std::size_t to;
    std::size_t reverse;
    double capacity;
    double flow;
  };
  bool bfs_layers(std::size_t s, std::size_t t);
  double dfs_push(std::size_t v, std::size_t t, double pushed);
  std::vector<Arc> arcs_;
  std::vector<std::vector<std::size_t>> adjacency_;
  std::vector<int> level_;
  std::vector<std::size_t> next_arc_;
};

/// Old Tarjan articulation points (adjacency-vector neighbor order).
[[nodiscard]] std::vector<std::size_t> articulation_points(const alvc::graph::Graph& g);

/// Old induced-subgraph variant (std::unordered_map dense re-indexing).
[[nodiscard]] std::vector<std::size_t> articulation_points_in_subgraph(
    const alvc::graph::Graph& g, std::span<const std::size_t> members);

/// Old BipartiteGraph core: per-vertex neighbor vectors.
class Bipartite {
 public:
  Bipartite(std::size_t left_count, std::size_t right_count)
      : left_adj_(left_count), right_adj_(right_count) {}
  void add_edge(std::size_t left, std::size_t right) {
    left_adj_[left].push_back(right);
    right_adj_[right].push_back(left);
  }
  [[nodiscard]] std::size_t left_count() const noexcept { return left_adj_.size(); }
  [[nodiscard]] std::size_t right_count() const noexcept { return right_adj_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& left_neighbors(std::size_t l) const {
    return left_adj_[l];
  }
  [[nodiscard]] const std::vector<std::size_t>& right_neighbors(std::size_t r) const {
    return right_adj_[r];
  }

 private:
  std::vector<std::vector<std::size_t>> left_adj_;
  std::vector<std::vector<std::size_t>> right_adj_;
};

/// Old Hopcroft–Karp over the vector-of-vectors bipartite adjacency.
[[nodiscard]] alvc::graph::Matching maximum_bipartite_matching(const Bipartite& g);

/// Old greedy one-sided cover: full rescan of every right vertex's
/// neighbor list each round (the O(rounds * E) shape the incremental-gain
/// version replaced).
[[nodiscard]] std::vector<std::size_t> greedy_one_sided_cover(const Bipartite& g);

}  // namespace alvc::test::legacy
