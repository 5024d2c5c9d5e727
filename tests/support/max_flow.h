// Maximum flow (Dinic's algorithm), kept as a test reference.
//
// Admission once decided a chain's min-cut feasibility with a max flow
// over its slice; anchor reachability replaced it, since every slice link
// carries at least the slice's min port. The max-flow admission reference
// (support/max_flow_admission) still computes the old decision with it,
// and the CSR differential compares it against the pre-CSR FlowNetwork.
#pragma once

#include <cstddef>
#include <vector>

namespace alvc::graph {

/// Directed flow network with residual bookkeeping. Add an undirected
/// capacity with two add_edge calls (one per direction).
///
/// Arc indices per vertex live in a CSR layout (flat arc array + vertex
/// offsets) rebuilt lazily before each max_flow run; the level-graph BFS
/// and blocking-flow DFS walk contiguous slices instead of per-vertex
/// vectors. Arc-index order within a slice matches insertion order, so
/// augmenting paths (and the final per-arc flow split) are identical to the
/// adjacency-list implementation's.
class FlowNetwork {
 public:
  explicit FlowNetwork(std::size_t vertex_count);

  [[nodiscard]] std::size_t vertex_count() const noexcept { return vertex_count_; }

  /// Adds a directed arc u->v with `capacity`; returns the arc index.
  /// A reverse residual arc with zero capacity is created automatically.
  std::size_t add_edge(std::size_t u, std::size_t v, double capacity);

  /// Max flow from s to t (Dinic, O(V^2 E); tiny on slice-sized graphs).
  /// Resets previous flow before computing.
  double max_flow(std::size_t s, std::size_t t);

  /// Flow currently assigned to arc `e` (after max_flow).
  [[nodiscard]] double flow_on(std::size_t e) const;
  /// Capacity of arc `e`.
  [[nodiscard]] double capacity_of(std::size_t e) const;

 private:
  struct Arc {
    std::size_t to;
    std::size_t reverse;  // index of the paired residual arc
    double capacity;
    double flow;
  };

  void ensure_csr();
  bool bfs_layers(std::size_t s, std::size_t t);
  double dfs_push(std::size_t v, std::size_t t, double pushed);

  std::size_t vertex_count_;
  std::vector<Arc> arcs_;
  // CSR over arc indices: vertex v's arcs are arc_index_[offsets_[v] ..
  // offsets_[v+1]). Stale whenever add_edge ran since the last build.
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> arc_index_;
  bool csr_stale_ = true;
  std::vector<int> level_;
  std::vector<std::size_t> next_arc_;  // cursor into [offsets_[v], offsets_[v+1])
  std::vector<std::size_t> frontier_;  // flat BFS queue, reused across layers
};

}  // namespace alvc::graph
