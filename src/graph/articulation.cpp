#include "graph/articulation.h"

#include <algorithm>

#include "graph/scratch.h"

namespace alvc::graph {

namespace {

/// Iterative Tarjan DFS (explicit stack: deep paths must not overflow the
/// call stack on large cores).
struct Tarjan {
  CsrView csr;
  std::vector<int> disc;
  std::vector<int> low;
  std::vector<char> is_cut;
  int timer = 0;

  explicit Tarjan(const Graph& graph)
      : csr(graph.csr()), disc(graph.vertex_count(), -1), low(graph.vertex_count(), 0),
        is_cut(graph.vertex_count(), 0) {}

  void run(std::size_t root) {
    struct Frame {
      std::size_t vertex;
      std::size_t parent;
      std::size_t edge_index;  // position in neighbors(vertex)
      std::size_t children;
    };
    std::vector<Frame> stack;
    disc[root] = low[root] = timer++;
    stack.push_back(Frame{root, root, 0, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto neighbors = csr.neighbors(frame.vertex);
      if (frame.edge_index < neighbors.size()) {
        const std::size_t next = neighbors[frame.edge_index++].vertex;
        if (next == frame.vertex) continue;  // self loop
        if (disc[next] == -1) {
          ++frame.children;
          disc[next] = low[next] = timer++;
          stack.push_back(Frame{next, frame.vertex, 0, 0});
        } else if (next != frame.parent) {
          low[frame.vertex] = std::min(low[frame.vertex], disc[next]);
        }
        // Note: one parallel edge back to the parent is treated as the tree
        // edge; additional parallels are back edges only if next != parent,
        // so a doubled edge does NOT stop the parent being a cut vertex.
        // That matches the vertex-connectivity semantics we need (losing
        // the vertex kills every parallel link at once).
      } else {
        const Frame finished = frame;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent_frame = stack.back();
          low[parent_frame.vertex] = std::min(low[parent_frame.vertex], low[finished.vertex]);
          if (parent_frame.parent != parent_frame.vertex || parent_frame.children > 1) {
            // Non-root: cut if some child cannot reach above it.
            if (parent_frame.parent != parent_frame.vertex &&
                low[finished.vertex] >= disc[parent_frame.vertex]) {
              is_cut[parent_frame.vertex] = 1;
            }
          }
          if (parent_frame.parent == parent_frame.vertex &&
              low[finished.vertex] >= disc[parent_frame.vertex] && parent_frame.children > 1) {
            is_cut[parent_frame.vertex] = 1;
          }
        }
      }
    }
  }
};

}  // namespace

std::vector<std::size_t> articulation_points(const Graph& g) {
  Tarjan tarjan(g);
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (tarjan.disc[v] == -1) tarjan.run(v);
  }
  std::vector<std::size_t> cuts;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (tarjan.is_cut[v]) cuts.push_back(v);
  }
  return cuts;
}

std::vector<std::size_t> articulation_points_in_subgraph(const Graph& g,
                                                         std::span<const std::size_t> members,
                                                         VertexIndexMap& index) {
  // Dense re-indexing via a stamped map: first occurrence of each member
  // gets the next dense id.
  index.reset(g.vertex_count());
  std::vector<std::size_t> reverse;
  for (std::size_t v : members) {
    if (v >= g.vertex_count()) continue;
    if (!index.contains(v)) {
      index.put(v, reverse.size());
      reverse.push_back(v);
    }
  }
  // The induced subgraph from the members' live adjacency, each edge once:
  // an undirected edge from its lower endpoint, a directed one from its
  // tail. Cut vertices do not depend on edge order, so this equals the
  // induced subgraph built from g's whole edge list.
  Graph sub(reverse.size());
  const CsrView csr = g.csr();
  const bool directed = g.kind() == Graph::Kind::kDirected;
  for (std::size_t i = 0; i < reverse.size(); ++i) {
    for (const auto& nb : csr.neighbors(reverse[i])) {
      if ((directed || reverse[i] <= nb.vertex) && index.contains(nb.vertex)) {
        sub.add_edge(i, index.get(nb.vertex));
      }
    }
  }
  const auto cuts = articulation_points(sub);
  // Map back to original ids.
  std::vector<std::size_t> out;
  out.reserve(cuts.size());
  for (std::size_t c : cuts) out.push_back(reverse[c]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace alvc::graph
