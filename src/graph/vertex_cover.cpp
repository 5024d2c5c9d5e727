#include "graph/vertex_cover.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "graph/matching.h"
#include "util/bitset.h"

namespace alvc::graph {

using alvc::util::DynamicBitset;

std::vector<std::size_t> greedy_vertex_cover(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> uncovered_degree(n, 0);
  DynamicBitset edge_covered(g.edges().size());  // indexed by edge id
  for (std::size_t v = 0; v < n; ++v) uncovered_degree[v] = g.degree(v);

  std::vector<std::size_t> cover;
  std::size_t edges_left = g.edge_count();
  // Self-loops count once in adjacency for undirected graphs; treat any edge
  // as covered when either endpoint is picked.
  while (edges_left > 0) {
    // Pick the vertex with the most uncovered incident edges.
    std::size_t best = n;
    std::size_t best_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (uncovered_degree[v] > best_deg) {
        best = v;
        best_deg = uncovered_degree[v];
      }
    }
    if (best == n) break;  // remaining edges are self-loops already handled
    cover.push_back(best);
    for (const auto& nb : g.neighbors(best)) {
      if (edge_covered.test(nb.edge)) continue;
      edge_covered.set(nb.edge);
      --edges_left;
      if (uncovered_degree[best] > 0) --uncovered_degree[best];
      if (nb.vertex != best && uncovered_degree[nb.vertex] > 0) --uncovered_degree[nb.vertex];
    }
    uncovered_degree[best] = 0;
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

std::vector<std::size_t> matching_vertex_cover(const Graph& g) {
  DynamicBitset in_cover(g.vertex_count());
  for (const Edge& e : g.edges()) {
    if (!in_cover.test(e.from) && !in_cover.test(e.to)) {
      in_cover.set(e.from);
      in_cover.set(e.to);
    }
  }
  std::vector<std::size_t> cover;
  for (std::size_t v = in_cover.find_first(); v < in_cover.size(); v = in_cover.find_next(v)) {
    cover.push_back(v);
  }
  return cover;
}

bool is_vertex_cover(const Graph& g, const std::vector<std::size_t>& cover) {
  DynamicBitset chosen(g.vertex_count());
  for (std::size_t v : cover) {
    if (v >= g.vertex_count()) return false;
    chosen.set(v);
  }
  for (const Edge& e : g.edges()) {
    if (!chosen.test(e.from) && !chosen.test(e.to)) return false;
  }
  return true;
}

namespace {

/// Branch-and-bound state for exact vertex cover on a general graph.
/// Works on a residual edge list; branches on the endpoint of a remaining
/// edge (either `from` is in the cover, or every neighbour of `from` is).
class ExactVcSolver {
 public:
  ExactVcSolver(const Graph& g, std::size_t node_budget)
      : graph_(g), node_budget_(node_budget), in_cover_(g.vertex_count()), removed_(g.vertex_count()) {}

  std::optional<std::vector<std::size_t>> solve() {
    // Upper bound from the greedy solution.
    best_ = greedy_vertex_cover(graph_);
    std::vector<std::size_t> current;
    if (!branch(current)) return std::nullopt;  // budget blown
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  // Returns false if the node budget was exhausted.
  bool branch(std::vector<std::size_t>& current) {
    if (++explored_ > node_budget_) return false;
    if (current.size() >= best_.size()) return true;  // bound

    // Find an uncovered edge.
    const Edge* pick = nullptr;
    std::size_t pick_deg = 0;
    for (const Edge& e : graph_.edges()) {
      if (e.from == e.to) continue;  // self-loop: must take the vertex
      if (in_cover_.test(e.from) || in_cover_.test(e.to)) continue;
      // Branch on the edge whose endpoints have max residual degree to
      // shrink the tree.
      const std::size_t d = residual_degree(e.from) + residual_degree(e.to);
      if (pick == nullptr || d > pick_deg) {
        pick = &e;
        pick_deg = d;
      }
    }
    // Handle self-loops: vertex must be in cover.
    for (const Edge& e : graph_.edges()) {
      if (e.from == e.to && !in_cover_.test(e.from)) {
        in_cover_.set(e.from);
        current.push_back(e.from);
        const bool ok = branch(current);
        current.pop_back();
        in_cover_.reset(e.from);
        return ok;
      }
    }
    if (pick == nullptr) {
      // All edges covered: record improvement.
      if (current.size() < best_.size()) best_ = current;
      return true;
    }

    // Branch 1: take `from`.
    in_cover_.set(pick->from);
    current.push_back(pick->from);
    bool ok = branch(current);
    current.pop_back();
    in_cover_.reset(pick->from);
    if (!ok) return false;

    // Branch 2: exclude `from`, so take every neighbour of `from`.
    std::vector<std::size_t> added;
    for (const auto& nb : graph_.neighbors(pick->from)) {
      if (!in_cover_.test(nb.vertex)) {
        in_cover_.set(nb.vertex);
        added.push_back(nb.vertex);
        current.push_back(nb.vertex);
      }
    }
    ok = branch(current);
    for (std::size_t v : added) {
      in_cover_.reset(v);
      current.pop_back();
    }
    return ok;
  }

  std::size_t residual_degree(std::size_t v) const {
    std::size_t d = 0;
    for (const auto& nb : graph_.neighbors(v)) {
      if (!in_cover_.test(nb.vertex)) ++d;
    }
    return d;
  }

  const Graph& graph_;
  std::size_t node_budget_;
  std::size_t explored_ = 0;
  std::vector<std::size_t> best_;
  DynamicBitset in_cover_;
  DynamicBitset removed_;
};

}  // namespace

std::optional<std::vector<std::size_t>> exact_vertex_cover(const Graph& g,
                                                           std::size_t node_budget) {
  ExactVcSolver solver(g, node_budget);
  return solver.solve();
}

BipartiteCover koenig_vertex_cover(const BipartiteGraph& g) {
  const Matching m = maximum_bipartite_matching(g);
  const std::size_t nl = g.left_count();
  const std::size_t nr = g.right_count();

  // Kőnig: let Z = free left vertices plus everything reachable by
  // alternating paths (unmatched edge left->right, matched edge
  // right->left). Cover = (L \ Z) ∪ (R ∩ Z).
  DynamicBitset left_in_z(nl);
  DynamicBitset right_in_z(nr);
  std::queue<std::size_t> queue;  // left vertices to expand
  for (std::size_t l = 0; l < nl; ++l) {
    if (m.match_left[l] == Matching::kUnmatched) {
      left_in_z.set(l);
      queue.push(l);
    }
  }
  while (!queue.empty()) {
    const std::size_t l = queue.front();
    queue.pop();
    for (std::size_t r : g.left_neighbors(l)) {
      if (m.match_left[l] == r) continue;  // only unmatched edges leftwards
      if (right_in_z.test(r)) continue;
      right_in_z.set(r);
      const std::size_t back = m.match_right[r];
      if (back != Matching::kUnmatched && !left_in_z.test(back)) {
        left_in_z.set(back);
        queue.push(back);
      }
    }
  }

  BipartiteCover cover;
  for (std::size_t l = 0; l < nl; ++l) {
    if (!left_in_z.test(l) && g.left_degree(l) > 0) cover.left.push_back(l);
  }
  for (std::size_t r = 0; r < nr; ++r) {
    if (right_in_z.test(r)) cover.right.push_back(r);
  }
  return cover;
}

std::vector<std::size_t> greedy_one_sided_cover(const BipartiteGraph& g) {
  const std::size_t nl = g.left_count();
  const std::size_t nr = g.right_count();
  DynamicBitset covered(nl);
  // Isolated left vertices are vacuously covered.
  std::size_t uncovered = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    if (g.left_degree(l) == 0) {
      covered.set(l);
    } else {
      ++uncovered;
    }
  }

  // Incremental gains: gain[r] = number of edges from r to uncovered left
  // vertices, maintained as vertices get covered, so each round is an O(nr)
  // argmax scan instead of re-walking every right neighbor list (O(E)).
  // Initially every neighbor of a right vertex is uncovered (it has degree
  // >= 1), so gain starts at the full degree; covering a left vertex
  // decrements once per incident edge, which reproduces the old per-edge
  // counting exactly even with parallel edges.
  std::vector<std::size_t> gain(nr);
  for (std::size_t r = 0; r < nr; ++r) gain[r] = g.right_degree(r);

  std::vector<std::size_t> chosen;
  while (uncovered > 0) {
    // "Max-weightage": right vertex covering the most uncovered VMs wins;
    // the strict > keeps the legacy lowest-index tie-break.
    std::size_t best = nr;
    std::size_t best_gain = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      if (gain[r] > best_gain) {
        best = r;
        best_gain = gain[r];
      }
    }
    if (best == nr) break;  // unreachable if every non-isolated VM has an edge
    chosen.push_back(best);
    for (std::size_t l : g.right_neighbors(best)) {
      if (!covered.test(l)) {
        covered.set(l);
        --uncovered;
        for (std::size_t r : g.left_neighbors(l)) --gain[r];
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

bool is_one_sided_cover(const BipartiteGraph& g, const std::vector<std::size_t>& chosen_right) {
  DynamicBitset chosen(g.right_count());
  for (std::size_t r : chosen_right) {
    if (r >= g.right_count()) return false;
    chosen.set(r);
  }
  for (std::size_t l = 0; l < g.left_count(); ++l) {
    const auto neighbors = g.left_neighbors(l);
    if (neighbors.empty()) continue;
    bool hit = false;
    for (std::size_t r : neighbors) {
      if (chosen.test(r)) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return true;
}

namespace {

/// Exact one-sided cover = minimum set cover where sets are right vertices
/// and the universe is the non-isolated left vertices. Branch and bound on
/// the least-covered left vertex.
class ExactCoverSolver {
 public:
  ExactCoverSolver(const BipartiteGraph& g, std::size_t node_budget)
      : graph_(g), node_budget_(node_budget) {}

  std::optional<std::vector<std::size_t>> solve() {
    best_ = greedy_one_sided_cover(graph_);
    // Feasibility: a non-isolated left vertex always has >=1 neighbour, so
    // the greedy result is a valid upper bound.
    DynamicBitset covered(graph_.left_count());
    for (std::size_t l = 0; l < graph_.left_count(); ++l) {
      if (graph_.left_degree(l) == 0) covered.set(l);
    }
    std::vector<std::size_t> current;
    if (!branch(covered, current)) return std::nullopt;
    std::sort(best_.begin(), best_.end());
    return best_;
  }

 private:
  bool branch(DynamicBitset& covered, std::vector<std::size_t>& current) {
    if (++explored_ > node_budget_) return false;
    if (current.size() >= best_.size()) return true;  // bound
    // Find an uncovered left vertex; choose the one with the fewest
    // candidate right vertices (fail-first).
    std::size_t pick = covered.size();
    std::size_t pick_options = static_cast<std::size_t>(-1);
    for (std::size_t l = 0; l < covered.size(); ++l) {
      if (covered.test(l)) continue;
      const std::size_t options = graph_.left_degree(l);
      if (options < pick_options) {
        pick = l;
        pick_options = options;
      }
    }
    if (pick == covered.size()) {
      best_ = current;  // complete cover, strictly better than bound
      return true;
    }
    // Branch over each right vertex that could cover `pick`.
    for (std::size_t r : graph_.left_neighbors(pick)) {
      std::vector<std::size_t> newly;
      for (std::size_t l : graph_.right_neighbors(r)) {
        if (!covered.test(l)) {
          covered.set(l);
          newly.push_back(l);
        }
      }
      current.push_back(r);
      const bool ok = branch(covered, current);
      current.pop_back();
      for (std::size_t l : newly) covered.reset(l);
      if (!ok) return false;
    }
    return true;
  }

  const BipartiteGraph& graph_;
  std::size_t node_budget_;
  std::size_t explored_ = 0;
  std::vector<std::size_t> best_;
};

}  // namespace

std::optional<std::vector<std::size_t>> exact_one_sided_cover(const BipartiteGraph& g,
                                                              std::size_t node_budget) {
  ExactCoverSolver solver(g, node_budget);
  return solver.solve();
}

}  // namespace alvc::graph
