#include "support/legacy_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>

namespace alvc::test::legacy {

using alvc::graph::Edge;
using alvc::graph::Graph;
using alvc::graph::kNoVertex;
using alvc::graph::kUnreachable;
using alvc::graph::Matching;
using alvc::graph::Neighbor;
using alvc::graph::PathResult;
using alvc::graph::VertexFilter;

std::vector<std::vector<Neighbor>> build_adjacency(const Graph& g) {
  std::vector<std::vector<Neighbor>> adj(g.vertex_count());
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!g.edge_live(e)) continue;
    const Edge& edge = edges[e];
    adj[edge.from].push_back(Neighbor{edge.to, e, edge.weight});
    if (g.kind() == Graph::Kind::kUndirected && edge.from != edge.to) {
      adj[edge.to].push_back(Neighbor{edge.from, e, edge.weight});
    }
  }
  return adj;
}

PathResult bfs(const Graph& g, std::size_t source, const VertexFilter& filter) {
  if (source >= g.vertex_count()) throw std::out_of_range("legacy bfs: source out of range");
  const auto adj = build_adjacency(g);
  PathResult result;
  result.distance.assign(g.vertex_count(), kUnreachable);
  result.predecessor.assign(g.vertex_count(), kNoVertex);
  result.distance[source] = 0;
  std::queue<std::size_t> queue;
  queue.push(source);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (const auto& nb : adj[v]) {
      if (result.distance[nb.vertex] != kUnreachable) continue;
      if (filter && nb.vertex != source && !filter(nb.vertex)) continue;
      result.distance[nb.vertex] = result.distance[v] + 1;
      result.predecessor[nb.vertex] = v;
      queue.push(nb.vertex);
    }
  }
  return result;
}

PathResult dijkstra(const Graph& g, std::size_t source, const VertexFilter& filter) {
  if (source >= g.vertex_count()) throw std::out_of_range("legacy dijkstra: source out of range");
  const auto adj = build_adjacency(g);
  PathResult result;
  result.distance.assign(g.vertex_count(), kUnreachable);
  result.predecessor.assign(g.vertex_count(), kNoVertex);
  result.distance[source] = 0;
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (dist > result.distance[v]) continue;
    for (const auto& nb : adj[v]) {
      if (filter && nb.vertex != source && !filter(nb.vertex)) continue;
      const double cand = dist + nb.weight;
      if (cand < result.distance[nb.vertex]) {
        result.distance[nb.vertex] = cand;
        result.predecessor[nb.vertex] = v;
        heap.emplace(cand, nb.vertex);
      }
    }
  }
  return result;
}

FlowNetwork::FlowNetwork(std::size_t vertex_count) : adjacency_(vertex_count) {}

std::size_t FlowNetwork::add_edge(std::size_t u, std::size_t v, double capacity) {
  const std::size_t forward = arcs_.size();
  arcs_.push_back(Arc{v, forward + 1, capacity, 0});
  arcs_.push_back(Arc{u, forward, 0, 0});
  adjacency_[u].push_back(forward);
  adjacency_[v].push_back(forward + 1);
  return forward;
}

bool FlowNetwork::bfs_layers(std::size_t s, std::size_t t) {
  level_.assign(adjacency_.size(), -1);
  std::queue<std::size_t> queue;
  level_[s] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (std::size_t e : adjacency_[v]) {
      const Arc& arc = arcs_[e];
      if (level_[arc.to] == -1 && arc.capacity - arc.flow > 1e-12) {
        level_[arc.to] = level_[v] + 1;
        queue.push(arc.to);
      }
    }
  }
  return level_[t] != -1;
}

double FlowNetwork::dfs_push(std::size_t v, std::size_t t, double pushed) {
  if (v == t || pushed <= 0) return pushed;
  for (std::size_t& i = next_arc_[v]; i < adjacency_[v].size(); ++i) {
    const std::size_t e = adjacency_[v][i];
    Arc& arc = arcs_[e];
    if (level_[arc.to] != level_[v] + 1) continue;
    const double residual = arc.capacity - arc.flow;
    if (residual <= 1e-12) continue;
    const double got = dfs_push(arc.to, t, std::min(pushed, residual));
    if (got > 0) {
      arc.flow += got;
      arcs_[arc.reverse].flow -= got;
      return got;
    }
  }
  return 0;
}

double FlowNetwork::max_flow(std::size_t s, std::size_t t) {
  for (auto& arc : arcs_) arc.flow = 0;
  double total = 0;
  while (bfs_layers(s, t)) {
    next_arc_.assign(adjacency_.size(), 0);
    for (;;) {
      const double pushed = dfs_push(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= 0) break;
      total += pushed;
    }
  }
  return total;
}

double FlowNetwork::flow_on(std::size_t e) const { return arcs_.at(e).flow; }

namespace {

struct LegacyTarjan {
  const std::vector<std::vector<Neighbor>>& adj;
  std::vector<int> disc;
  std::vector<int> low;
  std::vector<char> is_cut;
  int timer = 0;

  explicit LegacyTarjan(const std::vector<std::vector<Neighbor>>& adjacency)
      : adj(adjacency), disc(adjacency.size(), -1), low(adjacency.size(), 0),
        is_cut(adjacency.size(), 0) {}

  void run(std::size_t root) {
    struct Frame {
      std::size_t vertex;
      std::size_t parent;
      std::size_t edge_index;
      std::size_t children;
    };
    std::vector<Frame> stack;
    disc[root] = low[root] = timer++;
    stack.push_back(Frame{root, root, 0, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& neighbors = adj[frame.vertex];
      if (frame.edge_index < neighbors.size()) {
        const std::size_t next = neighbors[frame.edge_index++].vertex;
        if (next == frame.vertex) continue;
        if (disc[next] == -1) {
          ++frame.children;
          disc[next] = low[next] = timer++;
          stack.push_back(Frame{next, frame.vertex, 0, 0});
        } else if (next != frame.parent) {
          low[frame.vertex] = std::min(low[frame.vertex], disc[next]);
        }
      } else {
        const Frame finished = frame;
        stack.pop_back();
        if (!stack.empty()) {
          Frame& parent_frame = stack.back();
          low[parent_frame.vertex] = std::min(low[parent_frame.vertex], low[finished.vertex]);
          if (parent_frame.parent != parent_frame.vertex || parent_frame.children > 1) {
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
  const auto adj = build_adjacency(g);
  LegacyTarjan tarjan(adj);
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
                                                         std::span<const std::size_t> members) {
  std::unordered_map<std::size_t, std::size_t> index;
  for (std::size_t v : members) {
    if (v >= g.vertex_count()) continue;
    index.emplace(v, index.size());
  }
  Graph sub(index.size());
  for (const Edge& e : g.edges()) {
    const auto from = index.find(e.from);
    const auto to = index.find(e.to);
    if (from != index.end() && to != index.end()) {
      sub.add_edge(from->second, to->second);
    }
  }
  const auto cuts = articulation_points(sub);
  std::vector<std::size_t> reverse(index.size());
  for (const auto& [orig, dense] : index) reverse[dense] = orig;
  std::vector<std::size_t> out;
  out.reserve(cuts.size());
  for (std::size_t c : cuts) out.push_back(reverse[c]);
  std::sort(out.begin(), out.end());
  return out;
}

Matching maximum_bipartite_matching(const Bipartite& g) {
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  const std::size_t nl = g.left_count();
  Matching m;
  m.match_left.assign(nl, Matching::kUnmatched);
  m.match_right.assign(g.right_count(), Matching::kUnmatched);
  std::vector<std::size_t> dist(nl, kInf);

  const auto bfs_layer = [&]() -> bool {
    std::queue<std::size_t> queue;
    for (std::size_t l = 0; l < nl; ++l) {
      if (m.match_left[l] == Matching::kUnmatched) {
        dist[l] = 0;
        queue.push(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found = false;
    while (!queue.empty()) {
      const std::size_t l = queue.front();
      queue.pop();
      for (std::size_t r : g.left_neighbors(l)) {
        const std::size_t next = m.match_right[r];
        if (next == Matching::kUnmatched) {
          found = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[l] + 1;
          queue.push(next);
        }
      }
    }
    return found;
  };

  const auto dfs = [&](auto&& self, std::size_t l) -> bool {
    for (std::size_t r : g.left_neighbors(l)) {
      const std::size_t next = m.match_right[r];
      if (next == Matching::kUnmatched || (dist[next] == dist[l] + 1 && self(self, next))) {
        m.match_left[l] = r;
        m.match_right[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  };

  while (bfs_layer()) {
    for (std::size_t l = 0; l < nl; ++l) {
      if (m.match_left[l] == Matching::kUnmatched && dfs(dfs, l)) ++m.size;
    }
  }
  return m;
}

std::vector<std::size_t> greedy_one_sided_cover(const Bipartite& g) {
  const std::size_t nl = g.left_count();
  const std::size_t nr = g.right_count();
  std::vector<char> covered(nl, 0);
  std::size_t uncovered = 0;
  for (std::size_t l = 0; l < nl; ++l) {
    if (g.left_neighbors(l).empty()) {
      covered[l] = 1;
    } else {
      ++uncovered;
    }
  }
  std::vector<std::size_t> chosen;
  while (uncovered > 0) {
    std::size_t best = nr;
    std::size_t best_gain = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      std::size_t gain = 0;
      for (std::size_t l : g.right_neighbors(r)) {
        if (!covered[l]) ++gain;
      }
      if (gain > best_gain) {
        best = r;
        best_gain = gain;
      }
    }
    if (best == nr) break;
    chosen.push_back(best);
    for (std::size_t l : g.right_neighbors(best)) {
      if (!covered[l]) {
        covered[l] = 1;
        --uncovered;
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace alvc::test::legacy
