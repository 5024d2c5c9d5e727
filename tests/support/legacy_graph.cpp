#include "support/legacy_graph.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
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

namespace {

std::optional<std::vector<std::size_t>> constrained_bfs(
    const std::vector<std::vector<Neighbor>>& adj, std::size_t source, std::size_t target,
    const VertexFilter& filter, const std::set<std::size_t>& banned_vertices,
    const std::set<std::pair<std::size_t, std::size_t>>& banned_edges) {
  if (banned_vertices.contains(source)) return std::nullopt;
  const auto combined = [&](std::size_t v) {
    if (banned_vertices.contains(v)) return false;
    return !filter || v == source || filter(v);
  };
  std::vector<std::size_t> pred(adj.size(), kNoVertex);
  std::vector<char> seen(adj.size(), 0);
  std::vector<std::size_t> queue;
  queue.push_back(source);
  seen[source] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t v = queue[head];
    if (v == target) break;
    for (const auto& nb : adj[v]) {
      if (seen[nb.vertex] || !combined(nb.vertex)) continue;
      if (banned_edges.contains({v, nb.vertex})) continue;
      seen[nb.vertex] = 1;
      pred[nb.vertex] = v;
      queue.push_back(nb.vertex);
    }
  }
  if (!seen[target]) return std::nullopt;
  std::vector<std::size_t> path;
  for (std::size_t v = target; v != kNoVertex; v = pred[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  if (path.front() != source) return std::nullopt;
  return path;
}

}  // namespace

std::vector<std::vector<std::size_t>> k_shortest_paths(const Graph& g, std::size_t source,
                                                       std::size_t target, std::size_t k,
                                                       const VertexFilter& filter) {
  if (source >= g.vertex_count() || target >= g.vertex_count()) {
    throw std::out_of_range("legacy k_shortest_paths: endpoint out of range");
  }
  const auto adj = build_adjacency(g);
  std::vector<std::vector<std::size_t>> result;
  if (k == 0) return result;
  if (source == target) {
    result.push_back({source});
    return result;
  }
  auto first = constrained_bfs(adj, source, target, filter, {}, {});
  if (!first) return result;
  result.push_back(std::move(*first));

  const auto candidate_less = [](const std::vector<std::size_t>& a,
                                 const std::vector<std::size_t>& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  };
  std::set<std::vector<std::size_t>, decltype(candidate_less)> candidates(candidate_less);

  while (result.size() < k) {
    const auto& previous = result.back();
    for (std::size_t i = 0; i + 1 < previous.size(); ++i) {
      const std::vector<std::size_t> root(previous.begin(),
                                          previous.begin() + static_cast<std::ptrdiff_t>(i + 1));
      std::set<std::pair<std::size_t, std::size_t>> banned_edges;
      for (const auto& path : result) {
        if (path.size() > i && std::equal(root.begin(), root.end(), path.begin())) {
          if (path.size() > i + 1) {
            banned_edges.insert({path[i], path[i + 1]});
            banned_edges.insert({path[i + 1], path[i]});
          }
        }
      }
      std::set<std::size_t> banned_vertices(root.begin(), root.end() - 1);
      const auto spur =
          constrained_bfs(adj, previous[i], target, filter, banned_vertices, banned_edges);
      if (!spur) continue;
      std::vector<std::size_t> total = root;
      total.insert(total.end(), spur->begin() + 1, spur->end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
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
