#include "graph/union_find.h"

#include <numeric>
#include <stdexcept>

namespace alvc::graph {

UnionFind::UnionFind(std::size_t n) : parent_(n), rank_(n, 0), components_(n) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t v) {
  if (v >= parent_.size()) throw std::out_of_range("UnionFind::find");
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];  // path halving
    v = parent_[v];
  }
  return v;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --components_;
  return true;
}

bool UnionFind::connected(std::size_t a, std::size_t b) { return find(a) == find(b); }

namespace {

void unite_live_edges(const Graph& g, UnionFind& uf) {
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (g.edge_live(e)) uf.unite(edges[e].from, edges[e].to);
  }
}

}  // namespace

std::vector<std::size_t> connected_components(const Graph& g) {
  UnionFind uf(g.vertex_count());
  unite_live_edges(g, uf);
  std::vector<std::size_t> label(g.vertex_count(), static_cast<std::size_t>(-1));
  std::size_t next = 0;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const std::size_t root = uf.find(v);
    if (label[root] == static_cast<std::size_t>(-1)) label[root] = next++;
    label[v] = label[root];
  }
  return label;
}

bool is_connected(const Graph& g) {
  if (g.vertex_count() == 0) return true;
  UnionFind uf(g.vertex_count());
  unite_live_edges(g, uf);
  return uf.component_count() == 1;
}

}  // namespace alvc::graph
