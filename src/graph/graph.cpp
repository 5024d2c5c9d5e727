#include "graph/graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/scratch.h"

namespace alvc::graph {

std::uint64_t fingerprint_mix(std::uint64_t fp, std::uint64_t value) noexcept {
  // FNV-1a over the value's eight octets; byte-wise so every bit of the
  // input diffuses through the 64-bit state.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int shift = 0; shift < 64; shift += 8) {
    fp ^= (value >> shift) & 0xffULL;
    fp *= kPrime;
  }
  return fp;
}

std::uint64_t path_fingerprint(std::span<const std::size_t> vertices) noexcept {
  std::uint64_t fp = kFingerprintSeed;
  fp = fingerprint_mix(fp, vertices.size());
  for (std::size_t v : vertices) fp = fingerprint_mix(fp, v);
  return fp;
}

TraversalScratch& thread_scratch() {
  thread_local TraversalScratch scratch;
  return scratch;
}

Graph::Graph(const Graph& other)
    : kind_(other.kind_),
      vertex_count_(other.vertex_count_),
      edges_(other.edges_),
      edge_live_(other.edge_live_),
      live_edge_count_(other.live_edge_count_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  kind_ = other.kind_;
  vertex_count_ = other.vertex_count_;
  edges_ = other.edges_;
  edge_live_ = other.edge_live_;
  live_edge_count_ = other.live_edge_count_;
  ++epoch_;  // cold cache: the old CSR arrays describe the old edge list
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : kind_(other.kind_),
      vertex_count_(other.vertex_count_),
      edges_(std::move(other.edges_)),
      edge_live_(std::move(other.edge_live_)),
      live_edge_count_(other.live_edge_count_),
      csr_offsets_(std::move(other.csr_offsets_)),
      csr_adjacency_(std::move(other.csr_adjacency_)),
      csr_live_end_(std::move(other.csr_live_end_)) {
  // Move transfers a warm cache.
  if (other.csr_built_epoch_ == other.epoch_) {
    epoch_ = other.epoch_;
    csr_built_epoch_ = epoch_;
  }
  other.csr_built_epoch_ = 0;
  other.vertex_count_ = 0;
  other.live_edge_count_ = 0;
  ++other.epoch_;
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  kind_ = other.kind_;
  vertex_count_ = other.vertex_count_;
  edges_ = std::move(other.edges_);
  edge_live_ = std::move(other.edge_live_);
  live_edge_count_ = other.live_edge_count_;
  csr_offsets_ = std::move(other.csr_offsets_);
  csr_adjacency_ = std::move(other.csr_adjacency_);
  csr_live_end_ = std::move(other.csr_live_end_);
  if (other.csr_built_epoch_ == other.epoch_) {
    epoch_ = other.epoch_;
    csr_built_epoch_ = epoch_;
  } else {
    ++epoch_;
    csr_built_epoch_ = 0;
  }
  other.csr_built_epoch_ = 0;
  other.vertex_count_ = 0;
  other.live_edge_count_ = 0;
  ++other.epoch_;
  return *this;
}

std::size_t Graph::add_vertex() {
  ++epoch_;
  return vertex_count_++;
}

std::size_t Graph::add_edge(std::size_t from, std::size_t to, double weight) {
  check_vertex(from);
  check_vertex(to);
  const std::size_t e = edges_.size();
  edges_.push_back(Edge{from, to, weight});
  edge_live_.push_back(1);
  ++live_edge_count_;
  ++epoch_;
  return e;
}

void Graph::set_edge_live(std::size_t e, bool live) {
  if (e >= edges_.size()) throw std::out_of_range("Graph edge out of range");
  if ((edge_live_[e] != 0) == live) return;
  edge_live_[e] = live ? 1 : 0;
  if (live) {
    ++live_edge_count_;
  } else {
    --live_edge_count_;
  }
  const bool warm = csr_built_epoch_ == epoch_;
  ++epoch_;
  if (!warm) return;  // the next build lays the new liveness out
  const Edge& edge = edges_[e];
  flip_half_edge(edge.from, e, live);
  if (kind_ == Kind::kUndirected && edge.from != edge.to) flip_half_edge(edge.to, e, live);
  csr_built_epoch_ = epoch_;
}

void Graph::flip_half_edge(std::size_t v, std::size_t e, bool live) {
  const auto begin = csr_adjacency_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[v]);
  const auto live_end = csr_adjacency_.begin() + static_cast<std::ptrdiff_t>(csr_live_end_[v]);
  const auto end = csr_adjacency_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[v + 1]);
  const auto is_e = [e](const Neighbor& n) { return n.edge == e; };
  if (!live) {
    // Rotate it to the back of the live prefix; the live half-edges after
    // it shift down one slot and keep their order.
    const auto it = std::find_if(begin, live_end, is_e);
    std::rotate(it, it + 1, live_end);
    --csr_live_end_[v];
    return;
  }
  // Swap it to the front of the dead tail (whose order is free), then
  // rotate it into its edge-id slot in the live prefix.
  std::iter_swap(std::find_if(live_end, end, is_e), live_end);
  const auto slot = std::lower_bound(begin, live_end, e,
                                     [](const Neighbor& n, std::size_t id) { return n.edge < id; });
  std::rotate(slot, live_end, live_end + 1);
  ++csr_live_end_[v];
}

void Graph::build_csr() const {
  // Counting sort over the edge list. Walking edges in insertion order
  // fills each vertex's slice in that same order, reproducing the old
  // per-vertex push_back sequence exactly. Live edges go first, so each
  // slice starts with its live prefix; dead ones follow in a second pass.
  csr_offsets_.assign(vertex_count_ + 1, 0);
  for (const Edge& e : edges_) {
    ++csr_offsets_[e.from + 1];
    if (kind_ == Kind::kUndirected && e.from != e.to) ++csr_offsets_[e.to + 1];
  }
  for (std::size_t v = 0; v < vertex_count_; ++v) csr_offsets_[v + 1] += csr_offsets_[v];
  csr_adjacency_.resize(csr_offsets_[vertex_count_]);
  std::vector<std::size_t> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  const auto place = [&](std::uint8_t live) {
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (edge_live_[e] != live) continue;
      const Edge& edge = edges_[e];
      csr_adjacency_[cursor[edge.from]++] = Neighbor{edge.to, e, edge.weight};
      if (kind_ == Kind::kUndirected && edge.from != edge.to) {
        csr_adjacency_[cursor[edge.to]++] = Neighbor{edge.from, e, edge.weight};
      }
    }
  };
  place(1);
  csr_live_end_ = cursor;
  if (live_edge_count_ != edges_.size()) place(0);
  csr_built_epoch_ = epoch_;
}

void Graph::ensure_csr() const {
  if (csr_built_epoch_ != epoch_) build_csr();
}

std::span<const Neighbor> Graph::neighbors(std::size_t v) const {
  check_vertex(v);
  ensure_csr();
  return std::span<const Neighbor>(csr_adjacency_.data() + csr_offsets_[v],
                                   csr_live_end_[v] - csr_offsets_[v]);
}

CsrView Graph::csr() const {
  ensure_csr();
  return CsrView{
      .offsets = csr_offsets_, .live_end = csr_live_end_, .adjacency = csr_adjacency_};
}

bool Graph::has_edge(std::size_t a, std::size_t b) const {
  check_vertex(a);
  check_vertex(b);
  const auto adj_a = neighbors(a);
  const auto adj_b = neighbors(b);
  const auto& smaller = adj_a.size() <= adj_b.size() ? adj_a : adj_b;
  const std::size_t target = adj_a.size() <= adj_b.size() ? b : a;
  for (const auto& n : smaller) {
    if (n.vertex == target) return true;
  }
  // Directed graphs store the edge only on `from`, so check the other side too.
  if (kind_ == Kind::kDirected) {
    for (const auto& n : adj_a) {
      if (n.vertex == b) return true;
    }
    return false;
  }
  return false;
}

void Graph::check_vertex(std::size_t v) const {
  if (v >= vertex_count_) throw std::out_of_range("Graph vertex out of range");
}

}  // namespace alvc::graph
