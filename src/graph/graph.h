// General-purpose weighted graph on a flat compressed-sparse-row core.
//
// Used for the physical network (ToR/OPS links) and any derived logical
// topologies. Vertices are dense indices [0, vertex_count); edges are stored
// once in insertion order and exposed per-endpoint. Supports directed and
// undirected modes.
//
// Representation: the edge list is the source of truth; adjacency is a CSR
// view over it — one dense half-edge array (`Neighbor` slots) plus a
// vertex-offset array — rebuilt lazily whenever the mutation epoch moves.
// The CSR fill walks edges in insertion order, so each vertex's neighbor
// order is EXACTLY the order the old adjacency-list build produced; every
// traversal tie-break (and therefore every routed path) is preserved
// bit-for-bit.
//
// Edges can be killed and revived in place (`set_edge_live`) without
// changing their ids. Each vertex keeps its live half-edges as a prefix of
// its CSR slice, in edge-id order, with the dead ones parked behind it; a
// flip on a built CSR is an O(degree) shift inside the endpoints' slices.
// `neighbors(v)` returns the live prefix, which is exactly the slice a
// from-scratch build over only the live edges would produce (edge ids
// aside). The CSR is a plain lazy cache: the first const read after a
// mutation builds it. A Graph is not safe to share across threads, since
// even a const read may build the CSR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alvc::graph {

/// FNV-1a offset basis; the seed every fingerprint chain starts from.
inline constexpr std::uint64_t kFingerprintSeed = 14695981039346656037ULL;

/// Folds one 64-bit value into a running fingerprint (order-sensitive:
/// mixing [a, b] and [b, a] yields different results).
[[nodiscard]] std::uint64_t fingerprint_mix(std::uint64_t fp, std::uint64_t value) noexcept;

/// 64-bit fingerprint of a vertex sequence. Two paths fingerprint equal
/// only if they visit the same vertices in the same order (modulo hash
/// collisions); used to detect cached-path corruption cheaply.
[[nodiscard]] std::uint64_t path_fingerprint(std::span<const std::size_t> vertices) noexcept;

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  double weight = 1.0;
};

/// Half-edge as seen from a vertex.
struct Neighbor {
  std::size_t vertex = 0;
  std::size_t edge = 0;  // index into edges()
  double weight = 1.0;
};

/// Borrowed view of a graph's CSR arrays: offsets[v]..offsets[v+1] bound
/// vertex v's slice of the dense half-edge array, and offsets[v]..live_end[v]
/// its live prefix (dead half-edges sit in the rest of the slice). Traversal
/// loops grab one view up front and index it directly, skipping the
/// per-call validity check `Graph::neighbors` pays. Invalidated by any
/// graph mutation, liveness flips included.
struct CsrView {
  std::span<const std::size_t> offsets;   // vertex_count + 1 entries
  std::span<const std::size_t> live_end;  // vertex_count entries
  std::span<const Neighbor> adjacency;    // dense half-edges, CSR order

  /// Live half-edges of v, in edge-id order.
  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t v) const noexcept {
    return adjacency.subspan(offsets[v], live_end[v] - offsets[v]);
  }
};

class Graph {
 public:
  enum class Kind { kUndirected, kDirected };

  explicit Graph(std::size_t vertex_count = 0, Kind kind = Kind::kUndirected)
      : kind_(kind), vertex_count_(vertex_count) {}

  // The CSR cache is per-object state: copies transfer the edge list and
  // its liveness and start with a cold cache; moves carry a warm cache
  // with them.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;
  ~Graph() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t vertex_count() const noexcept { return vertex_count_; }
  /// Live edges; equals edges().size() unless some were killed.
  [[nodiscard]] std::size_t edge_count() const noexcept { return live_edge_count_; }

  /// Adds a vertex; returns its index.
  std::size_t add_vertex();

  /// Adds an edge; returns its index. Undirected edges appear in both
  /// endpoints' adjacency. Throws on out-of-range endpoints.
  std::size_t add_edge(std::size_t from, std::size_t to, double weight = 1.0);

  /// Live half-edges of v, in edge-id order.
  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t v) const;
  /// Every edge ever added, dead ones included, indexed by edge id. Walkers
  /// over a graph that may hold dead edges skip those with !edge_live(e).
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }
  [[nodiscard]] const Edge& edge(std::size_t e) const { return edges_.at(e); }
  [[nodiscard]] bool edge_live(std::size_t e) const { return edge_live_.at(e) != 0; }
  /// Live degree.
  [[nodiscard]] std::size_t degree(std::size_t v) const { return neighbors(v).size(); }

  /// Kills (`live == false`) or revives edge e in place; its id stays
  /// valid. A no-op when e already has that state. On a built CSR this is
  /// an O(degree) patch of the endpoints' slices, so the cache stays warm;
  /// otherwise the next build lays liveness out. Throws on a bad id.
  void set_edge_live(std::size_t e, bool live);

  /// True if some edge directly connects a and b (O(min degree)).
  [[nodiscard]] bool has_edge(std::size_t a, std::size_t b) const;

  /// The CSR arrays, built now if stale. The view borrows the graph's
  /// storage: any later mutation invalidates it.
  [[nodiscard]] CsrView csr() const;

  /// Builds the CSR arrays if the mutation epoch moved since the last
  /// build. Idempotent; `neighbors`/`csr` call it lazily.
  void ensure_csr() const;

  /// Monotone counter bumped by every mutation; the CSR cache is valid
  /// exactly when it was built (or patched by a flip) at the current epoch.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept { return epoch_; }

 private:
  void check_vertex(std::size_t v) const;
  void build_csr() const;
  /// Moves edge e's half-edge in v's slice across the live boundary.
  void flip_half_edge(std::size_t v, std::size_t e, bool live);

  Kind kind_;
  std::size_t vertex_count_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::uint8_t> edge_live_;  // per edge id: 1 = live
  std::size_t live_edge_count_ = 0;

  std::uint64_t epoch_ = 1;

  mutable std::vector<std::size_t> csr_offsets_;
  mutable std::vector<Neighbor> csr_adjacency_;
  mutable std::vector<std::size_t> csr_live_end_;
  /// Epoch the CSR arrays were built at; 0 = never.
  mutable std::uint64_t csr_built_epoch_ = 0;
};

}  // namespace alvc::graph
