// Reusable traversal scratch: struct-of-arrays node state for BFS/DFS.
//
// Every graph traversal needs the same per-vertex state (seen flag,
// predecessor, frontier). Allocating it per call dominates short searches
// — exactly the slice-restricted legs the orchestrator runs thousands of
// times per sweep. The types here keep that state in flat arrays that are
// RESET IN O(1) by bumping a generation stamp instead of clearing.
//
// Reuse contract: the O(1) reset holds only for a REUSED object. A fresh
// one allocates and zero-fills arrays sized to the whole vertex space on
// its first reset (112 500 vertices at a million VMs), so scratch is
// owner-held:
//   * A long-lived owner keeps one instance and passes it down to the
//     calls that need it: ClusterManager's cluster::AlBuildScratch,
//     ChainRouter's and each RouteCache's slice set, AdmissionController's
//     member set. Tests and benches hold their own. Never declare one as a
//     function local in src/ — alvc_lint's `scratch-local` rule rejects it.
//   * One call at a time per instance: a callee may reuse what its caller
//     handed it only after the caller is done with that part.
//   * `reset(n)` invalidates all prior contents in O(1) and re-sizes the
//     backing array only when the vertex space grew.
//   * `thread_scratch()` (graph.cpp) still hands out one TraversalScratch
//     per thread for the BFS state itself; a caller holds it only between
//     its `begin()` and the end of that traversal, so no nested traversals
//     on one thread may both hold it.
//   * Stamps are 32-bit; on wrap-around the backing array is cleared once,
//     so correctness never depends on stamp uniqueness across 2^32 resets.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace alvc::graph {

inline constexpr std::size_t kScratchNoVertex = static_cast<std::size_t>(-1);

/// Dense membership set over [0, capacity) with O(1) reset via stamping.
/// The CSR routing hot path uses this instead of std::unordered_set: one
/// array load per membership test, no hashing, no rehash jitter.
class VertexSet {
 public:
  /// Empties the set and grows capacity to `capacity` vertices.
  void reset(std::size_t capacity) {
    if (stamp_.size() < capacity) stamp_.resize(capacity, 0);
    if (++current_ == 0) {  // wrap: clear once, stamps restart at 1
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
    size_ = 0;
  }

  /// Empties the set in O(1), keeping its capacity.
  void clear() { reset(0); }

  void insert(std::size_t v) {
    if (stamp_[v] != current_) {
      stamp_[v] = current_;
      ++size_;
    }
  }

  [[nodiscard]] bool contains(std::size_t v) const noexcept {
    return v < stamp_.size() && stamp_[v] == current_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_ = 0;
  std::size_t size_ = 0;
};

/// Dense vertex -> small-integer map with O(1) reset via stamping; the
/// subgraph re-indexing primitive (replaces per-call std::unordered_map).
/// Values are assigned by the caller; `get` returns kScratchNoVertex for
/// unmapped vertices.
class VertexIndexMap {
 public:
  void reset(std::size_t capacity) {
    if (stamp_.size() < capacity) {
      stamp_.resize(capacity, 0);
      value_.resize(capacity, 0);
    }
    if (++current_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
    size_ = 0;
  }

  /// Maps v -> value; counts it only when v was unmapped.
  void put(std::size_t v, std::size_t value) {
    if (stamp_[v] != current_) {
      stamp_[v] = current_;
      ++size_;
    }
    value_[v] = value;
  }

  [[nodiscard]] bool contains(std::size_t v) const noexcept {
    return v < stamp_.size() && stamp_[v] == current_;
  }

  [[nodiscard]] std::size_t get(std::size_t v) const noexcept {
    return contains(v) ? value_[v] : kScratchNoVertex;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::size_t> value_;
  std::uint32_t current_ = 0;
  std::size_t size_ = 0;
};

/// Struct-of-arrays state for one BFS/DFS: stamped seen marks, predecessor
/// array, and a flat FIFO frontier (head index instead of pops). One
/// traversal at a time per instance.
struct TraversalScratch {
  std::vector<std::uint32_t> seen_stamp;
  std::uint32_t stamp = 0;
  std::vector<std::size_t> predecessor;
  std::vector<std::size_t> frontier;

  /// Starts a traversal over `vertex_count` vertices: O(1) apart from
  /// one-time growth of the backing arrays.
  void begin(std::size_t vertex_count) {
    if (seen_stamp.size() < vertex_count) {
      seen_stamp.resize(vertex_count, 0);
      predecessor.resize(vertex_count, kScratchNoVertex);
    }
    if (++stamp == 0) {
      std::fill(seen_stamp.begin(), seen_stamp.end(), 0);
      stamp = 1;
    }
    frontier.clear();
  }

  /// Marks v seen; true when v was not yet seen this traversal.
  bool mark(std::size_t v) {
    if (seen_stamp[v] == stamp) return false;
    seen_stamp[v] = stamp;
    return true;
  }

  [[nodiscard]] bool seen(std::size_t v) const noexcept { return seen_stamp[v] == stamp; }
};

/// The per-thread BFS state traversals share. Held by the calling
/// algorithm for the duration of one traversal (see the reuse contract
/// above).
[[nodiscard]] TraversalScratch& thread_scratch();

}  // namespace alvc::graph
