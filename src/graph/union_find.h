// Disjoint-set union for connectivity checks.
//
// Used by topology validation (is the OPS core connected?) and by the AL
// builder's connectivity post-condition (do the chosen OPSs connect all
// selected ToRs?).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace alvc::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Representative of v's set (path halving).
  [[nodiscard]] std::size_t find(std::size_t v);

  /// Merge the sets of a and b; returns true if they were distinct.
  bool unite(std::size_t a, std::size_t b);

  [[nodiscard]] bool connected(std::size_t a, std::size_t b);
  [[nodiscard]] std::size_t component_count() const noexcept { return components_; }
  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
  std::size_t components_;
};

/// Component label per vertex over the live edges (labels are 0..k-1 in
/// first-seen order).
[[nodiscard]] std::vector<std::size_t> connected_components(const Graph& g);

/// True if the live edges join the whole graph into one component (empty
/// graph counts connected).
[[nodiscard]] bool is_connected(const Graph& g);

}  // namespace alvc::graph
