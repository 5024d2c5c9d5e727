// Articulation points (cut vertices) via Tarjan's low-link algorithm.
//
// Resilience diagnostic: an OPS that is an articulation point of its
// cluster's induced subgraph is a single point of failure — losing it
// disconnects the AL. ABL3 reports how exposed each deployment is.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/scratch.h"

namespace alvc::graph {

/// Articulation points of `g`, ascending. Handles disconnected graphs
/// (each component analysed independently); parallel edges and self loops
/// are tolerated.
[[nodiscard]] std::vector<std::size_t> articulation_points(const Graph& g);

/// Articulation points of the subgraph `members` (indices into g's vertex
/// set) induce over g's live edges, reported as vertex ids of g, ascending.
/// `index` is the caller's re-indexing scratch (graph/scratch.h reuse
/// contract); the call costs O(members + their degrees), not O(g).
[[nodiscard]] std::vector<std::size_t> articulation_points_in_subgraph(
    const Graph& g, std::span<const std::size_t> members, VertexIndexMap& index);

}  // namespace alvc::graph
