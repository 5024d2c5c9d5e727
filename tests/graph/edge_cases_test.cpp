// Degenerate-input suite for the CSR graph core: every algorithm family
// (bfs/bfs_path_to, dijkstra, max-flow, articulation, bipartite matching +
// cover) against the shapes that break flat-array
// implementations — the empty graph, a single vertex, fully disconnected
// components, self-loops, and vertices at the very top of the index space
// (off-by-one territory for CSR offsets and stamped scratch arrays).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "graph/articulation.h"
#include "graph/bipartite.h"
#include "graph/matching.h"
#include "support/max_flow.h"
#include "graph/scratch.h"
#include "graph/shortest_path.h"
#include "graph/vertex_cover.h"

namespace alvc::graph {
namespace {

VertexSet all_vertices(std::size_t n) {
  VertexSet s;
  s.reset(n);
  for (std::size_t v = 0; v < n; ++v) s.insert(v);
  return s;
}

// ---------------------------------------------------------------- empty ----

TEST(GraphEdgeCases, EmptyGraphIsInertEverywhere) {
  const Graph g(0);
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.csr().offsets.size() <= 1);
  EXPECT_TRUE(articulation_points(g).empty());
  VertexIndexMap index;
  EXPECT_TRUE(articulation_points_in_subgraph(g, std::vector<std::size_t>{}, index).empty());

  const BipartiteGraph b(0, 0);
  const Matching m = maximum_bipartite_matching(b);
  EXPECT_EQ(m.size, 0u);
  EXPECT_TRUE(m.match_left.empty());
  EXPECT_TRUE(m.match_right.empty());
  EXPECT_TRUE(greedy_one_sided_cover(b).empty());
}

// -------------------------------------------------------- single vertex ----

TEST(GraphEdgeCases, SingleVertexGraph) {
  const Graph g(1);
  const PathResult r = bfs(g, 0);
  ASSERT_EQ(r.distance.size(), 1u);
  EXPECT_EQ(r.distance[0], 0.0);
  EXPECT_EQ(r.predecessor[0], kNoVertex);
  const PathResult d = dijkstra(g, 0);
  EXPECT_EQ(d.distance[0], 0.0);

  // Source == target: the trivial one-vertex path, even with no edges.
  const auto path = bfs_path_to(g, 0, 0, all_vertices(1));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, std::vector<std::size_t>{0});

  EXPECT_TRUE(articulation_points(g).empty());

  FlowNetwork net(1);
  EXPECT_THROW(static_cast<void>(net.max_flow(0, 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(net.max_flow(0, 1)), std::out_of_range);
}

// -------------------------------------------- fully disconnected graph ----

TEST(GraphEdgeCases, FullyDisconnectedComponents) {
  const std::size_t n = 9;
  const Graph g(n);  // no edges at all
  const PathResult r = bfs(g, 4);
  for (std::size_t v = 0; v < n; ++v) {
    if (v == 4) {
      EXPECT_EQ(r.distance[v], 0.0);
    } else {
      EXPECT_EQ(r.distance[v], kUnreachable);
      EXPECT_EQ(r.predecessor[v], kNoVertex);
    }
  }
  const PathResult d = dijkstra(g, 4);
  EXPECT_EQ(d.distance[0], kUnreachable);

  EXPECT_FALSE(bfs_path_to(g, 0, n - 1, all_vertices(n)).has_value());
  EXPECT_TRUE(articulation_points(g).empty());

  FlowNetwork net(n);
  EXPECT_EQ(net.max_flow(0, n - 1), 0.0);

  // Two 2-vertex islands: paths exist inside an island, never across.
  Graph islands(4);
  islands.add_edge(0, 1);
  islands.add_edge(2, 3);
  EXPECT_TRUE(bfs_path_to(islands, 0, 1, all_vertices(4)).has_value());
  EXPECT_FALSE(bfs_path_to(islands, 0, 2, all_vertices(4)).has_value());
  EXPECT_TRUE(articulation_points(islands).empty());
}

// ----------------------------------------------------------- self-loops ----

TEST(GraphEdgeCases, SelfLoopsAreInert) {
  // A path 0-1-2 with a self-loop on every vertex: traversal results must
  // be identical to the loop-free path (a self-loop neighbor is always
  // already seen / never relaxes a distance).
  Graph g(3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 1, 5.0);
  g.add_edge(1, 2);
  g.add_edge(2, 2);

  Graph plain(3);
  plain.add_edge(0, 1);
  plain.add_edge(1, 2);

  const PathResult with_loops = bfs(g, 0);
  const PathResult without = bfs(plain, 0);
  EXPECT_EQ(with_loops.distance, without.distance);
  EXPECT_EQ(with_loops.predecessor, without.predecessor);
  EXPECT_EQ(dijkstra(g, 0).distance, dijkstra(plain, 0).distance);

  const auto path = bfs_path_to(g, 0, 2, all_vertices(3));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<std::size_t>{0, 1, 2}));

  // The middle vertex is a cut vertex with or without loops.
  EXPECT_EQ(articulation_points(g), std::vector<std::size_t>{1});
  EXPECT_EQ(articulation_points(g), articulation_points(plain));

  // A self-loop arc can never carry s-t flow.
  FlowNetwork net(3);
  net.add_edge(0, 1, 2.0);
  const std::size_t loop_arc = net.add_edge(1, 1, 10.0);
  net.add_edge(1, 2, 2.0);
  EXPECT_EQ(net.max_flow(0, 2), 2.0);
  EXPECT_EQ(net.flow_on(loop_arc), 0.0);
}

// ----------------------------------------------------- max-index nodes ----

TEST(GraphEdgeCases, MaxIndexVerticesExerciseCsrBoundaries) {
  // All structure crammed against the top of the index space: vertices
  // below `lo` are isolated, so every CSR offset below them is equal and
  // the last offset slot is exercised by real degree.
  const std::size_t n = 64;
  const std::size_t lo = n - 4;  // 60-61-62-63 path plus a chord
  Graph g(n);
  g.add_edge(lo, lo + 1);
  g.add_edge(lo + 1, lo + 2);
  g.add_edge(lo + 2, lo + 3);
  g.add_edge(lo, lo + 2, 3.0);

  const PathResult r = bfs(g, lo);
  EXPECT_EQ(r.distance[lo + 3], 2.0);
  EXPECT_EQ(r.predecessor[lo + 3], lo + 2);
  EXPECT_EQ(r.distance[0], kUnreachable);

  const PathResult d = dijkstra(g, lo);
  EXPECT_EQ(d.distance[lo + 2], 2.0);  // via lo+1, cheaper than the chord

  const auto path = bfs_path_to(g, lo, lo + 3, all_vertices(n));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), lo);
  EXPECT_EQ(path->back(), lo + 3);

  // lo+2 separates lo+3 from the rest; the chord protects lo+1.
  EXPECT_EQ(articulation_points(g), std::vector<std::size_t>{lo + 2});
  const std::vector<std::size_t> members{lo, lo + 1, lo + 2, lo + 3};
  VertexIndexMap index;
  EXPECT_EQ(articulation_points_in_subgraph(g, members, index), std::vector<std::size_t>{lo + 2});

  FlowNetwork net(n);
  net.add_edge(lo, lo + 1, 1.0);
  net.add_edge(lo + 1, lo + 2, 1.0);
  net.add_edge(lo, lo + 2, 1.0);
  net.add_edge(lo + 2, lo + 3, 5.0);
  EXPECT_EQ(net.max_flow(lo, lo + 3), 2.0);

  // Bipartite core with the only edges on the last left/right vertices.
  BipartiteGraph b(16, 16);
  b.add_edge(15, 15);
  b.add_edge(14, 15);
  b.add_edge(15, 14);
  const Matching m = maximum_bipartite_matching(b);
  EXPECT_EQ(m.size, 2u);
  const auto cover = greedy_one_sided_cover(b);
  ASSERT_FALSE(cover.empty());
  for (std::size_t l : cover) EXPECT_GE(l, 14u);
}

// ------------------------------------------- scratch reuse across sizes ----

TEST(GraphEdgeCases, ScratchSurvivesShrinkingAndGrowingGraphs) {
  // The thread-local scratch is sized by the largest graph seen; alternate
  // between large and small graphs to prove stale state never leaks.
  Graph big(128);
  for (std::size_t v = 0; v + 1 < 128; ++v) big.add_edge(v, v + 1);
  Graph small(3);
  small.add_edge(0, 1);

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(bfs(big, 0).distance[127], 127.0);
    const PathResult r = bfs(small, 0);
    EXPECT_EQ(r.distance[1], 1.0);
    EXPECT_EQ(r.distance[2], kUnreachable);
    EXPECT_FALSE(bfs_path_to(small, 1, 2, all_vertices(3)).has_value());
    ASSERT_TRUE(bfs_path_to(big, 0, 64, all_vertices(128)).has_value());
  }
}

}  // namespace
}  // namespace alvc::graph
