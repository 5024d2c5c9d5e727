#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace alvc::graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphTest, AddVertexGrows) {
  Graph g(2);
  EXPECT_EQ(g.add_vertex(), 2u);
  EXPECT_EQ(g.vertex_count(), 3u);
}

TEST(GraphTest, UndirectedEdgeVisibleFromBothSides) {
  Graph g(3);
  const auto e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(e, 0u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].vertex, 1u);
  EXPECT_EQ(g.neighbors(1)[0].vertex, 0u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 2.5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphTest, DirectedEdgeOnlyForward) {
  Graph g(3, Graph::Kind::kDirected);
  g.add_edge(0, 1);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 0u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(GraphTest, SelfLoopAppearsOnce) {
  Graph g(2);
  g.add_edge(1, 1);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphTest, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(5), std::out_of_range);
  EXPECT_THROW((void)g.edge(0), std::out_of_range);
}

TEST(GraphTest, EdgeRecordsEndpoints) {
  Graph g(4);
  g.add_edge(1, 3, 7.0);
  const Edge& e = g.edge(0);
  EXPECT_EQ(e.from, 1u);
  EXPECT_EQ(e.to, 3u);
  EXPECT_DOUBLE_EQ(e.weight, 7.0);
}

TEST(GraphTest, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

// ---- in-place edge liveness (set_edge_live) ----

/// A from-scratch graph over only g's live edges, in edge-id order: what
/// neighbors() must reproduce after any sequence of flips.
Graph rebuild_live(const Graph& g) {
  Graph fresh(g.vertex_count(), g.kind());
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    if (g.edge_live(e)) fresh.add_edge(g.edge(e).from, g.edge(e).to, g.edge(e).weight);
  }
  return fresh;
}

/// neighbors(), csr(), degree() and has_edge() all agree with the rebuild:
/// same neighbour vertices and weights in the same order, and the edge ids
/// are the live edges' own ids in ascending order.
void expect_equals_live_rebuild(const Graph& g) {
  const Graph fresh = rebuild_live(g);
  ASSERT_EQ(g.edge_count(), fresh.edge_count());
  const CsrView csr = g.csr();
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto got = g.neighbors(v);
    const auto want = fresh.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "vertex " << v;
    ASSERT_EQ(g.degree(v), want.size());
    ASSERT_EQ(csr.neighbors(v).size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].vertex, want[i].vertex) << "vertex " << v << " slot " << i;
      EXPECT_EQ(got[i].weight, want[i].weight);
      EXPECT_TRUE(g.edge_live(got[i].edge));
      if (i > 0) {
        EXPECT_LT(got[i - 1].edge, got[i].edge);
      }
      EXPECT_EQ(csr.neighbors(v)[i].edge, got[i].edge);
    }
    for (std::size_t u = 0; u < g.vertex_count(); ++u) {
      EXPECT_EQ(g.has_edge(v, u), fresh.has_edge(v, u)) << v << "-" << u;
    }
  }
}

Graph star_with_chords() {
  // Vertex 0 touches every other vertex; chords make the leaves' slices
  // interleave live and dead half-edges too.
  Graph g(7);
  for (std::size_t v = 1; v < 7; ++v) g.add_edge(0, v, static_cast<double>(v));
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  g.add_edge(4, 5);
  return g;
}

TEST(GraphEdgeLivenessTest, KillAndReviveInAnyOrderKeepsEdgeIdOrder) {
  alvc::util::Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = star_with_chords();
    ASSERT_EQ(g.neighbors(0).size(), 6u);  // build the CSR: flips patch it
    std::vector<std::size_t> order(g.edges().size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
    for (std::size_t e : order) {
      g.set_edge_live(e, false);
      expect_equals_live_rebuild(g);
    }
    EXPECT_EQ(g.edge_count(), 0u);
    rng.shuffle(order);
    for (std::size_t e : order) {
      g.set_edge_live(e, true);
      expect_equals_live_rebuild(g);
    }
    // Random interleaving of kills and revivals.
    for (int step = 0; step < 40; ++step) {
      g.set_edge_live(rng.uniform_index(g.edges().size()), rng.bernoulli(0.5));
      expect_equals_live_rebuild(g);
    }
  }
}

TEST(GraphEdgeLivenessTest, FlipsAreIdempotent) {
  Graph g = star_with_chords();
  ASSERT_EQ(g.degree(0), 6u);
  g.set_edge_live(2, false);
  const auto epoch = g.mutation_epoch();
  g.set_edge_live(2, false);
  EXPECT_EQ(g.mutation_epoch(), epoch) << "a repeated kill is a no-op";
  EXPECT_EQ(g.edge_count(), g.edges().size() - 1);
  EXPECT_EQ(g.degree(0), 5u);
  g.set_edge_live(5, true);
  EXPECT_EQ(g.mutation_epoch(), epoch) << "reviving a live edge is a no-op";
  expect_equals_live_rebuild(g);
  g.set_edge_live(2, true);
  EXPECT_GT(g.mutation_epoch(), epoch);
  EXPECT_EQ(g.edge_count(), g.edges().size());
  expect_equals_live_rebuild(g);
}

TEST(GraphEdgeLivenessTest, FlipBeforeAndAfterCsrBuild) {
  // Before: the flags are laid out by the build itself.
  Graph cold = star_with_chords();
  cold.set_edge_live(0, false);
  cold.set_edge_live(7, false);
  cold.set_edge_live(0, true);
  cold.set_edge_live(3, false);
  expect_equals_live_rebuild(cold);
  // After: the same flips patch a built CSR and land in the same state.
  Graph warm = star_with_chords();
  ASSERT_EQ(warm.degree(0), 6u);
  warm.set_edge_live(0, false);
  warm.set_edge_live(7, false);
  warm.set_edge_live(0, true);
  warm.set_edge_live(3, false);
  expect_equals_live_rebuild(warm);
  for (std::size_t v = 0; v < warm.vertex_count(); ++v) {
    const auto a = warm.neighbors(v);
    const auto b = cold.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(),
                           [](const Neighbor& x, const Neighbor& y) {
                             return x.vertex == y.vertex && x.edge == y.edge;
                           }));
  }
  // A flip on a stale CSR (a vertex added since the build) is laid out by
  // the rebuild that the next read triggers.
  warm.add_vertex();
  warm.set_edge_live(3, true);
  warm.add_edge(7, 0);
  warm.set_edge_live(9, false);
  expect_equals_live_rebuild(warm);
}

TEST(GraphEdgeLivenessTest, ParallelEdgesSelfLoopsAndDirectedGraphs) {
  Graph g(3);
  g.add_edge(0, 1);  // 0
  g.add_edge(0, 1);  // 1: parallel to 0
  g.add_edge(1, 1);  // 2: self-loop, one half-edge
  g.add_edge(1, 2);  // 3
  ASSERT_EQ(g.degree(1), 4u);
  g.set_edge_live(0, false);
  EXPECT_TRUE(g.has_edge(0, 1)) << "the parallel edge still links 0 and 1";
  g.set_edge_live(2, false);
  EXPECT_EQ(g.degree(1), 2u);
  expect_equals_live_rebuild(g);
  g.set_edge_live(1, false);
  EXPECT_FALSE(g.has_edge(0, 1));
  g.set_edge_live(2, true);
  g.set_edge_live(0, true);
  expect_equals_live_rebuild(g);

  Graph d(3, Graph::Kind::kDirected);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  d.add_edge(0, 2);
  d.add_edge(0, 0);
  ASSERT_EQ(d.degree(0), 3u);
  d.set_edge_live(0, false);
  ASSERT_EQ(d.degree(0), 2u);
  EXPECT_EQ(d.neighbors(0)[0].vertex, 2u);
  EXPECT_EQ(d.degree(1), 1u) << "the reverse edge lives in 1's slice only";
  d.set_edge_live(3, false);
  expect_equals_live_rebuild(d);
  d.set_edge_live(1, false);
  d.set_edge_live(0, true);
  expect_equals_live_rebuild(d);
}

TEST(GraphEdgeLivenessTest, CopyAndMoveCarryLiveness) {
  Graph g = star_with_chords();
  ASSERT_EQ(g.degree(0), 6u);
  g.set_edge_live(1, false);
  g.set_edge_live(8, false);

  Graph copy(g);
  expect_equals_live_rebuild(copy);
  EXPECT_FALSE(copy.edge_live(1));
  EXPECT_EQ(copy.edge_count(), g.edge_count());
  copy.set_edge_live(1, true);  // independent of the original
  EXPECT_FALSE(g.edge_live(1));

  Graph assigned(1);
  assigned = g;
  expect_equals_live_rebuild(assigned);

  Graph moved(std::move(copy));
  EXPECT_TRUE(moved.edge_live(1));
  EXPECT_FALSE(moved.edge_live(8));
  expect_equals_live_rebuild(moved);
  moved.set_edge_live(8, true);  // the moved-in warm CSR is patchable
  expect_equals_live_rebuild(moved);

  Graph move_assigned;
  move_assigned = std::move(g);
  EXPECT_FALSE(move_assigned.edge_live(1));
  EXPECT_EQ(move_assigned.edge_count(), move_assigned.edges().size() - 2);
  expect_equals_live_rebuild(move_assigned);
}

TEST(GraphEdgeLivenessTest, BadEdgeIdThrows) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.set_edge_live(1, false), std::out_of_range);
  EXPECT_THROW((void)g.edge_live(1), std::out_of_range);
}

}  // namespace
}  // namespace alvc::graph
