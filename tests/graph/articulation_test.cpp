#include "graph/articulation.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/union_find.h"
#include "support/random_graph.h"
#include "util/rng.h"

namespace alvc::graph {
namespace {

TEST(ArticulationTest, PathGraphInteriorVerticesAreCuts) {
  Graph g(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ArticulationTest, CycleHasNoCuts) {
  Graph g(5);
  for (std::size_t i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  EXPECT_TRUE(articulation_points(g).empty());
}

TEST(ArticulationTest, StarCenterIsCut) {
  Graph g(5);
  for (std::size_t i = 1; i < 5; ++i) g.add_edge(0, i);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{0}));
}

TEST(ArticulationTest, TwoTrianglesSharingAVertex) {
  // 0-1-2-0 and 2-3-4-2: vertex 2 is the hinge.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{2}));
}

TEST(ArticulationTest, DisconnectedComponentsAnalysedSeparately) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);  // path: 1 is a cut
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);  // triangle: no cuts
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{1}));
}

TEST(ArticulationTest, ParallelEdgesDoNotProtectAVertex) {
  // 0 =2= 1 - 2: vertex 1 is still a cut even though 0-1 is doubled.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{1}));
}

TEST(ArticulationTest, SelfLoopsIgnored) {
  Graph g(3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(articulation_points(g), (std::vector<std::size_t>{1}));
}

TEST(ArticulationTest, EmptyAndSingleton) {
  EXPECT_TRUE(articulation_points(Graph(0)).empty());
  EXPECT_TRUE(articulation_points(Graph(1)).empty());
}

TEST(ArticulationSubgraphTest, InducedSubgraphCuts) {
  // Full graph is a cycle (no cuts); the induced subgraph {0,1,2} is a
  // path with 1 as the cut.
  Graph g(5);
  for (std::size_t i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const std::vector<std::size_t> members{0, 1, 2};
  VertexIndexMap index;
  EXPECT_EQ(articulation_points_in_subgraph(g, members, index), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(articulation_points_in_subgraph(g, std::vector<std::size_t>{}, index).empty());
}

class ArticulationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArticulationPropertyTest, RemovalOfCutVertexDisconnectsItsComponent) {
  alvc::util::Rng rng(GetParam());
  const std::size_t n = 8 + rng.uniform_index(10);
  Graph g = alvc::test::random_gnp_graph(rng, n, 0.22);
  const auto component_count_without = [&](std::size_t removed) {
    UnionFind uf(n);
    for (const Edge& e : g.edges()) {
      if (e.from == removed || e.to == removed) continue;
      uf.unite(e.from, e.to);
    }
    return uf.component_count();  // includes `removed` as its own set
  };
  const auto baseline = [&] {
    UnionFind uf(n);
    for (const Edge& e : g.edges()) uf.unite(e.from, e.to);
    return uf.component_count();
  }();
  const auto cuts = articulation_points(g);
  const std::set<std::size_t> cut_set(cuts.begin(), cuts.end());
  for (std::size_t v = 0; v < n; ++v) {
    // Removing v leaves v isolated (+1 component). A vertex is a cut point
    // iff removal splits its old component further (> baseline + 1).
    const std::size_t after = component_count_without(v);
    if (cut_set.contains(v)) {
      EXPECT_GT(after, baseline + 1) << "vertex " << v << " flagged but removal harmless";
    } else {
      EXPECT_LE(after, baseline + 1) << "vertex " << v << " is a cut but was not flagged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArticulationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace alvc::graph
