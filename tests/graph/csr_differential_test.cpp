// CSR differential suite: the flat CSR graph core versus the pre-CSR
// reference implementations, compared edge-for-edge and result-for-result.
//
// The CSR refactor promises BIT-IDENTICAL behavior, not just equivalent
// answers: the fill order reproduces the old per-vertex push_back order, so
// every traversal tie-break — BFS predecessor choice, Dijkstra relaxation
// order, Dinic arc order, Tarjan neighbor order, greedy-cover argmax — must
// match the legacy build exactly. Each seed builds one switch-shaped
// topology and one weighted G(n,p) graph and runs all five algorithm
// families (bfs, dijkstra, max-flow, articulation, bipartite matching +
// cover) against the preserved legacy implementations in
// tests/support/legacy_graph.h.
//
// Every algorithm runs TWICE per graph: a second identical call must
// reproduce the first, which catches scratch-buffer reuse bugs (a stale
// stamp or frontier surviving into the next traversal).
#include <gtest/gtest.h>

#include <vector>

#include "graph/articulation.h"
#include "graph/bipartite.h"
#include "graph/matching.h"
#include "support/max_flow.h"
#include "graph/scratch.h"
#include "graph/shortest_path.h"
#include "graph/vertex_cover.h"
#include "support/legacy_graph.h"
#include "support/random_graph.h"
#include "util/rng.h"

namespace alvc::graph {
namespace {

using alvc::test::random_switch_graph;
using alvc::test::random_weighted_gnp_graph;
using alvc::test::SwitchTopologyParams;

/// CSR adjacency must reproduce the legacy per-vertex push_back vectors
/// slot for slot: same neighbor, same edge id, same weight.
void expect_adjacency_identical(const Graph& g) {
  const auto legacy_adj = alvc::test::legacy::build_adjacency(g);
  ASSERT_EQ(legacy_adj.size(), g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto csr_nbrs = g.neighbors(v);
    ASSERT_EQ(csr_nbrs.size(), legacy_adj[v].size()) << "degree mismatch at vertex " << v;
    for (std::size_t i = 0; i < csr_nbrs.size(); ++i) {
      EXPECT_EQ(csr_nbrs[i].vertex, legacy_adj[v][i].vertex) << "vertex " << v << " slot " << i;
      EXPECT_EQ(csr_nbrs[i].edge, legacy_adj[v][i].edge) << "vertex " << v << " slot " << i;
      EXPECT_EQ(csr_nbrs[i].weight, legacy_adj[v][i].weight) << "vertex " << v << " slot " << i;
    }
  }
}

void expect_path_results_identical(const PathResult& actual, const PathResult& expected,
                                   const char* what) {
  EXPECT_EQ(actual.distance, expected.distance) << what << ": distance diverged";
  EXPECT_EQ(actual.predecessor, expected.predecessor) << what << ": predecessor diverged";
}

/// Sources that cover the index-space corners: first, middle, last vertex.
std::vector<std::size_t> probe_sources(const Graph& g) {
  if (g.vertex_count() == 0) return {};
  return {0, g.vertex_count() / 2, g.vertex_count() - 1};
}

void check_bfs_and_dijkstra(const Graph& g) {
  const auto filter = [](std::size_t v) { return v % 3 != 0; };
  for (std::size_t source : probe_sources(g)) {
    expect_path_results_identical(bfs(g, source), alvc::test::legacy::bfs(g, source), "bfs");
    expect_path_results_identical(bfs(g, source), alvc::test::legacy::bfs(g, source),
                                  "bfs (repeat)");
    expect_path_results_identical(bfs(g, source, filter),
                                  alvc::test::legacy::bfs(g, source, filter), "filtered bfs");
    expect_path_results_identical(dijkstra(g, source), alvc::test::legacy::dijkstra(g, source),
                                  "dijkstra");
    expect_path_results_identical(dijkstra(g, source, filter),
                                  alvc::test::legacy::dijkstra(g, source, filter),
                                  "filtered dijkstra");
  }
}

/// bfs_path_to against the legacy pair it replaces: full BFS under the
/// equivalent membership filter, then extract_path.
void check_bfs_path_to(const Graph& g, std::size_t& reachable_pairs) {
  if (g.vertex_count() == 0) return;
  VertexSet allowed;
  allowed.reset(g.vertex_count());
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    if (v % 3 != 0) allowed.insert(v);
  }
  const auto filter = [&](std::size_t v) { return allowed.contains(v); };
  for (std::size_t source : probe_sources(g)) {
    for (std::size_t target : probe_sources(g)) {
      const auto fast = bfs_path_to(g, source, target, allowed);
      const auto slow =
          extract_path(alvc::test::legacy::bfs(g, source, filter), target);
      EXPECT_EQ(fast, slow) << "bfs_path_to " << source << "->" << target;
      EXPECT_EQ(bfs_path_to(g, source, target, allowed), slow)
          << "bfs_path_to repeat " << source << "->" << target;
      if (fast) ++reachable_pairs;
    }
  }
}

/// Same arc sequence into both networks (one directed arc per undirected
/// edge, each direction, capacity = weight): total flow and every per-arc
/// flow split must agree exactly.
void check_max_flow(const Graph& g, std::size_t& positive_flows) {
  if (g.vertex_count() < 2) return;
  FlowNetwork net(g.vertex_count());
  alvc::test::legacy::FlowNetwork legacy_net(g.vertex_count());
  for (const Edge& e : g.edges()) {
    if (e.from == e.to) continue;
    net.add_edge(e.from, e.to, e.weight);
    legacy_net.add_edge(e.from, e.to, e.weight);
    net.add_edge(e.to, e.from, e.weight);
    legacy_net.add_edge(e.to, e.from, e.weight);
  }
  const std::size_t s = 0;
  const std::size_t t = g.vertex_count() - 1;
  const double total = net.max_flow(s, t);
  EXPECT_EQ(total, legacy_net.max_flow(s, t)) << "max-flow value diverged";
  const std::size_t arc_count = [&] {
    std::size_t n = 0;
    for (const Edge& e : g.edges()) {
      if (e.from != e.to) n += 2;  // two forward arcs per undirected edge
    }
    return n;
  }();
  for (std::size_t arc = 0; arc < 2 * arc_count; arc += 2) {
    EXPECT_EQ(net.flow_on(arc), legacy_net.flow_on(arc)) << "arc " << arc << " flow diverged";
  }
  EXPECT_EQ(net.max_flow(s, t), total) << "max-flow repeat diverged";
  if (total > 0) ++positive_flows;
}

void check_articulation(const Graph& g, std::size_t& cut_count) {
  const auto cuts = articulation_points(g);
  EXPECT_EQ(cuts, alvc::test::legacy::articulation_points(g));
  EXPECT_EQ(articulation_points(g), cuts) << "articulation repeat diverged";
  cut_count += cuts.size();
  // Induced subgraph: every other vertex, plus an out-of-range member the
  // implementation must skip.
  std::vector<std::size_t> members;
  for (std::size_t v = 0; v < g.vertex_count(); v += 2) members.push_back(v);
  members.push_back(g.vertex_count() + 17);
  alvc::graph::VertexIndexMap index;
  EXPECT_EQ(articulation_points_in_subgraph(g, members, index),
            alvc::test::legacy::articulation_points_in_subgraph(g, members));
  // The same map reused for the other half must not leak the first call's
  // members.
  std::vector<std::size_t> odd;
  for (std::size_t v = 1; v < g.vertex_count(); v += 2) odd.push_back(v);
  EXPECT_EQ(articulation_points_in_subgraph(g, odd, index),
            alvc::test::legacy::articulation_points_in_subgraph(g, odd));
}

void check_bipartite(std::uint64_t seed) {
  alvc::util::Rng rng(seed * 977 + 11);
  const std::size_t nl = 6 + rng.uniform_index(20);
  const std::size_t nr = 3 + rng.uniform_index(10);
  BipartiteGraph g(nl, nr);
  alvc::test::legacy::Bipartite legacy_g(nl, nr);
  for (std::size_t l = 0; l < nl; ++l) {
    for (std::size_t r = 0; r < nr; ++r) {
      if (rng.bernoulli(0.3)) {
        g.add_edge(l, r);
        legacy_g.add_edge(l, r);
      }
    }
  }
  const Matching m = maximum_bipartite_matching(g);
  const Matching legacy_m = alvc::test::legacy::maximum_bipartite_matching(legacy_g);
  EXPECT_EQ(m.size, legacy_m.size);
  EXPECT_EQ(m.match_left, legacy_m.match_left);
  EXPECT_EQ(m.match_right, legacy_m.match_right);
  // The incremental-gain greedy cover against the old full-rescan version:
  // identical picks in identical order (the sort at the end hides order,
  // but count + membership pin the argmax sequence tightly).
  EXPECT_EQ(greedy_one_sided_cover(g), alvc::test::legacy::greedy_one_sided_cover(legacy_g));
  EXPECT_EQ(greedy_one_sided_cover(g), alvc::test::legacy::greedy_one_sided_cover(legacy_g));
}

class CsrDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrDifferentialTest, SwitchTopologyAllAlgorithmsMatchLegacy) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed = " << seed);
  SwitchTopologyParams params;
  params.racks = 4 + seed % 13;
  params.ops_per_rack = 1 + seed % 3;
  params.fan_out = 2 + seed % 3;
  params.fault_fraction = 0.1 * static_cast<double>(seed % 4);
  params.seed = seed;
  const Graph g = random_switch_graph(params);
  ASSERT_GT(g.edge_count(), 0u) << "vacuous topology";

  expect_adjacency_identical(g);
  check_bfs_and_dijkstra(g);
  std::size_t reachable_pairs = 0;
  check_bfs_path_to(g, reachable_pairs);
  std::size_t positive_flows = 0;
  check_max_flow(g, positive_flows);
  std::size_t cut_count = 0;
  check_articulation(g, cut_count);
}

TEST_P(CsrDifferentialTest, WeightedGnpAllAlgorithmsMatchLegacy) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed = " << seed);
  alvc::util::Rng rng(seed);
  const std::size_t n = 8 + rng.uniform_index(12);
  const Graph g = random_weighted_gnp_graph(rng, n, 0.25, 4);

  expect_adjacency_identical(g);
  check_bfs_and_dijkstra(g);
  std::size_t reachable_pairs = 0;
  check_bfs_path_to(g, reachable_pairs);
  std::size_t positive_flows = 0;
  check_max_flow(g, positive_flows);
  std::size_t cut_count = 0;
  check_articulation(g, cut_count);
  check_bipartite(seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDifferentialTest, ::testing::Range<std::uint64_t>(1, 31));

// Aggregate non-vacuousness: across a fixed seed band the suite must have
// exercised real work — reachable restricted paths, positive flows, and at
// least one articulation point — otherwise the per-seed comparisons could
// all be trivially comparing empty results.
TEST(CsrDifferentialCoverage, SuiteExercisesNonTrivialCases) {
  std::size_t reachable_pairs = 0;
  std::size_t positive_flows = 0;
  std::size_t cut_count = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SwitchTopologyParams params;
    params.racks = 4 + seed % 13;
    params.ops_per_rack = 1 + seed % 3;
    params.fan_out = 2 + seed % 3;
    params.fault_fraction = 0.1 * static_cast<double>(seed % 4);
    params.seed = seed;
    const Graph g = random_switch_graph(params);
    check_bfs_path_to(g, reachable_pairs);
    check_max_flow(g, positive_flows);
    check_articulation(g, cut_count);
  }
  EXPECT_GT(reachable_pairs, 30u) << "restricted BFS almost never reached its target";
  EXPECT_GT(positive_flows, 10u) << "max-flow almost never pushed flow";
  EXPECT_GT(cut_count, 5u) << "articulation analysis almost never found a cut";
}

}  // namespace
}  // namespace alvc::graph
