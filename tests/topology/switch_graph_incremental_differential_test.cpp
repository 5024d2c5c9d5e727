// The topology's switch graph is built once over every physical link and
// patched in place on OPS, ToR and link failure flips. This differential
// checks the patched graph against a from-scratch rebuild of the live links
// (tests/support/switch_graph_oracle) after every flip: same vertex and
// live edge counts, the same neighbour sequence at every vertex (so every
// BFS tie-break, routed path and AL stays the same), and the same live
// edges in the same order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "support/switch_graph_oracle.h"
#include "telemetry/telemetry.h"
#include "topology/builder.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace alvc::topology {
namespace {

using alvc::graph::Graph;
using alvc::util::OpsId;
using alvc::util::Rng;
using alvc::util::TorId;

constexpr std::uint64_t kSeeds = 20;
constexpr std::size_t kFlipsPerSeed = 150;

struct Family {
  const char* name;
  TopologyParams params;
};

std::vector<Family> families(std::uint64_t seed) {
  TopologyParams ring;
  ring.rack_count = 8;
  ring.ops_count = 8;
  ring.tor_ops_degree = 3;
  ring.core = CoreKind::kRing;
  ring.seed = seed;

  TopologyParams torus;
  torus.rack_count = 12;
  torus.ops_count = 16;
  torus.tor_ops_degree = 4;
  torus.core = CoreKind::kTorus2D;
  torus.seed = seed;

  // Dual-homed servers over a random-regular core with wide uplink fans:
  // many ToRs share each OPS, and the pairing model can leave parallel
  // core links.
  TopologyParams multi_homed;
  multi_homed.rack_count = 10;
  multi_homed.ops_count = 12;
  multi_homed.tor_ops_degree = 5;
  multi_homed.core = CoreKind::kRandomRegular;
  multi_homed.core_degree = 4;
  multi_homed.dual_homing_probability = 0.5;
  multi_homed.seed = seed;

  return {{"ring", ring}, {"torus", torus}, {"multi_homed", multi_homed}};
}

std::vector<std::size_t> neighbour_vertices(std::span<const alvc::graph::Neighbor> nbs) {
  std::vector<std::size_t> out;
  out.reserve(nbs.size());
  for (const auto& nb : nbs) out.push_back(nb.vertex);
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> live_edges(const Graph& g) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto edges = g.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (g.edge_live(e)) out.emplace_back(edges[e].from, edges[e].to);
  }
  return out;
}

void expect_matches_oracle(const DataCenterTopology& topo, const std::string& where) {
  const Graph& g = topo.switch_graph();
  const Graph oracle = alvc::test::rebuild_switch_graph(topo);
  ASSERT_EQ(g.vertex_count(), oracle.vertex_count()) << where;
  ASSERT_EQ(g.edge_count(), oracle.edge_count()) << where;
  const alvc::graph::CsrView csr = g.csr();
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const auto expected = neighbour_vertices(oracle.neighbors(v));
    ASSERT_EQ(neighbour_vertices(g.neighbors(v)), expected) << where << ", vertex " << v;
    ASSERT_EQ(neighbour_vertices(csr.neighbors(v)), expected) << where << ", csr vertex " << v;
  }
  ASSERT_EQ(live_edges(g), live_edges(oracle)) << where;
}

TorId random_tor(const DataCenterTopology& topo, Rng& rng) {
  return TorId{static_cast<TorId::value_type>(rng.uniform_index(topo.tor_count()))};
}

OpsId random_ops(const DataCenterTopology& topo, Rng& rng) {
  return OpsId{static_cast<OpsId::value_type>(rng.uniform_index(topo.ops_count()))};
}

/// One random flip: an OPS, a ToR or one of a ToR's uplinks, failed or
/// recovered regardless of its current state (so duplicate failures and
/// recoveries of healthy elements occur). Returns a description.
std::string random_flip(DataCenterTopology& topo, Rng& rng) {
  const bool failed = rng.bernoulli(0.5);
  const std::string verb = failed ? " fail" : " recover";
  switch (rng.uniform_index(3)) {
    case 0: {
      const OpsId o = random_ops(topo, rng);
      EXPECT_TRUE(topo.set_ops_failed(o, failed).is_ok());
      return "ops " + std::to_string(o.value()) + verb;
    }
    case 1: {
      const TorId t = random_tor(topo, rng);
      EXPECT_TRUE(topo.set_tor_failed(t, failed).is_ok());
      return "tor " + std::to_string(t.value()) + verb;
    }
    default: {
      const TorId t = random_tor(topo, rng);
      const auto& uplinks = topo.tor(t).uplinks;
      const OpsId o = uplinks[rng.uniform_index(uplinks.size())];
      EXPECT_TRUE(topo.set_link_failed(t, o, failed).is_ok());
      return "link " + std::to_string(t.value()) + "-" + std::to_string(o.value()) + verb;
    }
  }
}

/// Scripted overlaps the random walk may miss: an OPS failing while some
/// of its links are cut (then the links healing under the dead OPS), and a
/// link cut and healed under a dead ToR.
void scripted_overlaps(DataCenterTopology& topo, Rng& rng, const std::string& where) {
  const TorId t = random_tor(topo, rng);
  const OpsId o = topo.tor(t).uplinks.front();
  const auto step = [&](alvc::util::Status status, const std::string& what) {
    ASSERT_TRUE(status.is_ok()) << what;
    expect_matches_oracle(topo, where + ", scripted " + what);
  };
  step(topo.set_link_failed(t, o, true), "cut link under live OPS");
  step(topo.set_ops_failed(o, true), "fail OPS with a cut link");
  step(topo.set_ops_failed(o, true), "fail OPS again");
  step(topo.set_link_failed(t, o, false), "heal link under dead OPS");
  step(topo.set_ops_failed(o, false), "recover OPS");
  step(topo.set_tor_failed(t, true), "fail ToR");
  step(topo.set_link_failed(t, o, true), "cut link under dead ToR");
  step(topo.set_link_failed(t, o, false), "heal link under dead ToR");
  step(topo.set_link_failed(t, o, false), "heal healthy link under dead ToR");
  step(topo.set_tor_failed(t, false), "recover ToR");
  step(topo.set_tor_failed(t, false), "recover healthy ToR");
}

TEST(SwitchGraphIncrementalDifferentialTest, PatchedGraphEqualsRebuildAfterEveryFlip) {
  std::size_t flips = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (const Family& family : families(seed)) {
      const std::string tag = std::string(family.name) + " seed " + std::to_string(seed);
      DataCenterTopology topo = build_topology(family.params);
      Rng rng(seed * 7919 + 17);
      expect_matches_oracle(topo, tag + ", fresh");
      scripted_overlaps(topo, rng, tag);
      for (std::size_t i = 0; i < kFlipsPerSeed; ++i) {
        const std::string what = random_flip(topo, rng);
        ++flips;
        expect_matches_oracle(topo, tag + ", flip " + std::to_string(i) + " (" + what + ")");
        if (HasFatalFailure()) return;
      }
      // A copy starts cold and rebuilds with the current flags; flips on
      // it patch its own graph and leave the original's alone.
      DataCenterTopology copy = topo;
      expect_matches_oracle(copy, tag + ", copy");
      random_flip(copy, rng);
      expect_matches_oracle(copy, tag + ", flip on copy");
      expect_matches_oracle(topo, tag + ", original after flip on copy");
    }
  }
  EXPECT_EQ(flips, kSeeds * 3 * kFlipsPerSeed);
}

TEST(SwitchGraphIncrementalDifferentialTest, FlipsAroundStructuralChangesMatchRebuild) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    DataCenterTopology topo = build_topology(families(seed).front().params);
    Rng rng(seed);
    for (std::size_t round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < 10; ++i) {
        random_flip(topo, rng);
        expect_matches_oracle(topo, tag + ", round " + std::to_string(round));
      }
      // A structural change drops the graph; the flips that follow land on
      // a cold cache and the next read rebuilds with every flag applied.
      const OpsId peer = random_ops(topo, rng);
      const OpsId added = topo.add_ops();
      topo.connect_tor_ops(random_tor(topo, rng), added);
      topo.connect_ops_ops(added, peer);
      random_flip(topo, rng);
      ASSERT_TRUE(topo.set_ops_failed(added, rng.bernoulli(0.5)).is_ok());
      expect_matches_oracle(topo, tag + ", after growth " + std::to_string(round));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SwitchGraphIncrementalDifferentialTest, ParallelUplinksFlipTogether) {
  // Two cables between the same ToR and OPS, and a doubled core link: a
  // link flip cuts and heals both parallel edges.
  DataCenterTopology topo;
  const TorId t0 = topo.add_tor();
  const TorId t1 = topo.add_tor();
  const OpsId o0 = topo.add_ops();
  const OpsId o1 = topo.add_ops();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t0, o1);
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  topo.connect_ops_ops(o0, o1);
  topo.connect_ops_ops(o1, o0);
  expect_matches_oracle(topo, "fresh");
  EXPECT_EQ(topo.switch_graph().edge_count(), 6u);
  ASSERT_TRUE(topo.set_link_failed(t0, o0, true).is_ok());
  expect_matches_oracle(topo, "parallel uplinks cut");
  EXPECT_EQ(topo.switch_graph().edge_count(), 4u);
  ASSERT_TRUE(topo.set_ops_failed(o1, true).is_ok());
  expect_matches_oracle(topo, "OPS 1 failed");
  EXPECT_EQ(topo.switch_graph().edge_count(), 0u);
  EXPECT_EQ(topo.switch_graph().edges().size(), 6u);
  ASSERT_TRUE(topo.set_link_failed(t0, o0, false).is_ok());
  ASSERT_TRUE(topo.set_ops_failed(o1, false).is_ok());
  expect_matches_oracle(topo, "all healed");
  EXPECT_EQ(topo.switch_graph().edge_count(), 6u);
}

TEST(SwitchGraphIncrementalDifferentialTest, FailureFlipsDoNoFullBuilds) {
#if ALVC_TELEMETRY_ENABLED
  auto& builds = alvc::telemetry::MetricRegistry::global().counter("topology.switch_graph.full_builds");
  DataCenterTopology topo = build_topology(families(3)[1].params);
  ASSERT_GT(topo.switch_graph().vertex_count(), 0u);  // warm-up: the one initial build
  const std::uint64_t warm = builds.value();
  Rng rng(99);
  for (std::size_t i = 0; i < 1000; ++i) {
    random_flip(topo, rng);
    ASSERT_GT(topo.switch_graph().vertex_count(), 0u);
  }
  EXPECT_EQ(builds.value(), warm) << "a failure or recovery flip rebuilt the switch graph";

  const OpsId added = topo.add_ops();
  topo.connect_tor_ops(TorId{0}, added);
  ASSERT_GT(topo.switch_graph().vertex_count(), 0u);
  EXPECT_EQ(builds.value(), warm + 1) << "one structural change, one full build";
#else
  GTEST_SKIP() << "telemetry compiled out";
#endif
}

}  // namespace
}  // namespace alvc::topology
