// Orchestrator-level differential for the CSR graph core: the small fabric
// of tests/support/reference_plane.h runs its seeded fault schedule, and
// after EVERY event each live chain's route is recomputed twice — once
// through the production router (CSR adjacency + stamped-scratch BFS) and once through
// route_via() with a leg source backed by the preserved legacy BFS
// (std::queue frontier over per-vertex adjacency vectors, membership via
// the same slice set). The two routes must be bit-identical: same leg
// paths, same concatenated walk, same hop split, same conversion counts,
// and error parity when a leg is infeasible.
//
// This is the twin of tests/graph/csr_differential_test.cpp one layer up:
// instead of random graphs, the adjacency under test is the real switch
// graph as chaos reshapes it (failed links and switches dropped, repairs
// re-adding them), with the slice restriction applied the way routing
// actually applies it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/scratch.h"
#include "graph/shortest_path.h"
#include "orchestrator/routing.h"
#include "support/fixtures.h"
#include "support/legacy_graph.h"
#include "support/reference_plane.h"
#include "util/error.h"

namespace alvc::orchestrator {
namespace {

using alvc::faults::apply_fault;
using alvc::util::Error;
using alvc::util::ErrorCode;

constexpr std::uint64_t kSeeds = 20;

struct DifferentialTally {
  std::size_t routes_compared = 0;
  std::size_t routes_feasible = 0;
  std::size_t routes_infeasible = 0;
};

/// Recomputes every live chain's route through the CSR router and through
/// the legacy-BFS leg source, on the CURRENT (chaos-reshaped) topology and
/// cluster layers, and requires exact agreement.
void expect_csr_matches_legacy_routing(const core::DataCenter& dc, DifferentialTally& tally) {
  const auto& topo = dc.topology();
  ChainRouter router(topo);
  for (const ProvisionedChain* chain : dc.orchestrator().chains()) {
    if (chain->degraded) continue;  // parked chains may hold invalid host slots
    if (chain->graph.has_value()) continue;
    const auto* vc = dc.orchestrator().clusters().find(chain->cluster);
    ASSERT_NE(vc, nullptr);
    if (vc->layer.tors.empty()) continue;
    SCOPED_TRACE("chain " + std::to_string(chain->record.id.value()));
    const util::TorId ingress = vc->layer.tors.front();
    const util::TorId egress = vc->layer.tors.back();

    const auto csr_route = router.route(*vc, ingress, egress, chain->placement.hosts);

    // Legacy oracle: the same slice restriction (all stops as extras, the
    // way route() builds it), legs via the old std::queue BFS + extract.
    const auto stops = router.chain_stops(ingress, egress, chain->placement.hosts);
    alvc::graph::VertexSet allowed;
    routing_detail::slice_vertices(topo, *vc, stops, allowed);
    const auto filter = [&](std::size_t v) { return allowed.contains(v); };
    const auto legacy_route = router.route_via(
        *vc, ingress, egress, chain->placement.hosts,
        [&](std::size_t from, std::size_t to,
            std::size_t leg_index) -> util::Expected<std::vector<std::size_t>> {
          if (from == to) return std::vector<std::size_t>{from};
          const auto result = alvc::test::legacy::bfs(topo.switch_graph(), from, filter);
          auto path = alvc::graph::extract_path(result, to);
          if (!path) {
            return Error{ErrorCode::kInfeasible,
                         "no slice-internal path for leg " + std::to_string(leg_index)};
          }
          return std::move(*path);
        });

    ++tally.routes_compared;
    ASSERT_EQ(csr_route.has_value(), legacy_route.has_value())
        << "feasibility diverged between CSR and legacy routing";
    if (!csr_route.has_value()) {
      ++tally.routes_infeasible;
      continue;
    }
    ++tally.routes_feasible;
    EXPECT_EQ(csr_route->legs, legacy_route->legs);
    EXPECT_EQ(csr_route->vertices, legacy_route->vertices);
    EXPECT_EQ(csr_route->optical_hops, legacy_route->optical_hops);
    EXPECT_EQ(csr_route->electronic_hops, legacy_route->electronic_hops);
    EXPECT_EQ(csr_route->conversions.mid_chain, legacy_route->conversions.mid_chain);
    EXPECT_EQ(csr_route->conversions.endpoint, legacy_route->conversions.endpoint);
  }
}

TEST(CsrChaosDifferentialTest, CsrAndLegacyRoutingAgreeUnderChaosOver20Seeds) {
  DifferentialTally tally;
  std::uint64_t total_events = 0;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ALVC_TRACE_SEED(seed);
    auto dc = alvc::test::make_small_fabric(seed);
    ASSERT_FALSE(dc->orchestrator().chains().empty());
    expect_csr_matches_legacy_routing(*dc, tally);

    const auto schedule = alvc::test::make_small_schedule(*dc, seed);
    ASSERT_FALSE(schedule.empty());

    for (const auto& event : schedule) {
      ++total_events;
      ALVC_IGNORE_STATUS(apply_fault(dc->orchestrator(), event),
                         "chaos event outcome is not under test here");
      expect_csr_matches_legacy_routing(*dc, tally);
      if (HasFailure()) FAIL() << "first divergence at " << alvc::test::describe(event);
    }
  }

  // Not vacuous: the differential must have compared real routes on
  // chaos-reshaped topologies, with the overwhelming majority feasible.
  EXPECT_GT(total_events, 200u);
  EXPECT_GT(tally.routes_compared, 400u);
  EXPECT_GT(tally.routes_feasible, 300u)
      << "legacy/CSR comparison almost never saw a feasible route";
}

}  // namespace
}  // namespace alvc::orchestrator
