#include "support/max_flow.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/error.h"

namespace alvc::graph {
namespace {

TEST(FlowNetworkTest, SingleEdge) {
  FlowNetwork net(2);
  net.add_edge(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 1), 5.0);
}

TEST(FlowNetworkTest, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 5.0);
  net.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 3.0);
}

TEST(FlowNetworkTest, ParallelPathsAdd) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 2.0);
  net.add_edge(1, 3, 2.0);
  net.add_edge(0, 2, 3.0);
  net.add_edge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 3), 5.0);
}

TEST(FlowNetworkTest, ClassicCLRSInstance) {
  // CLRS figure: max flow 23.
  FlowNetwork net(6);
  net.add_edge(0, 1, 16);
  net.add_edge(0, 2, 13);
  net.add_edge(1, 2, 10);
  net.add_edge(2, 1, 4);
  net.add_edge(1, 3, 12);
  net.add_edge(3, 2, 9);
  net.add_edge(2, 4, 14);
  net.add_edge(4, 3, 7);
  net.add_edge(3, 5, 20);
  net.add_edge(4, 5, 4);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 5), 23.0);
}

TEST(FlowNetworkTest, DisconnectedIsZero) {
  FlowNetwork net(4);
  net.add_edge(0, 1, 10.0);
  net.add_edge(2, 3, 10.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 3), 0.0);
}

TEST(FlowNetworkTest, RequiresAugmentingPathReversal) {
  // Flow must be re-routed through the residual graph.
  FlowNetwork net(4);
  net.add_edge(0, 1, 1);
  net.add_edge(0, 2, 1);
  net.add_edge(1, 2, 1);
  net.add_edge(1, 3, 1);
  net.add_edge(2, 3, 1);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 3), 2.0);
}

TEST(FlowNetworkTest, RecomputeIsIdempotent) {
  FlowNetwork net(3);
  net.add_edge(0, 1, 4.0);
  net.add_edge(1, 2, 4.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(net.max_flow(0, 2), 4.0);
}

TEST(FlowNetworkTest, FlowConservationOnArcs) {
  FlowNetwork net(4);
  const auto e1 = net.add_edge(0, 1, 2.0);
  const auto e2 = net.add_edge(1, 3, 2.0);
  net.add_edge(0, 2, 1.0);
  net.add_edge(2, 3, 1.0);
  ALVC_IGNORE_STATUS(net.max_flow(0, 3), "the aggregate is re-derived per-arc below");
  EXPECT_DOUBLE_EQ(net.flow_on(e1), 2.0);
  EXPECT_DOUBLE_EQ(net.flow_on(e2), 2.0);
  EXPECT_DOUBLE_EQ(net.capacity_of(e1), 2.0);
}

TEST(FlowNetworkTest, InvalidArgumentsThrow) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(net.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)net.max_flow(0, 0), std::invalid_argument);
  EXPECT_THROW((void)net.max_flow(0, 9), std::out_of_range);
}

class MaxFlowRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowRandomTest, FlowBoundedByDegreeCuts) {
  alvc::util::Rng rng(GetParam());
  const std::size_t n = 8 + rng.uniform_index(10);
  FlowNetwork net(n);
  double source_cap = 0;
  double sink_cap = 0;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v || !rng.bernoulli(0.3)) continue;
      const double cap = 1.0 + rng.uniform_index(9);
      net.add_edge(u, v, cap);
      if (u == 0) source_cap += cap;
      if (v == n - 1) sink_cap += cap;
    }
  }
  const double flow = net.max_flow(0, n - 1);
  EXPECT_GE(flow, 0.0);
  EXPECT_LE(flow, source_cap + 1e-9);
  EXPECT_LE(flow, sink_cap + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace alvc::graph
