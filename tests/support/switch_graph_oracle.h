// From-scratch switch-graph build, preserved as the oracle for the
// topology's in-place liveness flips.
//
// DataCenterTopology used to throw its switch graph away on every failure
// flip and rebuild it from the element and link flags with the loop below.
// It now builds one graph over every physical link and patches link
// liveness in place. The contract is that the live part of that graph is
// indistinguishable from this rebuild: same vertex count, same live edge
// count, same neighbour sequence at every vertex, same live edges in the
// same order. Do not "improve" this build: its value is that it is exactly
// what shipped before.
#pragma once

#include "graph/graph.h"
#include "topology/topology.h"

namespace alvc::test {

/// The switch graph over only the usable links of `topo`, built from
/// scratch: ToR uplinks in ToR order, then each core link once, skipping
/// failed elements and cut cables.
[[nodiscard]] alvc::graph::Graph rebuild_switch_graph(const alvc::topology::DataCenterTopology& topo);

}  // namespace alvc::test
