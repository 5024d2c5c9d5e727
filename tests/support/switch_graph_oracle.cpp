#include "support/switch_graph_oracle.h"

namespace alvc::test {

using alvc::topology::OpsId;

alvc::graph::Graph rebuild_switch_graph(const alvc::topology::DataCenterTopology& topo) {
  alvc::graph::Graph g(topo.tor_count() + topo.ops_count());
  for (const auto& t : topo.tors()) {
    if (t.failed) continue;
    for (OpsId ops : t.uplinks) {
      if (topo.ops(ops).failed || topo.link_failed(t.id, ops)) continue;
      g.add_edge(topo.tor_vertex(t.id), topo.ops_vertex(ops));
    }
  }
  for (const auto& o : topo.opss()) {
    if (o.failed) continue;
    for (OpsId peer : o.peer_links) {
      if (o.id < peer && !topo.ops(peer).failed) {  // each undirected core link once
        g.add_edge(topo.ops_vertex(o.id), topo.ops_vertex(peer));
      }
    }
  }
  return g;
}

}  // namespace alvc::test
