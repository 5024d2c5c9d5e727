// Failure-injection API at the topology layer: setters return Status (no
// exceptions), usability predicates and the cached switch graph track the
// flags, and link failures are first-class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/fixtures.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::topology {
namespace {

using alvc::test::SliceFixture;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;

TEST(TopologyFailureApiTest, SettersRejectBadIdsWithStatusNotThrow) {
  SliceFixture f;
  const auto ops = f.topo.set_ops_failed(OpsId{999}, true);
  ASSERT_FALSE(ops.is_ok());
  EXPECT_EQ(ops.error().code, ErrorCode::kInvalidArgument);

  const auto tor = f.topo.set_tor_failed(TorId{999}, true);
  ASSERT_FALSE(tor.is_ok());
  EXPECT_EQ(tor.error().code, ErrorCode::kInvalidArgument);

  const auto server = f.topo.set_server_failed(ServerId{999}, true);
  ASSERT_FALSE(server.is_ok());
  EXPECT_EQ(server.error().code, ErrorCode::kInvalidArgument);

  const auto bad_link = f.topo.set_link_failed(TorId{999}, OpsId{0}, true);
  ASSERT_FALSE(bad_link.is_ok());
  EXPECT_EQ(bad_link.error().code, ErrorCode::kInvalidArgument);

  // Valid endpoints but no such uplink: kNotFound, and nothing changes.
  const auto no_link = f.topo.set_link_failed(TorId{0}, OpsId{3}, true);
  ASSERT_FALSE(no_link.is_ok());
  EXPECT_EQ(no_link.error().code, ErrorCode::kNotFound);
}

TEST(TopologyFailureApiTest, FlagsFlipUsabilityAndAreIdempotent) {
  SliceFixture f;
  EXPECT_TRUE(f.topo.ops_usable(OpsId{0}));
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{0}, true).is_ok());
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{0}, true).is_ok());  // no-op, still ok
  EXPECT_FALSE(f.topo.ops_usable(OpsId{0}));
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{0}, false).is_ok());
  EXPECT_TRUE(f.topo.ops_usable(OpsId{0}));

  ASSERT_TRUE(f.topo.set_server_failed(ServerId{0}, true).is_ok());
  EXPECT_FALSE(f.topo.server_usable(ServerId{0}));
  ASSERT_TRUE(f.topo.set_server_failed(ServerId{0}, false).is_ok());
  EXPECT_TRUE(f.topo.server_usable(ServerId{0}));
}

TEST(TopologyFailureApiTest, UsableUplinksFilterFailedElementsAndLinks) {
  SliceFixture f;
  using Uplinks = std::vector<OpsId>;
  const auto usable_uplinks = [&](TorId tor) {
    Uplinks out;
    f.topo.any_usable_uplink(tor, [&](OpsId o) {
      out.push_back(o);
      return false;
    });
    EXPECT_EQ(f.topo.has_usable_uplink(tor), !out.empty());
    return out;
  };
  EXPECT_EQ(usable_uplinks(TorId{0}), (Uplinks{OpsId{0}, OpsId{1}}));
  // The visit stops at the first uplink the predicate accepts.
  EXPECT_TRUE(f.topo.any_usable_uplink(TorId{0}, [](OpsId o) { return o == OpsId{0}; }));

  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{1}, true).is_ok());
  EXPECT_EQ(usable_uplinks(TorId{0}), (Uplinks{OpsId{0}}));

  ASSERT_TRUE(f.topo.set_link_failed(TorId{0}, OpsId{0}, true).is_ok());
  EXPECT_TRUE(f.topo.link_failed(TorId{0}, OpsId{0}));
  EXPECT_FALSE(f.topo.link_usable(TorId{0}, OpsId{0}));
  EXPECT_TRUE(usable_uplinks(TorId{0}).empty());

  // A failed ToR has no usable uplinks regardless of link state.
  ASSERT_TRUE(f.topo.set_link_failed(TorId{0}, OpsId{0}, false).is_ok());
  ASSERT_TRUE(f.topo.set_ops_failed(OpsId{1}, false).is_ok());
  ASSERT_TRUE(f.topo.set_tor_failed(TorId{0}, true).is_ok());
  EXPECT_TRUE(usable_uplinks(TorId{0}).empty());
}

TEST(TopologyFailureApiTest, SwitchGraphExcludesFailedElements) {
  SliceFixture f;
  const auto t0 = f.topo.tor_vertex(TorId{0});
  const auto o0 = f.topo.ops_vertex(OpsId{0});
  ASSERT_TRUE(f.topo.switch_graph().has_edge(t0, o0));

  ASSERT_TRUE(f.topo.set_link_failed(TorId{0}, OpsId{0}, true).is_ok());
  EXPECT_FALSE(f.topo.switch_graph().has_edge(t0, o0));
  ASSERT_TRUE(f.topo.set_link_failed(TorId{0}, OpsId{0}, false).is_ok());
  EXPECT_TRUE(f.topo.switch_graph().has_edge(t0, o0));

  ASSERT_TRUE(f.topo.set_tor_failed(TorId{0}, true).is_ok());
  EXPECT_EQ(f.topo.switch_graph().degree(t0), 0u);
  ASSERT_TRUE(f.topo.set_tor_failed(TorId{0}, false).is_ok());
  EXPECT_GT(f.topo.switch_graph().degree(t0), 0u);

  // Server failures do not touch the switch graph.
  ASSERT_TRUE(f.topo.set_server_failed(ServerId{0}, true).is_ok());
  EXPECT_TRUE(f.topo.switch_graph().has_edge(t0, o0));
}

TEST(TopologyFootprintStampTest, EveryWriterStampsTheToRsWhoseFootprintItChanges) {
  // T0 - O0, T1 - O1, T1 - O2: each write lists exactly the ToRs whose
  // footprint it touches in the pending list, each ToR once.
  DataCenterTopology topo;
  const TorId t0 = topo.add_tor();
  const TorId t1 = topo.add_tor();
  const OpsId o0 = topo.add_ops();
  const OpsId o1 = topo.add_ops();
  const OpsId o2 = topo.add_ops();
  const ServerId s0 = topo.add_server(t0, {.cpu_cores = 8});
  const ServerId s1 = topo.add_server(t1, {.cpu_cores = 8});
  const auto vm = topo.add_vm(s0, util::ServiceId{0});
  const auto pending = [](const DataCenterTopology& t) {
    const auto tors = t.pending_footprint_tors();
    return std::vector<TorId>(tors.begin(), tors.end());
  };
  EXPECT_EQ(pending(topo), std::vector<TorId>{});

  // Expects `write`, on an emptied list, to list exactly `listed`.
  const auto expect_listed = [&](const std::vector<TorId>& listed, const auto& write) {
    topo.clear_pending_footprint_tors();
    write();
    EXPECT_EQ(pending(topo), listed);
  };
  expect_listed({t0}, [&] { topo.connect_tor_ops(t0, o0); });
  expect_listed({t1}, [&] { topo.connect_tor_ops(t1, o1); });
  expect_listed({t1}, [&] { topo.connect_tor_ops(t1, o2); });
  expect_listed({t0}, [&] { topo.connect_ops_ops(o0, o1); });
  expect_listed({t1}, [&] { topo.connect_ops_ops(o1, o2); });
  expect_listed({t0}, [&] { ASSERT_TRUE(topo.set_tor_failed(t0, true).is_ok()); });
  expect_listed({t1}, [&] { ASSERT_TRUE(topo.set_link_failed(t1, o2, true).is_ok()); });
  expect_listed({t1}, [&] { ASSERT_TRUE(topo.set_ops_failed(o1, true).is_ok()); });
  expect_listed({t0}, [&] { topo.add_server_homing(s0, t1); });
  expect_listed({t0}, [&] { topo.move_vm(vm, s1); });
  // Servers are in no footprint; a no-op move and a repeated homing write
  // nothing.
  expect_listed({}, [&] { ASSERT_TRUE(topo.set_server_failed(s0, true).is_ok()); });
  expect_listed({}, [&] { topo.move_vm(vm, s1); });
  expect_listed({}, [&] { topo.add_server_homing(s0, t1); });
  // Repeated writes list a ToR once, in first-write order.
  expect_listed({t1, t0}, [&] {
    ASSERT_TRUE(topo.set_tor_failed(t1, true).is_ok());
    ASSERT_TRUE(topo.set_tor_failed(t0, false).is_ok());
    ASSERT_TRUE(topo.set_tor_failed(t1, false).is_ok());
  });

  // Copies and moves carry the pending list.
  const DataCenterTopology copy(topo);
  EXPECT_EQ(pending(copy), pending(topo));
  DataCenterTopology assigned;
  assigned = topo;
  EXPECT_EQ(pending(assigned), pending(topo));
  DataCenterTopology moved(std::move(assigned));
  EXPECT_EQ(pending(moved), pending(topo));
  DataCenterTopology move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(pending(move_assigned), pending(topo));
  // A copy's list is its own.
  move_assigned.clear_pending_footprint_tors();
  EXPECT_EQ(pending(topo), (std::vector<TorId>{t1, t0}));
}

}  // namespace
}  // namespace alvc::topology
