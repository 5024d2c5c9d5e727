// Failure-injection API at the topology layer: setters return Status (no
// exceptions), usability predicates and the cached switch graph track the
// flags, and link failures are first-class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

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
  // T0 - O0, T1 - O1, T1 - O2: each ToR's stamp moves only on writes to
  // its own footprint, and always past every stamp before it.
  DataCenterTopology topo;
  const TorId t0 = topo.add_tor();
  const TorId t1 = topo.add_tor();
  const OpsId o0 = topo.add_ops();
  const OpsId o1 = topo.add_ops();
  const OpsId o2 = topo.add_ops();
  const ServerId s0 = topo.add_server(t0, {.cpu_cores = 8});
  const ServerId s1 = topo.add_server(t1, {.cpu_cores = 8});
  const auto vm = topo.add_vm(s0, util::ServiceId{0});
  const auto stamps = [&] { return std::pair{topo.footprint_stamp(t0), topo.footprint_stamp(t1)}; };
  EXPECT_EQ(stamps(), (std::pair<std::uint64_t, std::uint64_t>{0, 0}));

  // Expects `write` to stamp exactly the ToRs flagged, each past the clock.
  const auto expect_stamps = [&](bool tor0, bool tor1, const auto& write) {
    const auto [before0, before1] = stamps();
    const std::uint64_t clock = topo.footprint_clock();
    write();
    const auto [after0, after1] = stamps();
    EXPECT_EQ(after0 > clock, tor0);
    EXPECT_EQ(after1 > clock, tor1);
    if (!tor0) EXPECT_EQ(after0, before0);
    if (!tor1) EXPECT_EQ(after1, before1);
    EXPECT_GE(topo.footprint_clock(), std::max(after0, after1));
  };
  expect_stamps(true, false, [&] { topo.connect_tor_ops(t0, o0); });
  expect_stamps(false, true, [&] { topo.connect_tor_ops(t1, o1); });
  expect_stamps(false, true, [&] { topo.connect_tor_ops(t1, o2); });
  expect_stamps(true, false, [&] { topo.connect_ops_ops(o0, o1); });
  expect_stamps(false, true, [&] { topo.connect_ops_ops(o1, o2); });
  expect_stamps(true, false, [&] { ASSERT_TRUE(topo.set_tor_failed(t0, true).is_ok()); });
  expect_stamps(false, true, [&] { ASSERT_TRUE(topo.set_link_failed(t1, o2, true).is_ok()); });
  expect_stamps(false, true, [&] { ASSERT_TRUE(topo.set_ops_failed(o1, true).is_ok()); });
  expect_stamps(true, false, [&] { topo.add_server_homing(s0, t1); });
  expect_stamps(true, false, [&] { topo.move_vm(vm, s1); });
  // Servers are in no footprint; a no-op move and a repeated homing write
  // nothing.
  expect_stamps(false, false, [&] { ASSERT_TRUE(topo.set_server_failed(s0, true).is_ok()); });
  expect_stamps(false, false, [&] { topo.move_vm(vm, s1); });
  expect_stamps(false, false, [&] { topo.add_server_homing(s0, t1); });

  // Copies and moves carry the stamps and the clock.
  const DataCenterTopology copy(topo);
  EXPECT_EQ(copy.footprint_clock(), topo.footprint_clock());
  EXPECT_EQ(copy.footprint_stamp(t1), topo.footprint_stamp(t1));
  DataCenterTopology assigned;
  assigned = topo;
  EXPECT_EQ(assigned.footprint_clock(), topo.footprint_clock());
  EXPECT_EQ(assigned.footprint_stamp(t0), topo.footprint_stamp(t0));
  DataCenterTopology moved(std::move(assigned));
  EXPECT_EQ(moved.footprint_clock(), topo.footprint_clock());
  EXPECT_EQ(moved.footprint_stamp(t1), topo.footprint_stamp(t1));
  DataCenterTopology move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.footprint_clock(), topo.footprint_clock());
  EXPECT_EQ(move_assigned.footprint_stamp(t0), topo.footprint_stamp(t0));
}

}  // namespace
}  // namespace alvc::topology
