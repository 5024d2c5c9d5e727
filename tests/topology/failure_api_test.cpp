// Failure-injection API at the topology layer: setters return Status (no
// exceptions), usability predicates and the cached switch graph track the
// flags, and link failures are first-class.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace alvc::topology
