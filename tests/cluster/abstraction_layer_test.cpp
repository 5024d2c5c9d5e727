#include "cluster/abstraction_layer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace alvc::cluster {
namespace {

using alvc::util::ErrorCode;

TEST(AbstractionLayerTest, Contains) {
  AbstractionLayer layer{.tors = {TorId{1}, TorId{3}}, .opss = {OpsId{0}, OpsId{2}}};
  EXPECT_TRUE(layer.contains_tor(TorId{1}));
  EXPECT_FALSE(layer.contains_tor(TorId{2}));
  EXPECT_TRUE(layer.contains_ops(OpsId{2}));
  EXPECT_FALSE(layer.contains_ops(OpsId{1}));
  EXPECT_EQ(layer.size(), 2u);
}

TEST(OpsOwnershipTest, InitiallyAllFree) {
  OpsOwnership own(4);
  EXPECT_EQ(own.ops_count(), 4u);
  EXPECT_EQ(own.free_count(), 4u);
  EXPECT_TRUE(own.is_free(OpsId{0}));
  EXPECT_FALSE(own.owner(OpsId{0}).valid());
  EXPECT_EQ(own.free_ops().size(), 4u);
}

TEST(OpsOwnershipTest, AcquireIsAtomic) {
  OpsOwnership own(4);
  const std::vector<OpsId> first{OpsId{0}, OpsId{1}};
  ASSERT_TRUE(own.acquire(first, ClusterId{7}).is_ok());
  EXPECT_EQ(own.owner(OpsId{0}), ClusterId{7});
  EXPECT_EQ(own.free_count(), 2u);

  // Overlapping acquisition by another cluster must fail without any change.
  const std::vector<OpsId> overlap{OpsId{2}, OpsId{1}};
  const auto status = own.acquire(overlap, ClusterId{8});
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kConflict);
  EXPECT_TRUE(own.is_free(OpsId{2})) << "atomicity: OPS 2 must not be taken";
}

TEST(OpsOwnershipTest, ReacquireBySameClusterIsIdempotent) {
  OpsOwnership own(2);
  const std::vector<OpsId> set{OpsId{0}};
  ASSERT_TRUE(own.acquire(set, ClusterId{1}).is_ok());
  EXPECT_TRUE(own.acquire(set, ClusterId{1}).is_ok());
  EXPECT_EQ(own.owner(OpsId{0}), ClusterId{1});
}

TEST(OpsOwnershipTest, ReleaseOnlyOwn) {
  OpsOwnership own(3);
  const std::vector<OpsId> a{OpsId{0}};
  const std::vector<OpsId> b{OpsId{1}};
  ASSERT_TRUE(own.acquire(a, ClusterId{1}).is_ok());
  ASSERT_TRUE(own.acquire(b, ClusterId{2}).is_ok());
  // Cluster 2 tries to release OPS 0 (not its own): no-op.
  own.release(a, ClusterId{2});
  EXPECT_EQ(own.owner(OpsId{0}), ClusterId{1});
  own.release(a, ClusterId{1});
  EXPECT_TRUE(own.is_free(OpsId{0}));
}

TEST(OpsOwnershipTest, ReleaseAll) {
  OpsOwnership own(4);
  const std::vector<OpsId> mine{OpsId{0}, OpsId{2}};
  const std::vector<OpsId> other{OpsId{1}};
  ASSERT_TRUE(own.acquire(mine, ClusterId{5}).is_ok());
  ASSERT_TRUE(own.acquire(other, ClusterId{6}).is_ok());
  // Releasing a cluster's whole AL list frees all of it: the O(|AL|) form
  // the cluster manager uses, since an AL lists exactly what it owns.
  own.release(mine, ClusterId{5});
  EXPECT_TRUE(own.is_free(OpsId{0}));
  EXPECT_TRUE(own.is_free(OpsId{2}));
  EXPECT_EQ(own.owner(OpsId{1}), ClusterId{6});
}

TEST(OpsOwnershipTest, FreeOpsListsExactlyUnowned) {
  OpsOwnership own(3);
  const std::vector<OpsId> taken{OpsId{1}};
  ASSERT_TRUE(own.acquire(taken, ClusterId{0}).is_ok());
  const auto free = own.free_ops();
  ASSERT_EQ(free.size(), 2u);
  EXPECT_EQ(free[0], OpsId{0});
  EXPECT_EQ(free[1], OpsId{2});
}

TEST(OpsOwnershipTest, StampsMoveOnlyWithTheOwnerCell) {
  OpsOwnership own(4);
  const ClusterId a{1};
  const ClusterId b{2};
  const auto pending = [&] {
    const auto changes = own.pending_owner_changes();
    return std::vector<OpsId>(changes.begin(), changes.end());
  };
  EXPECT_EQ(pending(), std::vector<OpsId>{});
  ASSERT_TRUE(own.acquire(std::vector<OpsId>{OpsId{0}, OpsId{1}}, a).is_ok());
  EXPECT_EQ(pending(), (std::vector<OpsId>{OpsId{0}, OpsId{1}}));
  own.clear_pending_owner_changes();
  // No cell changes: a re-acquire by the owner, a failed acquire, and a
  // release by a non-owner.
  ASSERT_TRUE(own.acquire(std::vector<OpsId>{OpsId{0}}, a).is_ok());
  EXPECT_FALSE(own.acquire(std::vector<OpsId>{OpsId{1}, OpsId{2}}, b).is_ok());
  own.release(std::vector<OpsId>{OpsId{0}}, b);
  EXPECT_EQ(pending(), std::vector<OpsId>{});
  // A release lists the freed cell; a second change of it lists it once.
  own.release(std::vector<OpsId>{OpsId{1}}, a);
  ASSERT_TRUE(own.acquire(std::vector<OpsId>{OpsId{1}}, b).is_ok());
  EXPECT_EQ(pending(), std::vector<OpsId>{OpsId{1}});
  // Copies carry the list.
  const OpsOwnership copy = own;
  EXPECT_EQ(std::vector<OpsId>(copy.pending_owner_changes().begin(),
                               copy.pending_owner_changes().end()),
            std::vector<OpsId>{OpsId{1}});
}

}  // namespace
}  // namespace alvc::cluster
