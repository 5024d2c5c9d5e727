// Scale-path coverage for the VNF lifecycle and its capacity coupling —
// the machinery the elastic subsystem drives. Exercises scale() bounds,
// unknown-id handling, illegal-state transitions, and the fit-after-scale
// contract in CloudNfvManager (reservation deltas commit on success and
// roll back untouched on capacity rejection).
#include <gtest/gtest.h>

#include "nfv/lifecycle.h"
#include "sdn/cloud_manager.h"
#include "support/fixtures.h"
#include "util/error.h"

namespace alvc::nfv {
namespace {

using alvc::sdn::CloudNfvManager;
using alvc::test::SliceFixture;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::VnfInstanceId;

TEST(LifecycleScaleTest, ScaleRequiresPositiveFactor) {
  VnfLifecycleManager lifecycle;
  const auto id = lifecycle.create(alvc::util::VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(lifecycle.activate(id).is_ok());
  EXPECT_EQ(lifecycle.scale(id, 0.0).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(lifecycle.scale(id, -1.5).error().code, ErrorCode::kInvalidArgument);
  // The failed attempts must not have moved the state machine.
  EXPECT_EQ(lifecycle.instance(id).state, VnfState::kActive);
  EXPECT_DOUBLE_EQ(lifecycle.instance(id).scale, 1.0);
}

TEST(LifecycleScaleTest, ScaleUnknownIdIsNotFound) {
  VnfLifecycleManager lifecycle;
  EXPECT_EQ(lifecycle.scale(VnfInstanceId{0}, 2.0).error().code, ErrorCode::kNotFound);
  const auto id = lifecycle.create(alvc::util::VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(lifecycle.activate(id).is_ok());
  EXPECT_EQ(lifecycle.scale(VnfInstanceId{7}, 2.0).error().code, ErrorCode::kNotFound);
}

TEST(LifecycleScaleTest, ScaleFromIllegalStatesIsRejected) {
  VnfLifecycleManager lifecycle;
  const auto requested = lifecycle.create(alvc::util::VnfId{0}, HostRef{ServerId{0}});
  EXPECT_EQ(lifecycle.scale(requested, 2.0).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(lifecycle.instance(requested).state, VnfState::kRequested);

  const auto dead = lifecycle.create(alvc::util::VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(lifecycle.activate(dead).is_ok());
  ASSERT_TRUE(lifecycle.terminate(dead).is_ok());
  EXPECT_EQ(lifecycle.scale(dead, 2.0).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(lifecycle.instance(dead).state, VnfState::kTerminated);
  EXPECT_EQ(lifecycle.transitions_to(VnfState::kScaling), 0u) << "a refused scale counts nothing";
}

TEST(LifecycleScaleTest, ScaleRoundTripsThroughScalingState) {
  VnfLifecycleManager lifecycle;
  const auto id = lifecycle.create(alvc::util::VnfId{0}, HostRef{OpsId{0}});
  ASSERT_TRUE(lifecycle.activate(id).is_ok());
  ASSERT_TRUE(lifecycle.scale(id, 3.0).is_ok());
  EXPECT_EQ(lifecycle.instance(id).state, VnfState::kActive);
  EXPECT_DOUBLE_EQ(lifecycle.instance(id).scale, 3.0);
  // requested->instantiating->active, then active->scaling->active: one
  // entry into scaling and two into active.
  EXPECT_EQ(lifecycle.transitions_to(VnfState::kInstantiating), 1u);
  EXPECT_EQ(lifecycle.transitions_to(VnfState::kScaling), 1u);
  EXPECT_EQ(lifecycle.transitions_to(VnfState::kActive), 2u);
}

/// CloudNfvManager on the shared slice fixture: OPS 0 is optoelectronic
/// with 4 cores / 8 GB / 32 GB; the default firewall needs 1 / 2 / 4.
struct CloudScaleFixture : public ::testing::Test {
  SliceFixture slice;
  CloudNfvManager cloud{slice.catalog, slice.topo};
  alvc::util::VnfId firewall = *slice.catalog.find_by_type(VnfType::kFirewall);
  HostRef oe{OpsId{0}};
};

TEST_F(CloudScaleFixture, ScaleUpReservesDeltaAndScaleDownReleases) {
  const auto id = cloud.deploy(firewall, oe);
  ASSERT_TRUE(id.has_value());
  const auto free_at_1 = cloud.pool().free_capacity(oe);
  EXPECT_DOUBLE_EQ(free_at_1.cpu_cores, 3.0);

  // Up to 4x: exactly fills the optoelectronic budget (4 cores / 8 GB).
  ASSERT_TRUE(cloud.scale(*id, 4.0).is_ok());
  EXPECT_DOUBLE_EQ(cloud.pool().free_capacity(oe).cpu_cores, 0.0);
  EXPECT_DOUBLE_EQ(cloud.reserved_demand(*id).memory_gb, 8.0);

  // Back down to 2x: half the footprint returns.
  ASSERT_TRUE(cloud.scale(*id, 2.0).is_ok());
  EXPECT_DOUBLE_EQ(cloud.pool().free_capacity(oe).cpu_cores, 2.0);
  EXPECT_EQ(cloud.stats().scaled, 2u);
}

TEST_F(CloudScaleFixture, OverCapacityScaleFailsWithoutStateChange) {
  const auto id = cloud.deploy(firewall, oe);
  ASSERT_TRUE(id.has_value());
  const auto free_before = cloud.pool().free_capacity(oe);

  // 5x firewall = 5 cores > the router's 4: must be refused atomically.
  const auto status = cloud.scale(*id, 5.0);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kCapacityExceeded);
  EXPECT_EQ(cloud.lifecycle().instance(*id).state, VnfState::kActive);
  EXPECT_DOUBLE_EQ(cloud.lifecycle().instance(*id).scale, 1.0);
  EXPECT_DOUBLE_EQ(cloud.pool().free_capacity(oe).cpu_cores, free_before.cpu_cores);
  EXPECT_EQ(cloud.stats().rejected, 1u);
  EXPECT_TRUE(cloud.pool().is_consistent());
}

TEST_F(CloudScaleFixture, TerminateAfterScaleReleasesScaledFootprint) {
  const auto id = cloud.deploy(firewall, oe);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(cloud.scale(*id, 3.0).is_ok());
  ASSERT_TRUE(cloud.terminate(*id).is_ok());
  // All 3x of the reservation must come back, not the 1x nominal.
  EXPECT_DOUBLE_EQ(cloud.pool().free_capacity(oe).cpu_cores, 4.0);
  EXPECT_DOUBLE_EQ(cloud.reserved_demand(*id).cpu_cores, 0.0);
  EXPECT_TRUE(cloud.pool().is_consistent());
}

TEST_F(CloudScaleFixture, ScaleOnNonActiveInstanceIsRejected) {
  const auto id = cloud.deploy(firewall, oe);
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(cloud.terminate(*id).is_ok());
  EXPECT_EQ(cloud.scale(*id, 2.0).error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(cloud.scale(VnfInstanceId{42}, 2.0).error().code, ErrorCode::kNotFound);
}

}  // namespace
}  // namespace alvc::nfv
