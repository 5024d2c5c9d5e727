#include "nfv/lifecycle.h"

#include <gtest/gtest.h>

namespace alvc::nfv {
namespace {

using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;

TEST(TransitionTableTest, LegalPaths) {
  EXPECT_TRUE(transition_allowed(VnfState::kRequested, VnfState::kInstantiating));
  EXPECT_TRUE(transition_allowed(VnfState::kInstantiating, VnfState::kActive));
  EXPECT_TRUE(transition_allowed(VnfState::kActive, VnfState::kScaling));
  EXPECT_TRUE(transition_allowed(VnfState::kScaling, VnfState::kActive));
  EXPECT_TRUE(transition_allowed(VnfState::kActive, VnfState::kUpdating));
  EXPECT_TRUE(transition_allowed(VnfState::kUpdating, VnfState::kActive));
  EXPECT_TRUE(transition_allowed(VnfState::kActive, VnfState::kTerminating));
  EXPECT_TRUE(transition_allowed(VnfState::kRequested, VnfState::kTerminating));
  EXPECT_TRUE(transition_allowed(VnfState::kTerminating, VnfState::kTerminated));
}

TEST(TransitionTableTest, IllegalPaths) {
  EXPECT_FALSE(transition_allowed(VnfState::kRequested, VnfState::kActive));
  EXPECT_FALSE(transition_allowed(VnfState::kTerminated, VnfState::kActive));
  EXPECT_FALSE(transition_allowed(VnfState::kScaling, VnfState::kUpdating));
  EXPECT_FALSE(transition_allowed(VnfState::kTerminating, VnfState::kActive));
  EXPECT_FALSE(transition_allowed(VnfState::kActive, VnfState::kRequested));
  EXPECT_FALSE(transition_allowed(VnfState::kTerminated, VnfState::kTerminated));
}

TEST(LifecycleManagerTest, CreateStartsRequested) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{ServerId{1}});
  EXPECT_EQ(mgr.instance(id).state, VnfState::kRequested);
  EXPECT_EQ(mgr.instance_count(), 1u);
  EXPECT_EQ(mgr.active_count(), 0u);
  EXPECT_FALSE(is_optical_host(mgr.instance(id).host));
}

TEST(LifecycleManagerTest, ActivateFullPath) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{OpsId{3}});
  ASSERT_TRUE(mgr.activate(id).is_ok());
  EXPECT_EQ(mgr.instance(id).state, VnfState::kActive);
  EXPECT_EQ(mgr.active_count(), 1u);
  EXPECT_TRUE(is_optical_host(mgr.instance(id).host));
  // Both hops were counted, once each, and nothing else.
  EXPECT_EQ(mgr.transitions_to(VnfState::kInstantiating), 1u);
  EXPECT_EQ(mgr.transitions_to(VnfState::kActive), 1u);
  EXPECT_EQ(mgr.transitions_to(VnfState::kScaling), 0u);
  EXPECT_EQ(mgr.transitions_to(VnfState::kTerminated), 0u);
}

TEST(LifecycleManagerTest, IllegalTransitionRejected) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  const auto status = mgr.transition(id, VnfState::kActive);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.instance(id).state, VnfState::kRequested);
  EXPECT_EQ(mgr.transitions_to(VnfState::kActive), 0u) << "refused transitions must not count";
}

TEST(LifecycleManagerTest, UnknownInstance) {
  VnfLifecycleManager mgr;
  const auto status = mgr.transition(VnfInstanceId{7}, VnfState::kInstantiating);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNotFound);
}

TEST(LifecycleManagerTest, ScaleRoundTrip) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(mgr.activate(id).is_ok());
  ASSERT_TRUE(mgr.scale(id, 2.5).is_ok());
  EXPECT_EQ(mgr.instance(id).state, VnfState::kActive);
  EXPECT_DOUBLE_EQ(mgr.instance(id).scale, 2.5);
  EXPECT_FALSE(mgr.scale(id, 0.0).is_ok());
  EXPECT_FALSE(mgr.scale(id, -1.0).is_ok());
}

TEST(LifecycleManagerTest, ScaleRequiresActive) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  EXPECT_FALSE(mgr.scale(id, 2.0).is_ok());
}

TEST(LifecycleManagerTest, UpdateRoundTrip) {
  VnfLifecycleManager mgr;
  const auto id = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(mgr.activate(id).is_ok());
  ASSERT_TRUE(mgr.update(id).is_ok());
  EXPECT_EQ(mgr.instance(id).state, VnfState::kActive);
}

TEST(LifecycleManagerTest, TerminateFromAnyLiveState) {
  VnfLifecycleManager mgr;
  const auto fresh = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(mgr.terminate(fresh).is_ok());
  EXPECT_EQ(mgr.instance(fresh).state, VnfState::kTerminated);

  const auto live = mgr.create(VnfId{0}, HostRef{ServerId{0}});
  ASSERT_TRUE(mgr.activate(live).is_ok());
  ASSERT_TRUE(mgr.terminate(live).is_ok());
  EXPECT_EQ(mgr.instance(live).state, VnfState::kTerminated);

  // Terminated is final.
  EXPECT_FALSE(mgr.terminate(live).is_ok());
  EXPECT_FALSE(mgr.activate(live).is_ok());
}

TEST(VnfStateTest, Names) {
  EXPECT_EQ(to_string(VnfState::kRequested), "requested");
  EXPECT_EQ(to_string(VnfState::kTerminated), "terminated");
  EXPECT_EQ(to_string(VnfState::kScaling), "scaling");
}

}  // namespace
}  // namespace alvc::nfv
