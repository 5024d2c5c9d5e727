#include "orchestrator/admission.h"

#include <gtest/gtest.h>

#include "support/fixtures.h"

namespace alvc::orchestrator {
namespace {

using alvc::nfv::HostingPool;
using alvc::nfv::NfcSpec;
using alvc::nfv::VnfType;
using alvc::test::ClusterFixture;
using alvc::util::ErrorCode;
using alvc::util::ServiceId;

constexpr AllocationPolicy kStrict = AllocationPolicy::kStrictLadder;
constexpr AllocationPolicy kDowngrade = AllocationPolicy::kPriorityDowngrade;

struct AdmissionFixture : ClusterFixture {
  HostingPool pool{topo};
  AdmissionController admission{topo, catalog};

  NfcSpec chain(std::initializer_list<VnfType> types, double bandwidth = 1.0) {
    NfcSpec spec;
    spec.name = "chain";
    spec.bandwidth_gbps = bandwidth;
    spec.service = ServiceId{0};
    for (auto t : types) spec.functions.push_back(*catalog.find_by_type(t));
    return spec;
  }
};

TEST(AdmissionTest, AdmitsReasonableChain) {
  AdmissionFixture f;
  const auto spec = f.chain({VnfType::kFirewall, VnfType::kNat});
  EXPECT_TRUE(f.admission.admit(spec, f.cluster(), f.pool, kStrict).status.is_ok());
  EXPECT_EQ(f.admission.stats().admitted, 1u);
}

TEST(AdmissionTest, RejectsEmptyChain) {
  AdmissionFixture f;
  const auto spec = f.chain({});
  const auto status = f.admission.admit(spec, f.cluster(), f.pool, kStrict).status;
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code, ErrorCode::kRejected);
  EXPECT_EQ(f.admission.stats().rejected_malformed, 1u);
}

TEST(AdmissionTest, RejectsNonPositiveBandwidth) {
  AdmissionFixture f;
  const auto spec = f.chain({VnfType::kFirewall}, 0.0);
  EXPECT_FALSE(f.admission.admit(spec, f.cluster(), f.pool, kStrict).status.is_ok());
}

TEST(AdmissionTest, RejectsBandwidthBeyondSlicePorts) {
  AdmissionFixture f;
  // ToR ports default to 10 Gbps; ask for 50.
  const auto spec = f.chain({VnfType::kFirewall}, 50.0);
  const auto status = f.admission.admit(spec, f.cluster(), f.pool, kStrict).status;
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(f.admission.stats().rejected_bandwidth, 1u);
}

TEST(AdmissionTest, RejectsAggregateOverload) {
  AdmissionFixture f;
  NfcSpec spec = f.chain({});
  // 200 caches: 200 * 32 GB memory >> slice total memory.
  for (int i = 0; i < 200; ++i) {
    spec.functions.push_back(*f.catalog.find_by_type(VnfType::kCache));
  }
  const auto status = f.admission.admit(spec, f.cluster(), f.pool, kStrict).status;
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(f.admission.stats().rejected_resources, 1u);
}

TEST(AdmissionTest, AccountsForExistingReservations) {
  AdmissionFixture f;
  // Fill every server almost completely.
  for (const auto& server : f.topo.servers()) {
    const auto free = f.pool.free_capacity(alvc::nfv::HostRef{server.id});
    ASSERT_TRUE(f.pool
                    .reserve(alvc::nfv::HostRef{server.id},
                             alvc::topology::Resources{.cpu_cores = free.cpu_cores,
                                                       .memory_gb = free.memory_gb,
                                                       .storage_gb = free.storage_gb})
                    .is_ok());
  }
  NfcSpec spec = f.chain({});
  for (int i = 0; i < 4; ++i) {
    spec.functions.push_back(*f.catalog.find_by_type(VnfType::kDeepPacketInspection));
  }
  EXPECT_FALSE(f.admission.admit(spec, f.cluster(), f.pool, kStrict).status.is_ok());
}

/// A check() verdict on a hand-built slice: one roomy server behind the
/// ingress ToR, so only the bandwidth and min-cut tests can reject.
AdmissionDecision slice_verdict(alvc::topology::DataCenterTopology& topo,
                                const alvc::cluster::VirtualCluster& vc, double bandwidth,
                                AllocationPolicy policy) {
  topo.add_server(vc.layer.tors.front(),
                  {.cpu_cores = 64, .memory_gb = 256, .storage_gb = 2048});
  const auto catalog = alvc::nfv::VnfCatalog::make_default();
  AdmissionController admission(topo, catalog);
  const HostingPool pool(topo);
  NfcSpec spec;
  spec.name = "x";
  spec.bandwidth_gbps = bandwidth;
  spec.functions = {*catalog.find_by_type(VnfType::kNat)};
  return admission.check(spec, vc, pool, policy);
}

TEST(AdmissionTest, SliceCapacityIsMaxFlowNotMinPort) {
  // Slice shaped like T0 - O0 - T1 with 10 Gbps ToR ports and a 100 Gbps
  // OPS: the anchors are joined through a 10 Gbps cut, so 10 Gbps is
  // admitted in full and anything above it is not.
  const auto decide = [](double bandwidth, AllocationPolicy policy) {
    alvc::topology::DataCenterTopology topo;
    const auto o0 = topo.add_ops();
    const auto t0 = topo.add_tor(10.0);
    const auto t1 = topo.add_tor(10.0);
    topo.connect_tor_ops(t0, o0);
    topo.connect_tor_ops(t1, o0);
    alvc::cluster::VirtualCluster vc;
    vc.layer.tors = {t0, t1};
    vc.layer.opss = {o0};
    return slice_verdict(topo, vc, bandwidth, policy);
  };
  const auto full = decide(10.0, kStrict);
  EXPECT_EQ(full.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_DOUBLE_EQ(full.granted_gbps, 10.0);
  EXPECT_EQ(decide(12.0, kStrict).outcome, AdmissionOutcome::kRejectedBandwidth);
  const auto half = decide(12.0, kDowngrade);
  EXPECT_EQ(half.outcome, AdmissionOutcome::kAdmittedDowngraded);
  EXPECT_DOUBLE_EQ(half.granted_gbps, 6.0);
}

TEST(AdmissionTest, ParallelOpsPathsAddCapacity) {
  // T0 and T1 (20 Gbps ports) joined through TWO 10 Gbps OPSs: the cut is
  // 20 Gbps wide, but the chain rides one path, so the 10 Gbps OPS port
  // still bounds it — the second path adds cut capacity, not admissible
  // demand.
  const auto decide = [](double bandwidth, AllocationPolicy policy) {
    alvc::topology::DataCenterTopology topo;
    const auto p0 = topo.add_ops(false, {}, 10.0);
    const auto p1 = topo.add_ops(false, {}, 10.0);
    const auto q0 = topo.add_tor(20.0);
    const auto q1 = topo.add_tor(20.0);
    for (auto o : {p0, p1}) {
      topo.connect_tor_ops(q0, o);
      topo.connect_tor_ops(q1, o);
    }
    alvc::cluster::VirtualCluster vc;
    vc.layer.tors = {q0, q1};
    vc.layer.opss = {p0, p1};
    return slice_verdict(topo, vc, bandwidth, policy);
  };
  EXPECT_EQ(decide(10.0, kStrict).outcome, AdmissionOutcome::kAdmitted);
  EXPECT_EQ(decide(15.0, kStrict).outcome, AdmissionOutcome::kRejectedBandwidth);
  const auto downgraded = decide(15.0, kDowngrade);
  EXPECT_EQ(downgraded.outcome, AdmissionOutcome::kAdmittedDowngraded);
  EXPECT_DOUBLE_EQ(downgraded.granted_gbps, 7.5);
}

TEST(AdmissionTest, SameTorCapacityIsUnbounded) {
  // A one-ToR slice has ingress == egress: no cut between the anchors, so
  // even an AL with no OPS at all admits any demand the ports carry.
  const auto decide = [](double bandwidth) {
    alvc::topology::DataCenterTopology topo;
    const auto t0 = topo.add_tor(10.0);
    alvc::cluster::VirtualCluster vc;
    vc.layer.tors = {t0};
    return slice_verdict(topo, vc, bandwidth, kStrict);
  };
  const auto full = decide(10.0);
  EXPECT_EQ(full.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_DOUBLE_EQ(full.granted_gbps, 10.0);
  EXPECT_EQ(decide(10.5).outcome, AdmissionOutcome::kRejectedBandwidth);
}

TEST(AdmissionTest, DisconnectedSliceHasZeroCapacity) {
  alvc::topology::DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  alvc::cluster::VirtualCluster vc;
  vc.layer.tors = {t0, t1};
  vc.layer.opss = {o0};  // o1 excluded: t1 unreachable inside the slice
  // Any positive bandwidth fails the min-cut test, and no rung of it fits
  // a zero cut either.
  const auto strict = slice_verdict(topo, vc, 1.0, kStrict);
  ASSERT_FALSE(strict.status.is_ok());
  EXPECT_EQ(strict.outcome, AdmissionOutcome::kRejectedCapacityFlow);
  EXPECT_DOUBLE_EQ(strict.granted_gbps, 0.0);
  EXPECT_EQ(slice_verdict(topo, vc, 1.0, kDowngrade).outcome,
            AdmissionOutcome::kRejectedCapacityFlow);
  // A failed link disconnects a slice the same way.
  vc.layer.opss = {o0, o1};
  topo.connect_tor_ops(t1, o0);
  ASSERT_TRUE(topo.set_link_failed(t1, o0, true).is_ok());
  EXPECT_EQ(slice_verdict(topo, vc, 1.0, kStrict).outcome,
            AdmissionOutcome::kRejectedCapacityFlow);
  ASSERT_TRUE(topo.set_link_failed(t1, o0, false).is_ok());
  EXPECT_EQ(slice_verdict(topo, vc, 1.0, kStrict).outcome, AdmissionOutcome::kAdmitted);
}

/// The fixture slice joins two 10 Gbps ToRs through 100 Gbps OPSs: its
/// min port and its min-cut are both 10 Gbps.
TEST(AdmissionTest, DowngradesDemandAboveSlicePortToLargestRungThatFits) {
  AdmissionFixture f;
  // 15 Gbps: the 1/2 rung (7.5) is the largest that fits under 10.
  const auto half = f.admission.admit(f.chain({VnfType::kFirewall}, 15.0), f.cluster(), f.pool,
                                      kDowngrade);
  ASSERT_TRUE(half.status.is_ok()) << half.status.error().to_string();
  EXPECT_EQ(half.outcome, AdmissionOutcome::kAdmittedDowngraded);
  EXPECT_DOUBLE_EQ(half.granted_gbps, 7.5);
  // 50 Gbps: 25 and 12.5 do not fit; the 1/8 rung (6.25) does.
  const auto eighth = f.admission.admit(f.chain({VnfType::kFirewall}, 50.0), f.cluster(), f.pool,
                                        kDowngrade);
  ASSERT_TRUE(eighth.status.is_ok()) << eighth.status.error().to_string();
  EXPECT_EQ(eighth.outcome, AdmissionOutcome::kAdmittedDowngraded);
  EXPECT_DOUBLE_EQ(eighth.granted_gbps, 6.25);
  EXPECT_EQ(f.admission.stats().admitted_downgraded, 2u);
  EXPECT_EQ(f.admission.stats().rejected_bandwidth, 0u);
  // A demand that fits in full is admitted in full under the same policy.
  const auto full = f.admission.admit(f.chain({VnfType::kFirewall}, 10.0), f.cluster(), f.pool,
                                      kDowngrade);
  EXPECT_EQ(full.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_DOUBLE_EQ(full.granted_gbps, 10.0);
}

TEST(AdmissionTest, DowngradeReturnsTheBandwidthRejectionWhenNoRungFits) {
  AdmissionFixture f;
  // 100 Gbps: even the 1/8 rung (12.5) exceeds the 10 Gbps port.
  const auto spec = f.chain({VnfType::kFirewall}, 100.0);
  const auto strict = f.admission.check(spec, f.cluster(), f.pool, kStrict);
  const auto decision = f.admission.admit(spec, f.cluster(), f.pool, kDowngrade);
  ASSERT_FALSE(decision.status.is_ok());
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kRejectedBandwidth);
  EXPECT_EQ(decision.status.error().to_string(), strict.status.error().to_string());
  EXPECT_DOUBLE_EQ(decision.granted_gbps, 0.0);
  EXPECT_EQ(f.admission.stats().rejected_bandwidth, 1u);
  EXPECT_EQ(f.admission.stats().admitted_downgraded, 0u);
}

TEST(AdmissionTest, DowngradeReturnsTheMinCutRejectionWhenNoRungFits) {
  // Every slice link carries at least the slice's min port, so a min-cut
  // below the port is a cut of zero: T1 unreachable inside the slice. A
  // 1 Gbps demand is below the 10 Gbps port but above the cut, and no rung
  // of it fits a zero cut.
  alvc::topology::DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  alvc::cluster::VirtualCluster vc;
  vc.layer.tors = {t0, t1};
  vc.layer.opss = {o0};
  const auto catalog = alvc::nfv::VnfCatalog::make_default();
  AdmissionController admission(topo, catalog);
  HostingPool pool(topo);
  NfcSpec spec;
  spec.name = "x";
  spec.bandwidth_gbps = 1.0;
  spec.functions = {*catalog.find_by_type(VnfType::kNat)};
  const auto strict = admission.check(spec, vc, pool, kStrict);
  const auto decision = admission.admit(spec, vc, pool, kDowngrade);
  ASSERT_FALSE(decision.status.is_ok());
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kRejectedCapacityFlow);
  EXPECT_EQ(decision.status.error().to_string(), strict.status.error().to_string());
  EXPECT_EQ(admission.stats().rejected_capacity_flow, 1u);
}

/// A disconnected slice's zero min-cut fits no ladder rung, so
/// kPriorityDowngrade rejects exactly as the strict ladder does, even a
/// demand whose 1/4 rung is within the 1e-9 Gbps tolerance. A demand above
/// the slice port keeps the bandwidth rejection.
TEST(AdmissionTest, DisconnectedAnchorsRejectUnderDowngrade) {
  alvc::topology::DataCenterTopology topo;
  const auto o0 = topo.add_ops();
  const auto o1 = topo.add_ops();
  const auto t0 = topo.add_tor();
  const auto t1 = topo.add_tor();
  topo.connect_tor_ops(t0, o0);
  topo.connect_tor_ops(t1, o1);
  alvc::cluster::VirtualCluster vc;
  vc.layer.tors = {t0, t1};
  vc.layer.opss = {o0};  // t1 unreachable inside the slice
  for (const double bandwidth : {1.0, 4e-9}) {
    const auto strict = slice_verdict(topo, vc, bandwidth, kStrict);
    const auto downgrade = slice_verdict(topo, vc, bandwidth, kDowngrade);
    ASSERT_FALSE(downgrade.status.is_ok()) << bandwidth;
    EXPECT_EQ(downgrade.outcome, AdmissionOutcome::kRejectedCapacityFlow) << bandwidth;
    EXPECT_DOUBLE_EQ(downgrade.granted_gbps, 0.0) << bandwidth;
    EXPECT_EQ(downgrade.status.error().to_string(), strict.status.error().to_string());
  }
  const auto over_port = slice_verdict(topo, vc, 50.0, kDowngrade);
  ASSERT_FALSE(over_port.status.is_ok());
  EXPECT_EQ(over_port.outcome, AdmissionOutcome::kRejectedBandwidth);
  EXPECT_EQ(over_port.status.error().to_string(),
            slice_verdict(topo, vc, 50.0, kStrict).status.error().to_string());
}

TEST(AdmissionTest, MalformedAndResourceRejectionsIgnoreThePolicy) {
  AdmissionFixture f;
  NfcSpec overload = f.chain({});
  for (int i = 0; i < 200; ++i) {
    overload.functions.push_back(*f.catalog.find_by_type(VnfType::kCache));
  }
  const std::vector<std::pair<NfcSpec, AdmissionOutcome>> cases = {
      {f.chain({}), AdmissionOutcome::kRejectedMalformed},
      {f.chain({VnfType::kFirewall}, 0.0), AdmissionOutcome::kRejectedMalformed},
      {f.chain({VnfType::kFirewall}, -1.0), AdmissionOutcome::kRejectedMalformed},
      {overload, AdmissionOutcome::kRejectedResources},
  };
  for (const auto& [spec, outcome] : cases) {
    const auto strict = f.admission.check(spec, f.cluster(), f.pool, kStrict);
    const auto downgrade = f.admission.check(spec, f.cluster(), f.pool, kDowngrade);
    ASSERT_FALSE(strict.status.is_ok());
    ASSERT_FALSE(downgrade.status.is_ok());
    EXPECT_EQ(downgrade.outcome, outcome);
    EXPECT_EQ(strict.outcome, downgrade.outcome);
    EXPECT_EQ(strict.status.error().to_string(), downgrade.status.error().to_string());
    EXPECT_DOUBLE_EQ(downgrade.granted_gbps, 0.0);
  }
  // A downgraded grant does not mask a resource shortfall: the overload
  // asking for more than the port is still rejected for resources.
  overload.bandwidth_gbps = 50.0;
  const auto downgraded = f.admission.check(overload, f.cluster(), f.pool, kDowngrade);
  EXPECT_EQ(downgraded.outcome, AdmissionOutcome::kRejectedResources);
  EXPECT_DOUBLE_EQ(downgraded.granted_gbps, 0.0);
}

}  // namespace
}  // namespace alvc::orchestrator
