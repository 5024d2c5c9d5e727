// Property test: admission by anchor reachability decides exactly as the
// slice max-flow it replaced. Random small slices — 0-capacity and
// fractional ports, failed links, OPSs and ToRs, OPS-OPS core links,
// one-ToR slices (ingress == egress) and empty ALs — each under every
// allocation policy and a spread of demands; the production check and the
// max-flow reference (tests/support/max_flow_admission) must agree on the
// status, its message, the outcome and the granted bandwidth.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "nfv/catalog.h"
#include "nfv/hosting.h"
#include "orchestrator/admission.h"
#include "support/fixtures.h"
#include "support/max_flow_admission.h"
#include "util/rng.h"

namespace alvc::orchestrator {
namespace {

using alvc::util::OpsId;
using alvc::util::Rng;
using alvc::util::TorId;

constexpr std::array<double, 7> kPorts{0.0, 0.1, 1.0, 2.5, 10.0, 40.0, 100.0};
constexpr std::array<double, 10> kDemands{-1.0, 0.0,  1e-10, 0.05, 0.1,
                                          1.0,  2.5,  10.0,  15.0, 400.0};
constexpr std::array<AllocationPolicy, 3> kPolicies{AllocationPolicy::kStrictLadder,
                                                    AllocationPolicy::kWaterFill,
                                                    AllocationPolicy::kPriorityDowngrade};

struct RandomSlice {
  topology::DataCenterTopology topo;
  cluster::VirtualCluster vc;
};

RandomSlice make_slice(Rng& rng) {
  RandomSlice out;
  auto& topo = out.topo;
  const std::size_t tors = 1 + rng.uniform_index(5);
  const std::size_t opss = 1 + rng.uniform_index(5);
  for (std::size_t o = 0; o < opss; ++o) {
    topo.add_ops(rng.bernoulli(0.5), {.cpu_cores = 4, .memory_gb = 8, .storage_gb = 32},
                 kPorts[rng.uniform_index(kPorts.size())]);
  }
  for (std::size_t t = 0; t < tors; ++t) {
    const TorId tor = topo.add_tor(kPorts[rng.uniform_index(kPorts.size())]);
    if (rng.bernoulli(0.8)) {
      topo.add_server(tor, {.cpu_cores = rng.uniform(0, 16),
                            .memory_gb = rng.uniform(0, 64),
                            .storage_gb = rng.uniform(0, 512)});
    }
    for (std::size_t o = 0; o < opss; ++o) {
      if (rng.bernoulli(0.5)) topo.connect_tor_ops(tor, OpsId{static_cast<std::uint32_t>(o)});
    }
  }
  for (std::size_t a = 0; a < opss; ++a) {
    for (std::size_t b = a + 1; b < opss; ++b) {
      if (rng.bernoulli(0.3)) {
        topo.connect_ops_ops(OpsId{static_cast<std::uint32_t>(a)},
                             OpsId{static_cast<std::uint32_t>(b)});
      }
    }
  }
  for (const auto& tor : topo.tors()) {
    for (OpsId o : tor.uplinks) {
      if (rng.bernoulli(0.15)) {
        ALVC_IGNORE_STATUS(topo.set_link_failed(tor.id, o, true), "the link was just connected");
      }
    }
  }
  for (std::size_t o = 0; o < opss; ++o) {
    if (rng.bernoulli(0.1)) {
      ALVC_IGNORE_STATUS(topo.set_ops_failed(OpsId{static_cast<std::uint32_t>(o)}, true),
                         "id in range");
    }
  }
  for (std::size_t t = 0; t < tors; ++t) {
    if (rng.bernoulli(0.05)) {
      ALVC_IGNORE_STATUS(topo.set_tor_failed(TorId{static_cast<std::uint32_t>(t)}, true),
                         "id in range");
    }
  }
  // The layer: a random ascending subset of each side (possibly empty).
  for (std::size_t t = 0; t < tors; ++t) {
    if (rng.bernoulli(0.7)) out.vc.layer.tors.push_back(TorId{static_cast<std::uint32_t>(t)});
  }
  for (std::size_t o = 0; o < opss; ++o) {
    if (rng.bernoulli(0.7)) out.vc.layer.opss.push_back(OpsId{static_cast<std::uint32_t>(o)});
  }
  return out;
}

TEST(AdmissionPropertyTest, AnchorReachabilityDecidesLikeTheSliceMaxFlow) {
  const auto catalog = nfv::VnfCatalog::make_default();
  const std::array<util::VnfId, 3> functions{
      *catalog.find_by_type(nfv::VnfType::kNat), *catalog.find_by_type(nfv::VnfType::kFirewall),
      *catalog.find_by_type(nfv::VnfType::kDeepPacketInspection)};
  std::size_t cases = 0;
  std::size_t one_tor = 0;
  std::size_t cut_rejected = 0;
  std::size_t admitted = 0;
  std::size_t downgraded = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    ALVC_TRACE_SEED(seed);
    Rng rng(seed);
    RandomSlice slice = make_slice(rng);
    if (slice.vc.layer.tors.size() == 1) ++one_tor;
    const nfv::HostingPool pool(slice.topo);
    AdmissionController admission(slice.topo, catalog);
    for (double demand : kDemands) {
      nfv::NfcSpec spec;
      spec.name = "p";
      spec.bandwidth_gbps = demand;
      const std::size_t length = rng.uniform_index(functions.size() + 1);
      for (std::size_t i = 0; i < length; ++i) spec.functions.push_back(functions[i]);
      for (AllocationPolicy policy : kPolicies) {
        SCOPED_TRACE("demand " + std::to_string(demand) + " policy " +
                     std::to_string(static_cast<int>(policy)));
        const AdmissionDecision got = admission.check(spec, slice.vc, pool, policy);
        const AdmissionDecision want = alvc::test::max_flow_admission_check(
            slice.topo, catalog, spec, slice.vc, pool, policy);
        ++cases;
        ASSERT_EQ(got.status.is_ok(), want.status.is_ok());
        if (!got.status.is_ok()) {
          EXPECT_EQ(got.status.error().to_string(), want.status.error().to_string());
        }
        EXPECT_EQ(got.outcome, want.outcome);
        EXPECT_EQ(got.granted_gbps, want.granted_gbps);
        admitted += got.outcome == AdmissionOutcome::kAdmitted ? 1 : 0;
        downgraded += got.outcome == AdmissionOutcome::kAdmittedDowngraded ? 1 : 0;
        cut_rejected += got.outcome == AdmissionOutcome::kRejectedCapacityFlow ? 1 : 0;
      }
    }
  }
  // The agreement must not be vacuous: every branch the probe decides was
  // taken.
  EXPECT_EQ(cases, 400u * kDemands.size() * kPolicies.size());
  EXPECT_GT(one_tor, 20u);
  EXPECT_GT(cut_rejected, 50u);
  EXPECT_GT(admitted, 100u);
  EXPECT_GT(downgraded, 50u);
}

}  // namespace
}  // namespace alvc::orchestrator
