// FIG7 — One optical slice (= one AL) per NFC, tenant isolation
// (paper Fig. 7, §IV-C).
//
// Claims: (1) each application gets a whole network slice plus its VNFs,
// "giving them control on the networking of the slice"; (2) one VC hosts
// exactly one NFC; (3) slices work independently.
//
// Experiment: sweep tenant count against OPS pool size; report slice
// allocation success, 1:1 binding enforcement, and cross-slice
// interference (switch-sharing must be zero on OPSs).
#include <benchmark/benchmark.h>

#include <iostream>
#include <set>

#include "core/alvc.h"

namespace {

using namespace alvc;
using nfv::VnfType;

void print_experiment() {
  std::cout << "=== FIG7: slices per NFC vs OPS pool — allocation + isolation ===\n\n";
  core::TextTable table({"tenants", "OPS pool", "clusters", "chains provisioned",
                         "dup chain rejected", "OPS shared by 2 slices", "isolation violations"});
  for (const std::size_t tenants : {2u, 4u, 8u, 12u}) {
    for (const std::size_t pool_factor : {6u, 12u}) {
      core::DataCenterConfig config;
      config.topology.rack_count = std::max<std::size_t>(8, tenants * 2);
      config.topology.ops_count = tenants * pool_factor;
      // ToR fan-out scales with tenancy: every cluster covering a ToR needs
      // its own free uplink.
      config.topology.tor_ops_degree =
          std::min(config.topology.ops_count, 6 + tenants * 3);
      config.topology.service_count = tenants;
      config.topology.service_skew = 0.0;
      config.topology.optoelectronic_fraction = 0.5;
      config.topology.core = topology::CoreKind::kRing;
      config.topology.seed = 51;
      core::DataCenter dc(config);
      const auto clusters = dc.build_clusters();
      const std::size_t built = clusters ? clusters->size() : dc.clusters().cluster_count();

      std::size_t provisioned = 0;
      for (std::size_t t = 0; t < tenants; ++t) {
        nfv::NfcSpec spec;
        spec.tenant = util::TenantId{static_cast<util::TenantId::value_type>(t)};
        spec.service = util::ServiceId{static_cast<util::ServiceId::value_type>(t)};
        spec.name = "t";
        spec.name += std::to_string(t);
        spec.bandwidth_gbps = 1.0;
        spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall),
                          *dc.catalog().find_by_type(VnfType::kNat)};
        if (dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical)) ++provisioned;
      }
      // Duplicate chain for tenant 0 must bounce (1 NFC per VC).
      bool dup_rejected = false;
      {
        nfv::NfcSpec dup;
        dup.tenant = util::TenantId{0};
        dup.service = util::ServiceId{0};
        dup.name = "dup";
        dup.bandwidth_gbps = 1.0;
        dup.functions = {*dc.catalog().find_by_type(VnfType::kNat)};
        dup_rejected = !dc.provision_chain(dup, core::PlacementAlgorithm::kGreedyOptical)
                            .has_value();
      }
      // Cross-slice OPS sharing (must be zero by the exclusivity invariant).
      std::size_t shared = 0;
      std::set<util::OpsId> seen;
      for (const auto* vc : dc.clusters().clusters()) {
        for (auto o : vc->layer.opss) {
          if (!seen.insert(o).second) ++shared;
        }
      }
      table.add_row_values(tenants, config.topology.ops_count, built, provisioned,
                           dup_rejected ? "yes" : "NO (bug)", shared,
                           dc.orchestrator().check_isolation().size());
    }
  }
  table.print();
  std::cout << "\nExpected shape: with an adequate pool every tenant gets a slice; sharing and\n"
               "isolation violations are zero by construction; scarce pools degrade allocation\n"
               "count, never isolation.\n\n";
}

void BM_SliceAllocateRelease(benchmark::State& state) {
  orchestrator::SliceManager slices;
  std::uint32_t i = 0;
  for (auto _ : state) {
    const auto id = slices.allocate(util::ClusterId{i}, util::NfcId{i}, 1.0);
    benchmark::DoNotOptimize(id);
    (void)slices.release(util::NfcId{i});
    ++i;
  }
}
BENCHMARK(BM_SliceAllocateRelease);

void BM_IsolationCheck(benchmark::State& state) {
  core::DataCenterConfig config;
  config.topology.rack_count = 12;
  config.topology.ops_count = 60;
  config.topology.tor_ops_degree = 10;
  config.topology.service_count = 4;
  config.topology.service_skew = 0.0;
  config.topology.seed = 53;
  core::DataCenter dc(config);
  (void)dc.build_clusters();
  for (std::size_t t = 0; t < 4; ++t) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{static_cast<util::ServiceId::value_type>(t)};
    spec.name = "bench";
    spec.bandwidth_gbps = 1.0;
    spec.functions = {*dc.catalog().find_by_type(VnfType::kFirewall)};
    (void)dc.provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dc.orchestrator().check_isolation());
  }
}
BENCHMARK(BM_IsolationCheck)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
