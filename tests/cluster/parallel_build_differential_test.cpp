// Differential harness for the parallel AL construction path.
//
// The parallel ClusterManager::build_all_clusters promises BIT-IDENTICAL
// output to the serial path — same clusters, same ids, same ALs, same
// ownership, same errors. This suite checks that promise across every
// AlBuilder variant and a sweep of seeded random topologies whose OPS
// pools are tight enough that service groups really do contend for
// switches (the interesting case for the one-AL-per-OPS invariant).
//
// Labelled `sanitize`: run it under -DALVC_SANITIZE=thread to also prove
// the fan-out itself is race-free.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/service.h"
#include "topology/builder.h"
#include "util/executor.h"

namespace alvc::cluster {
namespace {

using alvc::topology::CoreKind;
using alvc::topology::DataCenterTopology;
using alvc::topology::TopologyParams;
using alvc::util::ClusterId;
using alvc::util::Executor;
using alvc::util::OpsId;

constexpr std::uint64_t kTopologySeeds = 20;

/// Contended topologies: 4 service groups over a modest OPS pool, random
/// wiring, so parallel speculative builds frequently collide and exercise
/// the serial-rebuild fallback as well as the clean-commit path. A few of
/// the 20 seeds are infeasible on purpose — the error side of the
/// differential must match too.
TopologyParams make_params(std::uint64_t seed) {
  TopologyParams params;
  params.rack_count = 12;
  params.servers_per_rack = 3;
  params.vms_per_server = 3;
  params.ops_count = 24;
  params.tor_ops_degree = 6;
  params.core = CoreKind::kTorus2D;
  params.service_count = 4;
  params.service_skew = 0.6;
  params.dual_homing_probability = 0.1;
  params.optoelectronic_fraction = 0.5;
  params.seed = seed;
  return params;
}

std::vector<std::unique_ptr<AlBuilder>> all_builders() {
  std::vector<std::unique_ptr<AlBuilder>> builders;
  builders.push_back(std::make_unique<VertexCoverAlBuilder>());
  builders.push_back(std::make_unique<RandomAlBuilder>(/*seed=*/42));
  builders.push_back(std::make_unique<GreedySetCoverAlBuilder>());
  builders.push_back(std::make_unique<ResilientAlBuilder>());
  // Small node budget keeps exact branch-and-bound fast on these sizes.
  builders.push_back(std::make_unique<ExactAlBuilder>(AlBuilderOptions{}, /*node_budget=*/200'000));
  return builders;
}

std::string describe(const VirtualCluster& vc) {
  std::ostringstream os;
  os << "cluster " << vc.id.value() << " service " << vc.service.value() << " connected "
     << vc.connected << " vms[";
  for (auto vm : vc.vms) os << vm.value() << ",";
  os << "] tors[";
  for (auto t : vc.layer.tors) os << t.value() << ",";
  os << "] opss[";
  for (auto o : vc.layer.opss) os << o.value() << ",";
  os << "]";
  return os.str();
}

/// Full deep-equality between two managers' states: clusters (ids,
/// services, members, AL ToRs/OPSs, flags) and per-OPS ownership.
void expect_identical_state(const ClusterManager& serial, const ClusterManager& parallel,
                            const std::string& context) {
  ASSERT_EQ(serial.cluster_count(), parallel.cluster_count()) << context;
  const auto lhs = serial.clusters();
  const auto rhs = parallel.clusters();
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i]->id, rhs[i]->id) << context;
    EXPECT_EQ(lhs[i]->service, rhs[i]->service) << context;
    EXPECT_EQ(lhs[i]->vms, rhs[i]->vms) << context;
    EXPECT_EQ(lhs[i]->layer.tors, rhs[i]->layer.tors)
        << context << "\nserial:   " << describe(*lhs[i]) << "\nparallel: " << describe(*rhs[i]);
    EXPECT_EQ(lhs[i]->layer.opss, rhs[i]->layer.opss)
        << context << "\nserial:   " << describe(*lhs[i]) << "\nparallel: " << describe(*rhs[i]);
    EXPECT_EQ(lhs[i]->connected, rhs[i]->connected) << context;
    EXPECT_EQ(lhs[i]->degraded, rhs[i]->degraded) << context;
  }
  ASSERT_EQ(serial.ownership().ops_count(), parallel.ownership().ops_count()) << context;
  for (std::size_t o = 0; o < serial.ownership().ops_count(); ++o) {
    const OpsId ops{static_cast<OpsId::value_type>(o)};
    EXPECT_EQ(serial.ownership().owner(ops), parallel.ownership().owner(ops))
        << context << " OPS " << o;
  }
}

/// The paper's hard constraint, checked directly on top of the manager's
/// own invariant sweep: every OPS has at most one owner and every owner
/// lists it.
void expect_exclusive_ownership(const ClusterManager& manager, const std::string& context) {
  const auto violations = manager.check_invariants();
  EXPECT_TRUE(violations.empty()) << context << ": " << violations.front();
  std::vector<int> owners(manager.topology().ops_count(), 0);
  for (const VirtualCluster* vc : manager.clusters()) {
    for (OpsId o : vc->layer.opss) owners[o.index()] += 1;
  }
  for (std::size_t o = 0; o < owners.size(); ++o) {
    EXPECT_LE(owners[o], 1) << context << ": OPS " << o << " in more than one AL";
  }
}

class ParallelBuildDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelBuildDifferentialTest, ParallelBuildMatchesSerialForEveryBuilder) {
  Executor exec(4);
  for (const auto& builder : all_builders()) {
    DataCenterTopology serial_topo = alvc::topology::build_topology(make_params(GetParam()));
    DataCenterTopology parallel_topo = alvc::topology::build_topology(make_params(GetParam()));
    ClusterManager serial(serial_topo);
    ClusterManager parallel(parallel_topo);

    const std::string context =
        "builder=" + std::string(builder->name()) + " seed=" + std::to_string(GetParam());
    auto serial_ids = serial.create_clusters_by_service(*builder);
    BatchBuildStats stats;
    auto parallel_ids = parallel.build_all_clusters(*builder, &exec, &stats);

    ASSERT_EQ(serial_ids.has_value(), parallel_ids.has_value()) << context;
    if (!serial_ids) {
      // Same failure, same message, same (empty) side effects.
      EXPECT_EQ(serial_ids.error().to_string(), parallel_ids.error().to_string()) << context;
      expect_identical_state(serial, parallel, context);
      continue;
    }
    EXPECT_EQ(*serial_ids, *parallel_ids) << context;
    EXPECT_EQ(stats.parallel_commits + stats.serial_rebuilds, stats.groups) << context;
    expect_identical_state(serial, parallel, context);
    expect_exclusive_ownership(parallel, context);
  }
}

/// Null executor must be the serial path, bit for bit.
TEST_P(ParallelBuildDifferentialTest, NullExecutorIsTheSerialPath) {
  const VertexCoverAlBuilder builder;
  DataCenterTopology a_topo = alvc::topology::build_topology(make_params(GetParam()));
  DataCenterTopology b_topo = alvc::topology::build_topology(make_params(GetParam()));
  ClusterManager a(a_topo);
  ClusterManager b(b_topo);
  auto a_ids = a.create_clusters_by_service(builder);
  auto b_ids = b.build_all_clusters(builder, /*executor=*/nullptr);
  ASSERT_EQ(a_ids.has_value(), b_ids.has_value());
  if (a_ids) {
    EXPECT_EQ(*a_ids, *b_ids);
  }
  expect_identical_state(a, b, "null-executor seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBuildDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, kTopologySeeds + 1));

/// Thread-count sweep: the committed output must not depend on pool size
/// (1 worker, many workers, more workers than groups).
TEST(ParallelBuildThreadSweepTest, OutputIndependentOfThreadCount) {
  const VertexCoverAlBuilder builder;
  // Roomier OPS pool than make_params: the sweep needs a feasible build.
  // (Each ToR can serve at most tor_ops_degree exclusive ALs, so the
  // degree must clear the service count.)
  TopologyParams params = make_params(7);
  params.ops_count = 48;
  params.tor_ops_degree = 8;
  params.service_count = 6;
  DataCenterTopology reference_topo = alvc::topology::build_topology(params);
  ClusterManager reference(reference_topo);
  const auto reference_ids = reference.create_clusters_by_service(builder);
  ASSERT_TRUE(reference_ids.has_value());
  for (const std::size_t threads : {1u, 2u, 4u, 16u}) {
    Executor exec(threads);
    DataCenterTopology topo = alvc::topology::build_topology(params);
    ClusterManager manager(topo);
    auto ids = manager.build_all_clusters(builder, &exec);
    ASSERT_TRUE(ids.has_value()) << threads << " threads";
    EXPECT_EQ(*reference_ids, *ids) << threads << " threads";
    expect_identical_state(reference, manager, std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace alvc::cluster
