// Shared test fixtures: a small, fully deterministic data center with one
// virtual cluster, ready for placement/routing/orchestration tests.
#pragma once

#include <gtest/gtest.h>

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <vector>

#include "cluster/cluster_manager.h"
#include "cluster/service.h"
#include "nfv/catalog.h"
#include "topology/topology.h"
#include "util/ids.h"

/// Attaches the active RNG seed to every assertion in the enclosing scope,
/// so a failing randomized/soak test prints the seed needed to replay it.
#define ALVC_TRACE_SEED(seed) SCOPED_TRACE(::testing::Message() << "rng seed = " << (seed))

namespace alvc::test {

/// A positive integer override read from environment variable `name`:
/// `fallback` when unset, nullopt when set to anything but a positive
/// decimal integer — so a test can fail with a message instead of silently
/// running its default.
inline std::optional<std::size_t> positive_env(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view text(env);
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value == 0) return std::nullopt;
  return value;
}

using alvc::topology::Resources;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::ServiceId;
using alvc::util::TorId;
using alvc::util::VmId;

/// Two racks, two servers each, one VM per server (service 0); four OPSs in
/// a ring; OPS 0 and 2 are optoelectronic (4 cores / 8 GB / 32 GB each).
/// ToR0 -> {O0, O1}; ToR1 -> {O2, O3}. Core ring O0-O1-O2-O3-O0.
struct SliceFixture {
  alvc::topology::DataCenterTopology topo;
  alvc::nfv::VnfCatalog catalog = alvc::nfv::VnfCatalog::make_default();
  std::vector<VmId> group;

  SliceFixture() {
    const Resources oe{.cpu_cores = 4, .memory_gb = 8, .storage_gb = 32};
    const auto o0 = topo.add_ops(true, oe);
    const auto o1 = topo.add_ops();
    const auto o2 = topo.add_ops(true, oe);
    const auto o3 = topo.add_ops();
    topo.connect_ops_ops(o0, o1);
    topo.connect_ops_ops(o1, o2);
    topo.connect_ops_ops(o2, o3);
    topo.connect_ops_ops(o3, o0);
    const Resources server_cap{.cpu_cores = 32, .memory_gb = 128, .storage_gb = 1024};
    for (int r = 0; r < 2; ++r) {
      const TorId tor = topo.add_tor();
      topo.connect_tor_ops(tor, OpsId{static_cast<OpsId::value_type>(2 * r)});
      topo.connect_tor_ops(tor, OpsId{static_cast<OpsId::value_type>(2 * r + 1)});
      for (int s = 0; s < 2; ++s) {
        const ServerId server = topo.add_server(tor, server_cap);
        group.push_back(topo.add_vm(server, ServiceId{0}));
      }
    }
  }
};

/// SliceFixture plus a ClusterManager with the single service-0 cluster
/// built by the paper's AL algorithm.
struct ClusterFixture : SliceFixture {
  alvc::cluster::ClusterManager manager{topo};
  alvc::util::ClusterId cluster_id;

  ClusterFixture() {
    const alvc::cluster::VertexCoverAlBuilder builder;
    auto id = manager.create_cluster(ServiceId{0}, group, builder);
    if (!id.has_value()) throw std::runtime_error("fixture cluster failed: " + id.error().to_string());
    cluster_id = *id;
  }

  [[nodiscard]] const alvc::cluster::VirtualCluster& cluster() const {
    return *manager.find(cluster_id);
  }
};

}  // namespace alvc::test
