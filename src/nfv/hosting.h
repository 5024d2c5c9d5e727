// Host capacity tracking for VNF placement.
//
// A HostingPool views one topology and answers: which hosts can take this
// VNF, and what is left after placement? Optical hosts are the
// optoelectronic routers; electronic hosts are the servers. Reservations
// are tracked here so placement strategies can be pure functions over a
// pool snapshot.
#pragma once

#include <vector>

#include "nfv/lifecycle.h"
#include "nfv/vnf.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::nfv {

using alvc::util::Status;

class HostingPool {
 public:
  explicit HostingPool(const alvc::topology::DataCenterTopology& topo);

  /// Remaining capacity of a host.
  [[nodiscard]] Resources free_capacity(const HostRef& host) const;

  /// Whether `demand` (scaled) currently fits on `host`. Plain (non-
  /// optoelectronic) OPSs never host anything.
  [[nodiscard]] bool fits(const HostRef& host, const Resources& demand) const;

  /// Reserves capacity; kCapacityExceeded if it does not fit.
  [[nodiscard]] Status reserve(const HostRef& host, const Resources& demand);

  /// Returns previously reserved capacity. Over-release is clamped to the
  /// host's nominal capacity (defensive; flagged by is_consistent()).
  /// Throws std::out_of_range for a host the topology does not have.
  void release(const HostRef& host, const Resources& demand);

  /// Optical hosts (optoelectronic routers) with any free capacity,
  /// restricted to `candidates` when non-empty.
  [[nodiscard]] std::vector<alvc::util::OpsId> optical_hosts_with_capacity(
      const Resources& demand,
      const std::vector<alvc::util::OpsId>& candidates = {}) const;

  /// Electronic hosts (servers) that can take `demand`.
  [[nodiscard]] std::vector<alvc::util::ServerId> electronic_hosts_with_capacity(
      const Resources& demand) const;

  /// Capacity currently reserved on `host` (zero for untouched hosts).
  /// Exposed so cross-layer audits can check reservation conservation:
  /// the pool's books must equal the sum of live instances' scaled demand.
  [[nodiscard]] Resources reserved_on(const HostRef& host) const { return used_or_zero(host); }

  /// True if no host is over-committed.
  [[nodiscard]] bool is_consistent() const;

  [[nodiscard]] const alvc::topology::DataCenterTopology& topology() const noexcept {
    return *topo_;
  }

 private:
  [[nodiscard]] Resources nominal_capacity(const HostRef& host) const;
  [[nodiscard]] Resources& used(const HostRef& host);
  [[nodiscard]] Resources used_or_zero(const HostRef& host) const;

  const alvc::topology::DataCenterTopology* topo_;
  /// Reserved capacity per host, indexed by ServerId/OpsId::index() and
  /// sized to the topology at construction. A host the topology gains
  /// later reads zero until its first write grows the table.
  std::vector<Resources> server_used_;
  std::vector<Resources> ops_used_;
};

}  // namespace alvc::nfv
