// Host capacity tracking for VNF placement.
//
// A HostingPool views one topology and answers: which hosts can take this
// VNF, and what is left after placement? Optical hosts are the
// optoelectronic routers; electronic hosts are the servers. Reservations
// are tracked here so placement strategies can be pure functions over a
// pool snapshot.
//
// The pool is the only writer of the reservation books, so it also keeps
// each host's utilization beside them and the fabric-wide peak: readers
// such as the migration planner's hot-host test pay O(1), not a
// recomputation per chain instance.
#pragma once

#include <utility>
#include <vector>

#include "nfv/lifecycle.h"
#include "nfv/vnf.h"
#include "topology/topology.h"
#include "util/error.h"

namespace alvc::nfv {

using alvc::util::Status;

/// Utilization of a host with `used` booked out of `nominal`: the max over
/// resource dimensions of used / nominal, 0 for a dimension with no
/// capacity. The one definition: the pool caches it per host, and audits
/// recompute it to check that cache.
[[nodiscard]] double utilization_of(const Resources& used, const Resources& nominal) noexcept;

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

  /// utilization_of() the host's books and nominal capacity, cached beside
  /// the books and refreshed by every write, so this is an O(1) read.
  /// 0 for a host added after the pool and not yet booked.
  [[nodiscard]] double utilization(const HostRef& host) const;

  /// The highest utilization of any host; 0 when nothing is booked.
  /// A write can only raise the cached peak or mark it stale (when the
  /// peak host cools), and only a read after that rescans the tables.
  /// Refreshes a cache: not safe to call concurrently with itself.
  [[nodiscard]] double peak_utilization() const;

  /// True if no host is over-committed and every cached utilization (and
  /// the peak, when fresh) matches a recomputation from the books.
  [[nodiscard]] bool is_consistent() const;

  [[nodiscard]] const alvc::topology::DataCenterTopology& topology() const noexcept {
    return *topo_;
  }

 private:
  /// One host's books: what is reserved and the utilization derived from
  /// it, kept together so a refresh touches one entry.
  struct HostBooks {
    Resources used;
    double utilization = 0;
  };

  [[nodiscard]] Resources nominal_capacity(const HostRef& host) const;
  [[nodiscard]] HostBooks& books(const HostRef& host);
  [[nodiscard]] const HostBooks* books_or_null(const HostRef& host) const;
  [[nodiscard]] Resources used_or_zero(const HostRef& host) const;
  /// Recomputes `entry`'s utilization after a write to `host` and keeps
  /// the cached peak exact or marks it stale.
  void refresh(HostBooks& entry, const HostRef& host, const Resources& nominal);
  /// The highest utilization over every host and a host that has it.
  [[nodiscard]] std::pair<double, HostRef> scan_peak() const;

  const alvc::topology::DataCenterTopology* topo_;
  /// Books per host, indexed by ServerId/OpsId::index() and sized to the
  /// topology at construction. A host the topology gains later reads zero
  /// until its first write grows the table.
  std::vector<HostBooks> server_books_;
  std::vector<HostBooks> ops_books_;
  /// Cached peak_utilization() and a host at it; valid unless stale.
  /// A new pool has nothing booked, so its peak is 0.
  mutable double peak_ = 0;
  mutable HostRef peak_host_;
  mutable bool peak_stale_ = false;
};

}  // namespace alvc::nfv
