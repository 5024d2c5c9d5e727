#include "nfv/hosting.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace alvc::nfv {

using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;

namespace {

/// The table entry for host `index` of `count`, growing the table to the
/// topology's current host count when the host was added after the pool.
/// A grown entry has nothing reserved, and 0 is its utilization; the write
/// that grew it refreshes it like any other. Throws std::out_of_range for
/// a host the topology does not have, as the topology accessors do.
template <typename Entry>
Entry& slot(std::vector<Entry>& table, std::size_t index, std::size_t count) {
  if (index >= table.size()) {
    if (index >= count) throw std::out_of_range("HostingPool: no such host");
    table.resize(count);
  }
  return table[index];
}

double dimension_ratio(double used, double nominal) noexcept {
  return nominal > 0 ? used / nominal : 0.0;
}

}  // namespace

double utilization_of(const Resources& used, const Resources& nominal) noexcept {
  double util = dimension_ratio(used.cpu_cores, nominal.cpu_cores);
  util = std::max(util, dimension_ratio(used.memory_gb, nominal.memory_gb));
  util = std::max(util, dimension_ratio(used.storage_gb, nominal.storage_gb));
  return util;
}

HostingPool::HostingPool(const alvc::topology::DataCenterTopology& topo)
    : topo_(&topo), server_books_(topo.server_count()), ops_books_(topo.ops_count()) {}

Resources HostingPool::nominal_capacity(const HostRef& host) const {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return topo_->server(*server).capacity;
  }
  const auto& ops = topo_->ops(std::get<OpsId>(host));
  return ops.optoelectronic ? ops.compute : Resources{};
}

HostingPool::HostBooks& HostingPool::books(const HostRef& host) {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return slot(server_books_, server->index(), topo_->server_count());
  }
  return slot(ops_books_, std::get<OpsId>(host).index(), topo_->ops_count());
}

const HostingPool::HostBooks* HostingPool::books_or_null(const HostRef& host) const {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return server->index() < server_books_.size() ? &server_books_[server->index()] : nullptr;
  }
  const std::size_t index = std::get<OpsId>(host).index();
  return index < ops_books_.size() ? &ops_books_[index] : nullptr;
}

Resources HostingPool::used_or_zero(const HostRef& host) const {
  const HostBooks* entry = books_or_null(host);
  return entry != nullptr ? entry->used : Resources{};
}

double HostingPool::utilization(const HostRef& host) const {
  const HostBooks* entry = books_or_null(host);
  return entry != nullptr ? entry->utilization : 0.0;
}

Resources HostingPool::free_capacity(const HostRef& host) const {
  return nominal_capacity(host) - used_or_zero(host);
}

bool HostingPool::fits(const HostRef& host, const Resources& demand) const {
  return demand.fits_within(free_capacity(host));
}

void HostingPool::refresh(HostBooks& entry, const HostRef& host, const Resources& nominal) {
  entry.utilization = utilization_of(entry.used, nominal);
  if (peak_stale_) return;
  if (entry.utilization >= peak_) {
    peak_ = entry.utilization;
    peak_host_ = host;
  } else if (host == peak_host_) {
    peak_stale_ = true;  // the peak host cooled: only a rescan knows the new peak
  }
}

Status HostingPool::reserve(const HostRef& host, const Resources& demand) {
  const Resources nominal = nominal_capacity(host);
  if (!demand.fits_within(nominal - used_or_zero(host))) {
    return Error{ErrorCode::kCapacityExceeded, "host cannot take VNF demand"};
  }
  HostBooks& entry = books(host);
  entry.used += demand;
  refresh(entry, host, nominal);
  return Status::ok();
}

void HostingPool::release(const HostRef& host, const Resources& demand) {
  HostBooks& entry = books(host);
  Resources& u = entry.used;
  u -= demand;
  // Clamp against over-release.
  u.cpu_cores = std::max(u.cpu_cores, 0.0);
  u.memory_gb = std::max(u.memory_gb, 0.0);
  u.storage_gb = std::max(u.storage_gb, 0.0);
  refresh(entry, host, nominal_capacity(host));
}

std::pair<double, HostRef> HostingPool::scan_peak() const {
  // Books never go below zero for non-negative demand, so neither does a
  // utilization: 0 is the floor, and what a host never booked reads.
  std::pair<double, HostRef> peak{0.0, HostRef{}};
  for (std::size_t i = 0; i < server_books_.size(); ++i) {
    if (server_books_[i].utilization > peak.first) {
      peak = {server_books_[i].utilization, ServerId{static_cast<ServerId::value_type>(i)}};
    }
  }
  for (std::size_t i = 0; i < ops_books_.size(); ++i) {
    if (ops_books_[i].utilization > peak.first) {
      peak = {ops_books_[i].utilization, OpsId{static_cast<OpsId::value_type>(i)}};
    }
  }
  return peak;
}

double HostingPool::peak_utilization() const {
  if (peak_stale_) {
    std::tie(peak_, peak_host_) = scan_peak();
    peak_stale_ = false;
  }
  return peak_;
}

std::vector<OpsId> HostingPool::optical_hosts_with_capacity(
    const Resources& demand, const std::vector<OpsId>& candidates) const {
  std::vector<OpsId> out;
  const auto consider = [&](const alvc::topology::OpticalSwitch& ops) {
    if (!ops.optoelectronic || ops.failed) return;
    if (fits(HostRef{ops.id}, demand)) out.push_back(ops.id);
  };
  if (candidates.empty()) {
    for (const auto& ops : topo_->opss()) consider(ops);
  } else {
    for (OpsId id : candidates) consider(topo_->ops(id));
  }
  return out;
}

std::vector<ServerId> HostingPool::electronic_hosts_with_capacity(const Resources& demand) const {
  std::vector<ServerId> out;
  for (const auto& server : topo_->servers()) {
    if (fits(HostRef{server.id}, demand)) out.push_back(server.id);
  }
  return out;
}

bool HostingPool::is_consistent() const {
  const auto entry_ok = [&](const HostBooks& entry, const HostRef& host) {
    const Resources nominal = nominal_capacity(host);
    // Bit-for-bit: the cache must hold exactly what a recomputation gives.
    return (nominal - entry.used).non_negative() &&
           entry.utilization == utilization_of(entry.used, nominal);
  };
  for (std::size_t i = 0; i < server_books_.size(); ++i) {
    const HostRef host{ServerId{static_cast<ServerId::value_type>(i)}};
    if (!entry_ok(server_books_[i], host)) return false;
  }
  for (std::size_t i = 0; i < ops_books_.size(); ++i) {
    const HostRef host{OpsId{static_cast<OpsId::value_type>(i)}};
    if (!entry_ok(ops_books_[i], host)) return false;
  }
  return peak_stale_ || (peak_ == scan_peak().first && utilization(peak_host_) == peak_);
}

}  // namespace alvc::nfv
