#include "nfv/hosting.h"

#include <algorithm>
#include <stdexcept>

namespace alvc::nfv {

using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::OpsId;
using alvc::util::ServerId;

namespace {

/// The table entry for host `index` of `count`, growing the table to the
/// topology's current host count when the host was added after the pool.
/// Throws std::out_of_range for a host the topology does not have, as the
/// topology accessors do.
Resources& slot(std::vector<Resources>& table, std::size_t index, std::size_t count) {
  if (index >= table.size()) {
    if (index >= count) throw std::out_of_range("HostingPool: no such host");
    table.resize(count);
  }
  return table[index];
}

Resources slot_or_zero(const std::vector<Resources>& table, std::size_t index) {
  return index < table.size() ? table[index] : Resources{};
}

}  // namespace

HostingPool::HostingPool(const alvc::topology::DataCenterTopology& topo)
    : topo_(&topo), server_used_(topo.server_count()), ops_used_(topo.ops_count()) {}

Resources HostingPool::nominal_capacity(const HostRef& host) const {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return topo_->server(*server).capacity;
  }
  const auto& ops = topo_->ops(std::get<OpsId>(host));
  return ops.optoelectronic ? ops.compute : Resources{};
}

Resources& HostingPool::used(const HostRef& host) {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return slot(server_used_, server->index(), topo_->server_count());
  }
  return slot(ops_used_, std::get<OpsId>(host).index(), topo_->ops_count());
}

Resources HostingPool::used_or_zero(const HostRef& host) const {
  if (const auto* server = std::get_if<ServerId>(&host)) {
    return slot_or_zero(server_used_, server->index());
  }
  return slot_or_zero(ops_used_, std::get<OpsId>(host).index());
}

Resources HostingPool::free_capacity(const HostRef& host) const {
  return nominal_capacity(host) - used_or_zero(host);
}

bool HostingPool::fits(const HostRef& host, const Resources& demand) const {
  return demand.fits_within(free_capacity(host));
}

Status HostingPool::reserve(const HostRef& host, const Resources& demand) {
  if (!fits(host, demand)) {
    return Error{ErrorCode::kCapacityExceeded, "host cannot take VNF demand"};
  }
  used(host) += demand;
  return Status::ok();
}

void HostingPool::release(const HostRef& host, const Resources& demand) {
  Resources& u = used(host);
  u -= demand;
  // Clamp against over-release.
  u.cpu_cores = std::max(u.cpu_cores, 0.0);
  u.memory_gb = std::max(u.memory_gb, 0.0);
  u.storage_gb = std::max(u.storage_gb, 0.0);
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
  for (std::size_t i = 0; i < server_used_.size(); ++i) {
    const HostRef host{ServerId{static_cast<ServerId::value_type>(i)}};
    if (!(nominal_capacity(host) - server_used_[i]).non_negative()) return false;
  }
  for (std::size_t i = 0; i < ops_used_.size(); ++i) {
    const HostRef host{OpsId{static_cast<OpsId::value_type>(i)}};
    if (!(nominal_capacity(host) - ops_used_[i]).non_negative()) return false;
  }
  return true;
}

}  // namespace alvc::nfv
