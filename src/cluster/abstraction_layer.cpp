#include "cluster/abstraction_layer.h"

#include <algorithm>

namespace alvc::cluster {

using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::Status;

bool AbstractionLayer::contains_ops(OpsId id) const noexcept {
  return std::find(opss.begin(), opss.end(), id) != opss.end();
}

bool AbstractionLayer::contains_tor(TorId id) const noexcept {
  return std::find(tors.begin(), tors.end(), id) != tors.end();
}

std::size_t OpsOwnership::free_count() const noexcept {
  std::size_t n = 0;
  for (const auto& o : owner_) {
    if (!o.valid()) ++n;
  }
  return n;
}

Status OpsOwnership::acquire(std::span<const OpsId> opss, ClusterId cluster) {
  for (OpsId id : opss) {
    const ClusterId current = owner_.at(id.index());
    if (current.valid() && current != cluster) {
      return Error{ErrorCode::kConflict,
                   "OPS " + std::to_string(id.value()) + " already owned by cluster " +
                       std::to_string(current.value())};
    }
  }
  for (OpsId id : opss) {
    if (owner_[id.index()] != cluster) set_owner(id, cluster);
  }
  return Status::ok();
}

void OpsOwnership::release(std::span<const OpsId> opss, ClusterId cluster) {
  for (OpsId id : opss) {
    if (owner_.at(id.index()) == cluster) set_owner(id, ClusterId::invalid());
  }
}

void OpsOwnership::set_owner(OpsId id, ClusterId owner) {
  owner_[id.index()] = owner;
  owner_pending_.insert(id);
}

void OpsOwnership::clear_pending_owner_changes() noexcept { owner_pending_.clear(); }

std::vector<OpsId> OpsOwnership::free_ops() const {
  std::vector<OpsId> out;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (!owner_[i].valid()) out.push_back(OpsId{static_cast<OpsId::value_type>(i)});
  }
  return out;
}

}  // namespace alvc::cluster
