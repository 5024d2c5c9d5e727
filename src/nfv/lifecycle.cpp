#include "nfv/lifecycle.h"

#include <stdexcept>
#include <string>

namespace alvc::nfv {

using alvc::util::Error;
using alvc::util::ErrorCode;

bool transition_allowed(VnfState from, VnfState to) noexcept {
  switch (to) {
    case VnfState::kRequested:
      return false;  // initial state only
    case VnfState::kInstantiating:
      return from == VnfState::kRequested;
    case VnfState::kActive:
      return from == VnfState::kInstantiating || from == VnfState::kScaling ||
             from == VnfState::kUpdating;
    case VnfState::kScaling:
    case VnfState::kUpdating:
      return from == VnfState::kActive;
    case VnfState::kTerminating:
      return from == VnfState::kRequested || from == VnfState::kInstantiating ||
             from == VnfState::kActive;
    case VnfState::kTerminated:
      return from == VnfState::kTerminating;
  }
  return false;
}

VnfInstanceId VnfLifecycleManager::create(VnfId descriptor, HostRef host) {
  const VnfInstanceId id{static_cast<VnfInstanceId::value_type>(instances_.size())};
  instances_.push_back(VnfInstance{.id = id, .descriptor = descriptor, .host = host});
  return id;
}

const VnfInstance& VnfLifecycleManager::instance(VnfInstanceId id) const {
  return instances_.at(id.index());
}

std::size_t VnfLifecycleManager::active_count() const noexcept {
  std::size_t n = 0;
  for (const auto& i : instances_) {
    if (i.state == VnfState::kActive) ++n;
  }
  return n;
}

VnfInstance* VnfLifecycleManager::find(VnfInstanceId id) {
  if (id.index() >= instances_.size()) return nullptr;
  return &instances_[id.index()];
}

Status VnfLifecycleManager::transition(VnfInstanceId id, VnfState to) {
  VnfInstance* inst = find(id);
  if (inst == nullptr) {
    return Error{ErrorCode::kNotFound, "no VNF instance " + std::to_string(id.value())};
  }
  if (!transition_allowed(inst->state, to)) {
    return Error{ErrorCode::kInvalidArgument,
                 std::string("illegal transition ") + std::string(to_string(inst->state)) +
                     " -> " + std::string(to_string(to))};
  }
  ++transitions_[static_cast<std::size_t>(to)];
  inst->state = to;
  return Status::ok();
}

Status VnfLifecycleManager::activate(VnfInstanceId id) {
  if (auto s = transition(id, VnfState::kInstantiating); !s.is_ok()) return s;
  return transition(id, VnfState::kActive);
}

Status VnfLifecycleManager::terminate(VnfInstanceId id) {
  if (auto s = transition(id, VnfState::kTerminating); !s.is_ok()) return s;
  return transition(id, VnfState::kTerminated);
}

Status VnfLifecycleManager::scale(VnfInstanceId id, double factor) {
  if (factor <= 0) return Error{ErrorCode::kInvalidArgument, "scale factor must be positive"};
  if (auto s = transition(id, VnfState::kScaling); !s.is_ok()) return s;
  VnfInstance* inst = find(id);
  if (inst == nullptr) {
    // Unreachable after a successful transition (which resolved the id),
    // but a scale must never dereference an unchecked lookup.
    return Error{ErrorCode::kInternal, "instance vanished mid-scale"};
  }
  inst->scale = factor;
  return transition(id, VnfState::kActive);
}

Status VnfLifecycleManager::update(VnfInstanceId id) {
  if (auto s = transition(id, VnfState::kUpdating); !s.is_ok()) return s;
  return transition(id, VnfState::kActive);
}

}  // namespace alvc::nfv
