// VNF instance lifecycle (paper §IV-B).
//
// The Cloud/NFV manager "is responsible for managing the VNFs during its
// lifetime, such as VNF creation, scaling, termination, and update events".
// We model that as an explicit state machine with legal-transition
// enforcement and a count of committed transitions per target state, which
// the control-plane bench (FIG6) reports.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "nfv/vnf.h"
#include "util/error.h"
#include "util/ids.h"

namespace alvc::nfv {

using alvc::util::Expected;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::Status;
using alvc::util::VnfInstanceId;

/// Where a VNF instance runs: an electronic server or an optoelectronic
/// router in the optical domain (§IV-D).
using HostRef = std::variant<ServerId, OpsId>;

[[nodiscard]] inline bool is_optical_host(const HostRef& host) noexcept {
  return std::holds_alternative<OpsId>(host);
}

enum class VnfState : std::uint8_t {
  kRequested,
  kInstantiating,
  kActive,
  kScaling,
  kUpdating,
  kTerminating,
  kTerminated,
};
inline constexpr std::size_t kVnfStateCount = static_cast<std::size_t>(VnfState::kTerminated) + 1;

[[nodiscard]] constexpr std::string_view to_string(VnfState state) noexcept {
  switch (state) {
    case VnfState::kRequested: return "requested";
    case VnfState::kInstantiating: return "instantiating";
    case VnfState::kActive: return "active";
    case VnfState::kScaling: return "scaling";
    case VnfState::kUpdating: return "updating";
    case VnfState::kTerminating: return "terminating";
    case VnfState::kTerminated: return "terminated";
  }
  return "?";
}

/// Legal transitions:
///   requested -> instantiating -> active
///   active -> scaling -> active
///   active -> updating -> active
///   active | requested | instantiating -> terminating -> terminated
[[nodiscard]] bool transition_allowed(VnfState from, VnfState to) noexcept;

/// A deployed (or deploying) VNF.
struct VnfInstance {
  VnfInstanceId id;
  VnfId descriptor;
  HostRef host;
  VnfState state = VnfState::kRequested;
  /// Scale factor (1 = nominal). Scaling multiplies the resource footprint.
  double scale = 1.0;
};

/// Owns all VNF instances and enforces the state machine. Placement
/// (choosing `host`) happens in the orchestrator; this class tracks state.
class VnfLifecycleManager {
 public:
  /// Creates an instance in kRequested.
  VnfInstanceId create(VnfId descriptor, HostRef host);

  [[nodiscard]] const VnfInstance& instance(VnfInstanceId id) const;
  [[nodiscard]] std::size_t instance_count() const noexcept { return instances_.size(); }
  [[nodiscard]] std::size_t active_count() const noexcept;
  /// Committed transitions into `to` since construction. A refused
  /// transition counts nothing; transition_allowed() fixes the order.
  [[nodiscard]] std::size_t transitions_to(VnfState to) const noexcept {
    return transitions_[static_cast<std::size_t>(to)];
  }

  /// Drives one transition; kInvalidArgument when illegal.
  [[nodiscard]] Status transition(VnfInstanceId id, VnfState to);

  /// Convenience: requested -> instantiating -> active.
  [[nodiscard]] Status activate(VnfInstanceId id);
  /// Convenience: -> terminating -> terminated.
  [[nodiscard]] Status terminate(VnfInstanceId id);
  /// active -> scaling(new factor) -> active.
  [[nodiscard]] Status scale(VnfInstanceId id, double factor);
  /// active -> updating -> active (software update event).
  [[nodiscard]] Status update(VnfInstanceId id);

 private:
  VnfInstance* find(VnfInstanceId id);

  std::vector<VnfInstance> instances_;
  std::array<std::size_t, kVnfStateCount> transitions_{};
};

}  // namespace alvc::nfv
