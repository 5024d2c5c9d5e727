#include "sdn/events.h"

namespace alvc::sdn {

void ControlPlaneLog::append(ControlEventType type, std::uint32_t subject, ControlCause cause,
                             std::uint32_t arg) {
  events_.push_back(ControlEvent{.sequence = next_sequence_++,
                                 .type = type,
                                 .cause = cause,
                                 .subject = subject,
                                 .arg = arg});
  ++counts_[static_cast<std::size_t>(type)];
}

std::vector<ControlEvent> ControlPlaneLog::by_type(ControlEventType type) const {
  std::vector<ControlEvent> out;
  for (const auto& e : events_) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

std::size_t ControlPlaneLog::count(ControlEventType type) const noexcept {
  return counts_[static_cast<std::size_t>(type)];
}

bool ControlPlaneLog::is_ordered() const noexcept {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].sequence <= events_[i - 1].sequence) return false;
  }
  return true;
}

}  // namespace alvc::sdn
