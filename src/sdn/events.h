// Unified control-plane event log (paper Fig. 6's management plane).
//
// Every orchestration action — chain provisioning/teardown, slice churn,
// VNF relocation, failure repair — appends a typed, monotonically sequenced
// event. The log is the audit trail operators replay after incidents and
// what the FIG6 bench inspects for ordering integrity.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"

namespace alvc::sdn {

enum class ControlEventType : std::uint8_t {
  kChainProvisioned,
  kChainTornDown,
  kChainRepaired,
  kChainLost,
  kSliceAllocated,
  kSliceReleased,
  kVnfRelocated,
  kOpsFailed,
  kAlRepaired,
  kTorFailed,
  kServerFailed,
  kLinkFailed,
  kOpsRecovered,
  kTorRecovered,
  kServerRecovered,
  kLinkRecovered,
  kChainDegraded,
  kChainRestored,  // keep last: kControlEventTypeCount counts up to it
};
/// Number of event types; ControlPlaneLog keeps one running count each.
inline constexpr std::size_t kControlEventTypeCount =
    static_cast<std::size_t>(ControlEventType::kChainRestored) + 1;

[[nodiscard]] constexpr std::string_view to_string(ControlEventType type) noexcept {
  switch (type) {
    case ControlEventType::kChainProvisioned: return "chain-provisioned";
    case ControlEventType::kChainTornDown: return "chain-torn-down";
    case ControlEventType::kChainRepaired: return "chain-repaired";
    case ControlEventType::kChainLost: return "chain-lost";
    case ControlEventType::kSliceAllocated: return "slice-allocated";
    case ControlEventType::kSliceReleased: return "slice-released";
    case ControlEventType::kVnfRelocated: return "vnf-relocated";
    case ControlEventType::kOpsFailed: return "ops-failed";
    case ControlEventType::kAlRepaired: return "al-repaired";
    case ControlEventType::kTorFailed: return "tor-failed";
    case ControlEventType::kServerFailed: return "server-failed";
    case ControlEventType::kLinkFailed: return "link-failed";
    case ControlEventType::kOpsRecovered: return "ops-recovered";
    case ControlEventType::kTorRecovered: return "tor-recovered";
    case ControlEventType::kServerRecovered: return "server-recovered";
    case ControlEventType::kLinkRecovered: return "link-recovered";
    case ControlEventType::kChainDegraded: return "chain-degraded";
    case ControlEventType::kChainRestored: return "chain-restored";
  }
  return "?";
}

struct ControlEvent {
  /// `peer` of an event that has none.
  static constexpr std::uint32_t kNoPeer = 0xFFFFFFFFu;

  // The sequence and the type share one word, so `peer` costs the log no
  // memory: 2^56 sequence numbers outlast any run.
  std::uint64_t sequence : 56 = 0;
  ControlEventType type : 8 = ControlEventType::kChainProvisioned;
  /// Primary subject (chain id, slice id, OPS id... by type); kInvalid when
  /// not applicable.
  std::uint32_t subject = 0;
  /// Second endpoint of a two-element subject: the OPS of a link event,
  /// whose subject is the ToR. kNoPeer for every other event.
  std::uint32_t peer = kNoPeer;
  std::string detail;
};
static_assert(sizeof(ControlEvent) == 16 + sizeof(std::string),
              "ControlEvent: sequence, type, subject and peer fill 16 bytes");

class ControlPlaneLog {
 public:
  void append(ControlEventType type, std::uint32_t subject, std::string detail = {},
              std::uint32_t peer = ControlEvent::kNoPeer);
  /// Makes room for `events` more entries, so appending that many
  /// allocates nothing.
  void reserve(std::size_t events) { events_.reserve(events_.size() + events); }

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::span<const ControlEvent> events() const noexcept { return events_; }

  /// Events of one type, in order.
  [[nodiscard]] std::vector<ControlEvent> by_type(ControlEventType type) const;
  /// Count of events of one type; O(1) (a running count per type, kept by
  /// append and reset by clear).
  [[nodiscard]] std::size_t count(ControlEventType type) const noexcept;
  /// True when sequence numbers strictly increase (they always should).
  [[nodiscard]] bool is_ordered() const noexcept;

  void clear() noexcept {
    events_.clear();
    counts_.fill(0);
  }

 private:
  std::vector<ControlEvent> events_;
  std::array<std::size_t, kControlEventTypeCount> counts_{};
  std::uint64_t next_sequence_ = 0;
};

}  // namespace alvc::sdn
