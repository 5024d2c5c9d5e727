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

/// Why a record was written, where its type alone does not say; kNone
/// for every other record.
enum class ControlCause : std::uint8_t {
  kNone,
  kAdmittedReduced,            // degraded: admitted at a reduced rung under overload
  kRefitInfeasible,            // degraded: full-bandwidth refit infeasible after a failure
  kShedByAllocator,            // degraded: bandwidth shed by the allocator under overload
  kRestoredByRetry,            // restored: a retry refitted the chain at full bandwidth
  kRestoredByRebalance,        // restored: a rebalance grew the chain back to full demand
  kOperatorMigration,          // relocated: operator-driven migration
  kFailureRelocation,          // relocated: moved off failed hardware
  kAlRepairedAfterTorFailure,  // AL repaired: the failure was a ToR's
};

struct ControlEvent {
  /// `arg` of an event that has no number.
  static constexpr std::uint32_t kNoArg = 0xFFFFFFFFu;

  // Sequence, type and cause share one word: 2^48 sequence numbers outlast any run.
  std::uint64_t sequence : 48 = 0;
  ControlEventType type : 8 = ControlEventType::kChainProvisioned;
  ControlCause cause : 8 = ControlCause::kNone;
  /// Primary subject (chain id, slice id, OPS id... by type); kInvalid when
  /// not applicable.
  std::uint32_t subject = 0;
  /// The record's number: a link event's OPS (its subject is the ToR), a
  /// relocation's function index, a health record's served percent.
  std::uint32_t arg = kNoArg;
};
static_assert(sizeof(ControlEvent) == 16, "ControlEvent: one word, then subject and arg");

class ControlPlaneLog {
 public:
  void append(ControlEventType type, std::uint32_t subject,
              ControlCause cause = ControlCause::kNone, std::uint32_t arg = ControlEvent::kNoArg);
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
