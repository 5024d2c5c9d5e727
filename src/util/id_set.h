// A set of dense ids (util/ids.h) that lists its members.
//
// Insert, erase and membership are O(1) array operations, and members()
// walks only the members, not the id range. Slots grow on demand; once the
// slot table and the member list have grown, no operation allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace alvc::util {

template <typename Id>
class IdSet {
 public:
  [[nodiscard]] bool contains(Id id) const noexcept {
    return id.index() < slot_.size() && slot_[id.index()] != 0;
  }
  /// The members, in insertion order until an erase moves the last one
  /// into the erased one's place.
  [[nodiscard]] std::span<const Id> members() const noexcept { return members_; }

  void insert(Id id) {
    const std::size_t i = id.index();
    if (i >= slot_.size()) slot_.resize(i + 1, 0);  // sizing, not id arithmetic
    if (slot_[i] != 0) return;
    members_.push_back(id);
    slot_[i] = static_cast<std::uint32_t>(members_.size());
  }
  void erase(Id id) noexcept {
    if (!contains(id)) return;
    const std::uint32_t slot = slot_[id.index()];
    const Id last = members_.back();
    members_[slot - 1] = last;
    slot_[last.index()] = slot;
    members_.pop_back();
    slot_[id.index()] = 0;
  }
  void clear() noexcept {
    for (Id id : members_) slot_[id.index()] = 0;
    members_.clear();
  }

 private:
  std::vector<std::uint32_t> slot_;  // id.index() -> 1 + position in members_ (0 = absent)
  std::vector<Id> members_;
};

}  // namespace alvc::util
