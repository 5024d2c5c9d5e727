// Fixture: seeded `footprint-writer` violations. The test lints this file
// under synthetic paths: failure flags, uplink cut flags and the pending
// footprint list may only be written in src/topology/topology.cpp, OPS
// owner cells and the pending owner list only in
// src/cluster/abstraction_layer.cpp.
#include <cstdint>
#include <vector>

struct IdSet {
  bool contains(int id) const;
  void insert(int id);
  void erase(int id);
  void clear();
};

struct Tor {
  bool failed = false;  // legal: a member declaration
};

void flip(Tor& tor, Tor* other, std::vector<std::uint8_t>& uplink_cut) {
  tor.failed = true;  // violation
  other->failed = false;  // violation
  const bool dead = tor.failed == true;  // legal: a read
  uplink_cut[2] = 1;  // violation
  uplink_cut.push_back(0);  // violation
  const bool cut = uplink_cut[2] != 0 || dead;  // legal: a read
  tor.failed = cut;  // alvc-lint: allow(footprint-writer)
}

void own(std::vector<int>& owner_, std::vector<int>& vm_owner_) {
  owner_[0] = 1;  // violation
  owner_.at(1) = 2;  // violation
  vm_owner_[0] = 1;  // legal: another table
  const bool same = owner_[0] == 1;  // legal: a read
  vm_owner_.at(1) = same ? 1 : 0;  // legal
}

void pending(IdSet& footprint_pending_, IdSet& owner_pending_) {
  footprint_pending_.insert(3);  // violation
  footprint_pending_.clear();  // violation
  owner_pending_.insert(3);  // violation
  const bool seen = footprint_pending_.contains(3) == owner_pending_.contains(3);  // legal: a read
  footprint_pending_.erase(seen ? 1 : 0);  // alvc-lint: allow(footprint-writer)
}
