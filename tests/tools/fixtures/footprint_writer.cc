// Fixture: seeded `footprint-writer` violations. The test lints this file
// under synthetic paths: failure flags and the failed-link set may only be
// written in src/topology/topology.cpp, OPS owner cells only in
// src/cluster/abstraction_layer.cpp.
#include <unordered_set>
#include <vector>

struct Tor {
  bool failed = false;  // legal: a member declaration
};

void flip(Tor& tor, Tor* other, std::unordered_set<int>& failed_links_) {
  tor.failed = true;  // violation
  other->failed = false;  // violation
  const bool dead = tor.failed == true;  // legal: a read
  failed_links_.insert(7);  // violation
  failed_links_.erase(7);  // violation
  const bool cut = failed_links_.contains(7) || dead;  // legal: a read
  tor.failed = cut;  // alvc-lint: allow(footprint-writer)
}

void own(std::vector<int>& owner_, std::vector<int>& vm_owner_) {
  owner_[0] = 1;  // violation
  owner_.at(1) = 2;  // violation
  vm_owner_[0] = 1;  // legal: another table
  const bool same = owner_[0] == 1;  // legal: a read
  vm_owner_.at(1) = same ? 1 : 0;  // legal
}
