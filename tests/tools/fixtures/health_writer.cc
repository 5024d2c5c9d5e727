// Fixture: seeded `health-writer` violations. The test lints this file
// under synthetic paths: a degraded flag or its cause may be written in
// src/ only on a line that names the rule in an allow comment (the two
// writers, ClusterManager::set_degraded and set_chain_health).
enum class Cause { kNone, kShed };

struct Chain {
  bool degraded = false;  // legal: a member declaration
  Cause degraded_reason = Cause::kNone;  // legal: a member declaration
};

void write(Chain& chain, Chain* other) {
  chain.degraded = true;  // violation
  other->degraded = false;  // violation
  chain.degraded_reason = Cause::kShed;  // violation
  other->degraded_reason = Cause::kNone;  // violation
  const bool same = chain.degraded == other->degraded;  // legal: a read
  const bool none = chain.degraded_reason == Cause::kNone;  // legal: a read
  chain.degraded = same && none;  // alvc-lint: allow(health-writer)
}
