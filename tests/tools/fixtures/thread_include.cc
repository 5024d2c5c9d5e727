// Fixture: seeded `thread-include` violations. The test feeds this file to
// the linter under synthetic paths in several src/ layers; only telemetry/
// and util/ may include the threading headers.
#include <atomic>  // legal: a process-wide counter needs no lock
#include <thread>  // violation
#include <vector>
#include <mutex>  // violation

int lazy_cache_behind_a_lock() { return 0; }
