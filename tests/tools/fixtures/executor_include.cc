// Fixture: a seeded `executor-include` violation. The test feeds this file
// to the linter under synthetic paths in several src/ layers; only util/
// (the pool itself) may include the thread pool.
#include "util/executor.h"  // violation (outside src/util/)

int control_plane_forking_workers() { return 0; }
