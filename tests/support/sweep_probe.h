// Test access to NetworkOrchestrator's sweep classifier and control log.
//
// Every fault handler ends with a sweep over its blast radius, and a
// sweep settles whatever it visits. So after any handler returns, a chain
// that still classifies as needing a refit proves the blast radius missed
// it. A differential that asks after every event checks the scoping of
// every sweep, the restore pass's skipped clusters included, against the
// whole chain population.
#pragma once

#include <cstddef>
#include <vector>

#include "orchestrator/orchestrator.h"

namespace alvc::test {

struct SweepProbe {
  /// Ids of the live chains whose sweep verdict is not kNone, ascending by
  /// chain id: the chains a full-population sweep would still act on.
  [[nodiscard]] static std::vector<alvc::util::NfcId> unsettled_chains(
      const alvc::orchestrator::NetworkOrchestrator& orchestrator) {
    std::vector<alvc::util::NfcId> out;
    for (const auto* chain : orchestrator.chains()) {
      const auto id = chain->record.id;
      if (orchestrator.classify_chain(id) !=
          alvc::orchestrator::NetworkOrchestrator::SweepVerdict::kNone) {
        out.push_back(id);
      }
    }
    return out;
  }
  /// Lets the orchestrator's control log take `events` more entries
  /// without growing, so a test that counts heap allocations sees none
  /// from the log.
  static void reserve_control_log(alvc::orchestrator::NetworkOrchestrator& orchestrator,
                                  std::size_t events) {
    orchestrator.log_.reserve(events);
  }
};

}  // namespace alvc::test
