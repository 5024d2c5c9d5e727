#include "elastic/controller.h"

#include <vector>

#include "telemetry/telemetry.h"

namespace alvc::elastic {

using alvc::nfv::PriorityClass;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::PlacementStrategy;
using alvc::util::NfcId;

namespace {
constexpr double kEps = 1e-9;
}

ElasticController::ElasticController(NetworkOrchestrator& orch, const PlacementStrategy& placement,
                                     const ElasticParams& params)
    : orch_(&orch),
      demand_(params.demand),
      ledger_(params.cost),
      scaling_(orch, demand_, ledger_, params.scaling),
      migration_(orch, ledger_, placement, params.migration, params.mode) {
  // Reprovisioning retires the chain id; carry the demand series over so
  // the new incarnation is observed from its next tick.
  migration_.set_on_reprovision([this](NfcId old_id, NfcId new_id) {
    demand_.forget(old_id);
    if (const auto* chain = orch_->chain(new_id)) {
      demand_.track(new_id, chain->record.spec.bandwidth_gbps);
    }
  });
}

void ElasticController::tick(double now_s) {
  // 1. Sync the tracked set with the live chain population.
  for (const auto* chain : orch_->chains()) {
    if (!demand_.tracked(chain->record.id)) {
      demand_.track(chain->record.id, chain->record.spec.bandwidth_gbps);
    }
  }
  std::vector<NfcId> stale;
  for (const auto& [id, series] : demand_.series()) {
    if (orch_->chain(id) == nullptr) stale.push_back(id);
  }
  for (NfcId id : stale) demand_.forget(id);

  // 2. + 3. Actuate.
  scaling_.tick(now_s);
  migration_.tick(now_s);

  // 4. Observe: SLO accounting and per-class gauges, in ascending id order
  // (chains() is sorted).
  double demand_hipri = 0, demand_lopri = 0, granted_hipri = 0, granted_lopri = 0;
  for (const auto* chain : orch_->chains()) {
    const double demand = demand_.demand_gbps(chain->record.id, now_s);
    const double served = chain->reserved_gbps * ScalingController::chain_scale(*orch_, *chain);
    ++stats_.chain_observations;
    if (demand > served + kEps) ++stats_.slo_violations;
    if (chain->record.spec.priority == PriorityClass::kHipri) {
      demand_hipri += demand;
      granted_hipri += chain->reserved_gbps;
    } else {
      demand_lopri += demand;
      granted_lopri += chain->reserved_gbps;
    }
  }
  ALVC_GAUGE_SET("elastic.demand_gbps.hipri", demand_hipri);
  ALVC_GAUGE_SET("elastic.demand_gbps.lopri", demand_lopri);
  ALVC_GAUGE_SET("elastic.granted_gbps.hipri", granted_hipri);
  ALVC_GAUGE_SET("elastic.granted_gbps.lopri", granted_lopri);

  ++stats_.ticks;
  ALVC_COUNT("elastic.controller.ticks");
}

}  // namespace alvc::elastic
