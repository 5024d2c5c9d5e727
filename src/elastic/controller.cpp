#include "elastic/controller.h"

#include <vector>

#include "telemetry/telemetry.h"

namespace alvc::elastic {

using alvc::nfv::PriorityClass;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::PlacementStrategy;
using alvc::orchestrator::ProvisionedChain;
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
  // One id-ascending snapshot, one demand evaluation and one scale read
  // per chain serve every phase; demand is a pure function of
  // (chain, now_s), and only an actuation changes a chain's scale.
  std::vector<const ProvisionedChain*> chains;
  std::vector<double> demand;
  std::vector<double> scale;
  {
    // 1. Sync the tracked set with the live chain population.
    ALVC_SPAN(span, "elastic.tick.sync");
    chains = orch_->chains();
    demand = demand_.sync(chains, now_s);
  }
  {
    // 2. Scale. Never adds or removes a chain; leaves every chain's scale
    // factor in `scale`.
    ALVC_SPAN(span, "elastic.tick.scale");
    scale.resize(chains.size());
    scaling_.tick(now_s, chains, demand, scale);
  }
  {
    // 3. Migrate. An incremental move redeploys at scale 1, so the chains
    // it tried are read again. A reprovision swaps a chain for a new one,
    // so observe needs a fresh snapshot then. The tracked set is left to
    // the next sync: the reprovision hook already moved the series over,
    // and a chain lost on re-admission is forgotten there as before.
    ALVC_SPAN(span, "elastic.tick.migrate");
    const MigrationStats before = migration_.stats();
    std::vector<std::size_t> attempted;
    migration_.tick(now_s, chains, attempted);
    const MigrationStats& after = migration_.stats();
    if (after.reprovisions != before.reprovisions || after.lost != before.lost) {
      chains = orch_->chains();
      demand.clear();
      scale.clear();
      for (const auto* chain : chains) {
        demand.push_back(demand_.demand_gbps(chain->record.id, now_s));
        scale.push_back(ScalingController::chain_scale(*orch_, *chain));
      }
    } else {
      for (const std::size_t i : attempted) {
        scale[i] = ScalingController::chain_scale(*orch_, *chains[i]);
      }
    }
  }

  // 4. Observe: SLO accounting and per-class gauges, in ascending id order.
  ALVC_SPAN(span, "elastic.tick.observe");
  double demand_hipri = 0, demand_lopri = 0, granted_hipri = 0, granted_lopri = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const ProvisionedChain* chain = chains[i];
    const double served = chain->reserved_gbps * scale[i];
    ++stats_.chain_observations;
    if (demand[i] > served + kEps) ++stats_.slo_violations;
    if (chain->record.spec.priority == PriorityClass::kHipri) {
      demand_hipri += demand[i];
      granted_hipri += chain->reserved_gbps;
    } else {
      demand_lopri += demand[i];
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
