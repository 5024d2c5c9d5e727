#include "elastic/scaling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "telemetry/telemetry.h"

namespace alvc::elastic {

using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::ProvisionedChain;
using alvc::util::NfcId;

namespace {
constexpr double kEps = 1e-9;
}

double ScalingController::chain_scale(const NetworkOrchestrator& orch,
                                      const ProvisionedChain& chain) {
  double scale = 0;
  bool any = false;
  for (auto inst : chain.instances) {
    if (!inst.valid()) continue;  // degraded slot
    const double s = orch.cloud().lifecycle().instance(inst).scale;
    scale = any ? std::min(scale, s) : s;
    any = true;
  }
  return any ? scale : 1.0;
}

bool ScalingController::hipri_impaired(std::span<const ProvisionedChain* const> chains) {
  for (const auto* chain : chains) {
    if (chain->record.spec.priority != alvc::nfv::PriorityClass::kHipri) continue;
    if (chain->degraded) return true;
    if (chain->reserved_gbps + kEps < chain->record.spec.bandwidth_gbps) return true;
  }
  return false;
}

std::size_t ScalingController::tick(double now_s) {
  const auto chains = orch_->chains();
  std::vector<double> demand;
  demand.reserve(chains.size());
  for (const auto* chain : chains) demand.push_back(demand_->demand_gbps(chain->record.id, now_s));
  std::vector<double> scale(chains.size());
  return tick(now_s, chains, demand, scale);
}

std::size_t ScalingController::tick(double now_s, std::span<const ProvisionedChain* const> chains,
                                    std::span<const double> demand, std::span<double> scales) {
  // scale_function never erases a chain, so every snapshot pointer stays
  // valid for the whole pass; the snapshot is id-ascending, which keeps the
  // pass order deterministic. The cooldown table is id-ascending too, so
  // one walk beside the snapshot finds each chain's stamp and carries it
  // into the next table; stamps of chains no longer live are left behind.
  const bool impaired = policy_.protect_hipri && hipri_impaired(chains);
  next_action_s_.clear();
  auto stamp = last_action_s_.cbegin();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const ProvisionedChain* chain = chains[i];
    const NfcId id = chain->record.id;
    while (stamp != last_action_s_.cend() && stamp->first < id) ++stamp;  // gone
    const bool stamped = stamp != last_action_s_.cend() && stamp->first == id;
    if (stamped) next_action_s_.push_back(*stamp);
    const double scale = chain_scale(*orch_, *chain);
    scales[i] = scale;
    if (chain->degraded) {
      ++stats_.skipped_degraded;
      continue;
    }
    const double granted = chain->reserved_gbps;
    if (granted <= kEps) continue;
    const double served = granted * scale;

    double target = std::ceil(demand[i] / granted - kEps);
    target = std::clamp(target, 1.0, policy_.max_scale);

    const bool want_out = demand[i] > policy_.scale_out_ratio * served && target > scale;
    const bool want_in = demand[i] < policy_.scale_in_ratio * served && target < scale;
    if (!want_out && !want_in) continue;

    if (want_out && impaired &&
        chain->record.spec.priority == alvc::nfv::PriorityClass::kLopri) {
      ++stats_.deferred_hipri_protect;
      ALVC_COUNT("elastic.scale_out.deferred_hipri");
      continue;
    }
    if (stamped && now_s - stamp->second < policy_.cooldown_s) {
      ++stats_.skipped_cooldown;
      continue;
    }

    const CostSnapshot before = UpdateCostLedger::snapshot(*orch_);
    std::size_t moved = 0;
    for (std::size_t fi = 0; fi < chain->instances.size(); ++fi) {
      if (!chain->instances[fi].valid()) continue;
      if (orch_->scale_function(id, fi, target).is_ok()) {
        ++moved;
      } else {
        ++stats_.rejected;  // e.g. host cannot take the increase
      }
    }
    // Re-read after any attempt, applied or not: the span holds what
    // chain_scale reads, whatever the orchestrator did.
    scales[i] = chain_scale(*orch_, *chain);
    if (moved == 0) continue;
    ledger_->charge(want_out ? ActionKind::kScaleOut : ActionKind::kScaleIn, *orch_, before);
    if (stamped) {
      next_action_s_.back().second = now_s;  // this chain's carried stamp
    } else {
      next_action_s_.emplace_back(id, now_s);
    }
    ++applied;
    if (want_out) {
      ++stats_.scale_outs;
      ALVC_COUNT("elastic.scale_out.actions");
    } else {
      ++stats_.scale_ins;
      ALVC_COUNT("elastic.scale_in.actions");
    }
  }
  last_action_s_.swap(next_action_s_);
  return applied;
}

}  // namespace alvc::elastic
