#include "elastic/migration.h"

#include <tuple>

#include "telemetry/telemetry.h"

namespace alvc::elastic {

using alvc::nfv::HostRef;
using alvc::orchestrator::ProvisionedChain;
using alvc::util::NfcId;
using alvc::util::OpsId;
using alvc::util::ServerId;

namespace {

/// Deterministic candidate ordering: coldest first, optical before
/// electronic on ties (the paper's preference), then by id.
using CandidateKey = std::tuple<double, int, std::uint32_t>;

CandidateKey candidate_key(double util, const HostRef& host) {
  if (const auto* ops = std::get_if<OpsId>(&host)) return {util, 0, ops->value()};
  return {util, 1, std::get<ServerId>(host).value()};
}

}  // namespace

std::optional<HostRef> MigrationPlanner::pick_target(const ProvisionedChain& chain,
                                                     std::size_t fi) const {
  const auto* vc = orch_->clusters().find(chain.cluster);
  if (vc == nullptr) return std::nullopt;
  const auto& topo = orch_->clusters().topology();
  const auto& pool = orch_->cloud().pool();
  const auto& desc = orch_->cloud().catalog().descriptor(chain.record.spec.functions[fi]);
  const HostRef current = chain.placement.hosts[fi];

  std::optional<HostRef> best;
  CandidateKey best_key{};
  const auto consider = [&](const HostRef& host) {
    if (host == current) return;
    if (!pool.fits(host, desc.demand)) return;
    const double util = pool.utilization(host);
    if (util >= policy_.hot_utilization) return;  // moving heat, not shedding it
    const CandidateKey key = candidate_key(util, host);
    if (!best || key < best_key) {
      best = host;
      best_key = key;
    }
  };

  for (OpsId ops : vc->layer.opss) {
    if (!topo.ops(ops).optoelectronic || !topo.ops_usable(ops)) continue;
    if (desc.electronic_only) continue;
    consider(HostRef{ops});
  }
  for (alvc::util::TorId tor : vc->layer.tors) {
    if (!topo.tor_usable(tor)) continue;
    for (ServerId server : topo.tor(tor).servers) {
      if (!topo.server_usable(server)) continue;
      consider(HostRef{server});
    }
  }
  return best;
}

std::size_t MigrationPlanner::tick(double now_s) {
  std::vector<std::size_t> attempted;
  return tick(now_s, orch_->chains(), attempted);
}

std::size_t MigrationPlanner::tick(double now_s, std::span<const ProvisionedChain* const> chains,
                                   std::vector<std::size_t>& attempted) {
  const auto& pool = orch_->cloud().pool();
  // No host at or above the threshold means no hot instance anywhere: the
  // scan below would skip every chain, so skip the scan.
  if (pool.peak_utilization() < policy_.hot_utilization) return 0;
  const auto hot = [&](const ProvisionedChain& chain, std::size_t fi) {
    return fi < chain.instances.size() && chain.instances[fi].valid() &&
           pool.utilization(chain.placement.hosts[fi]) >= policy_.hot_utilization;
  };
  std::size_t moves = 0;
  for (std::size_t ci = 0; ci < chains.size(); ++ci) {  // ascending ids
    const ProvisionedChain* chain = chains[ci];
    if (moves >= policy_.max_moves_per_tick) break;
    if (chain->degraded) continue;
    const NfcId id = chain->record.id;
    // Most chains run on no hot host: rule that out before the cooldown
    // lookup. Both tests only skip, so their order changes nothing.
    std::size_t first_hot = 0;
    while (first_hot < chain->placement.hosts.size() && !hot(*chain, first_hot)) ++first_hot;
    if (first_hot == chain->placement.hosts.size()) continue;
    if (const auto it = last_move_s_.find(id);
        it != last_move_s_.end() && now_s - it->second < policy_.cooldown_s) {
      continue;
    }
    for (std::size_t fi = first_hot; fi < chain->placement.hosts.size(); ++fi) {
      if (!hot(*chain, fi)) continue;
      const auto target = pick_target(*chain, fi);
      if (!target) {
        ++stats_.no_target;
        ALVC_COUNT("elastic.migration.no_target");
        continue;
      }
      const CostSnapshot before = UpdateCostLedger::snapshot(*orch_);
      attempted.push_back(ci);
      if (mode_ == ExecutionMode::kIncremental) {
        if (orch_->migrate_function(id, fi, *target).is_ok()) {
          ledger_->charge(ActionKind::kMigration, *orch_, before);
          ++stats_.migrations;
          ALVC_COUNT("elastic.migration.actions");
          last_move_s_[id] = now_s;
          ++moves;
        } else {
          ++stats_.failed;
        }
      } else {
        // Baseline: tear the whole chain down and admit it afresh. `chain`
        // is invalid past this point, so the inner loop must end here.
        const alvc::nfv::NfcSpec spec = chain->record.spec;
        if (!orch_->teardown_chain(id).is_ok()) {
          ++stats_.failed;
          break;
        }
        if (const auto fresh = orch_->provision_chain(spec, *placement_)) {
          ledger_->charge(ActionKind::kReprovision, *orch_, before);
          ++stats_.reprovisions;
          ALVC_COUNT("elastic.migration.reprovisions");
          last_move_s_[*fresh] = now_s;
          if (on_reprovision_) on_reprovision_(id, *fresh);
          ++moves;
        } else {
          ++stats_.lost;  // admission raced away; the log shows the teardown
        }
      }
      break;  // one move per chain per tick
    }
  }
  return moves;
}

}  // namespace alvc::elastic
