#include "support/reference_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "faults/state_auditor.h"
#include "util/rng.h"

namespace alvc::test {

using alvc::cluster::ClusterManager;
using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultKind;
using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::RouteCacheStats;
using alvc::util::ClusterId;
using alvc::util::NfcId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;

namespace {

/// Adds the counters a cold restart discards.
void fold(RouteCacheStats& total, const RouteCacheStats& s) {
  total.hits += s.hits;
  total.revalidations += s.revalidations;
  total.misses += s.misses;
  total.stale_evictions += s.stale_evictions;
}

}  // namespace

void ReferencePlane::forget_all(ClusterManager& manager) {
  for (ClusterId id : manager.degraded_ids_) {
    manager.forget_rebuild(id);
    manager.note_write(*manager.find_mutable(id));
  }
}

bool ReferencePlane::has_memo(const ClusterManager& manager, ClusterId id) {
  return manager.rebuild_memos_.contains(id);
}

std::size_t ReferencePlane::memo_count(const ClusterManager& manager) {
  return manager.rebuild_memos_.size();
}

std::vector<TorId> ReferencePlane::memo_home_tors(const ClusterManager& manager, ClusterId id) {
  const auto it = manager.rebuild_memos_.find(id);
  return it == manager.rebuild_memos_.end() ? std::vector<TorId>{} : it->second;
}

std::uint64_t ReferencePlane::pass_count(const ClusterManager& manager) {
  return manager.pass_count_;
}

std::vector<ClusterId> ReferencePlane::listing(const ClusterManager& manager) {
  const auto members = manager.stale_.members();
  std::vector<ClusterId> ids(members.begin(), members.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ClusterId> ReferencePlane::bookkeeping_violations(ClusterManager& manager) {
  const auto pending = manager.topology().pending_footprint_tors();
  const auto any_pending = [&](const std::vector<TorId>& tors) {
    return std::any_of(tors.begin(), tors.end(), [&](TorId t) {
      return std::find(pending.begin(), pending.end(), t) != pending.end();
    });
  };
  std::vector<ClusterId> bad;
  std::size_t entries = 0;
  for (const auto& [id, home_tors] : manager.rebuild_memos_) {
    for (TorId t : home_tors) {
      const auto& watchers = manager.tor_watchers_.at(t.index());
      if (std::count(watchers.begin(), watchers.end(), id) != 1) bad.push_back(id);
    }
    entries += home_tors.size();
    const alvc::cluster::VirtualCluster* vc = manager.find(id);
    if (vc == nullptr || !vc->degraded) {
      bad.push_back(id);
    } else if (!manager.stale_.contains(id) && !any_pending(home_tors)) {
      const auto home = manager.collect_home_tors(*vc);
      if (!std::equal(home.begin(), home.end(), home_tors.begin(), home_tors.end())) {
        bad.push_back(id);
      }
    }
  }
  std::size_t listed = 0;
  for (const auto& watchers : manager.tor_watchers_) listed += watchers.size();
  if (listed != entries) bad.push_back(ClusterId::invalid());
  for (ClusterId id : manager.stale_.members()) {
    if (!manager.degraded_ids_.contains(id)) bad.push_back(id);
  }
  for (ClusterId id : manager.degraded_ids_) {
    if (!manager.rebuild_memos_.contains(id) && !manager.stale_.contains(id)) bad.push_back(id);
  }
  std::sort(bad.begin(), bad.end());
  bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
  return bad;
}

std::vector<NfcId> ReferencePlane::unsettled_chains(const NetworkOrchestrator& orchestrator) {
  std::vector<NfcId> out;
  for (const auto* chain : orchestrator.chains()) {
    const NfcId id = chain->record.id;
    if (orchestrator.classify_chain(id) != NetworkOrchestrator::SweepVerdict::kNone) {
      out.push_back(id);
    }
  }
  return out;
}

std::span<const ClusterId> ReferencePlane::last_touched(const NetworkOrchestrator& orchestrator) {
  return orchestrator.touched_;
}

void ReferencePlane::reserve_control_log(NetworkOrchestrator& orchestrator, std::size_t events) {
  orchestrator.log_.reserve(events);
}

alvc::util::Expected<alvc::cluster::UpdateCost> ReferencePlane::repair_every_cluster(
    ClusterManager& manager, TorId tor, OpsId ops, std::vector<ClusterId>* touched) {
  auto& topo = *manager.topo_;
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  if (topo.link_failed(tor, ops)) return alvc::cluster::UpdateCost{};
  if (auto status = topo.set_link_failed(tor, ops, true); !status.is_ok()) {
    return status.error();
  }
  alvc::cluster::UpdateCost cost;
  for (ClusterId id : manager.clusters_containing_tor(tor)) {
    alvc::cluster::VirtualCluster* vc = manager.find_mutable(id);
    if (vc == nullptr) continue;
    if (touched != nullptr) touched->push_back(id);
    if (auto repair = manager.repair_coverage(*vc)) cost += *repair;
  }
  return cost;
}

alvc::util::Expected<std::size_t> ReferencePlane::sweep_every_cluster(
    NetworkOrchestrator& orchestrator, TorId tor, OpsId ops) {
  const auto& topo = orchestrator.clusters_->topology();
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return alvc::util::Error{alvc::util::ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  const auto& uplinks = topo.tor(tor).uplinks;
  if (std::find(uplinks.begin(), uplinks.end(), ops) == uplinks.end()) {
    return alvc::util::Error{alvc::util::ErrorCode::kNotFound, "no such ToR-OPS link"};
  }
  if (topo.link_failed(tor, ops)) return std::size_t{0};
  orchestrator.log_.append(alvc::sdn::ControlEventType::kLinkFailed, tor.value(),
                           alvc::sdn::ControlCause::kNone, ops.value());
  std::vector<ClusterId> touched;
  ALVC_IGNORE_STATUS(repair_every_cluster(*orchestrator.clusters_, tor, ops, &touched),
                     "an infeasible repair leaves the cluster degraded, as in production");
  const std::size_t repaired = orchestrator.sweep_chains(touched);
  orchestrator.rebalance_bandwidth();
  return repaired;
}

void ReferencePlane::cold_restart(NetworkOrchestrator& orchestrator, RouteCacheStats& total) {
  fold(total, orchestrator.aggregate_route_cache_stats());
  orchestrator.set_sharding(orchestrator.shard_count());
}

alvc::util::Expected<std::size_t> ReferencePlane::apply(NetworkOrchestrator& orchestrator,
                                                        const FaultEvent& event,
                                                        RouteCacheStats& cold) {
  forget_all(*orchestrator.clusters_);
  cold_restart(orchestrator, cold);
  if (event.kind == FaultKind::kLink && event.failure) {
    return sweep_every_cluster(orchestrator, TorId{event.id}, OpsId{event.ops});
  }
  return alvc::faults::apply_fault(orchestrator, event);
}

void ReferencePlane::apply(ClusterManager& manager, const alvc::cluster::AlBuilder& builder,
                           const FaultEvent& event) {
  forget_all(manager);
  if (event.kind == FaultKind::kLink && event.failure) {
    ALVC_IGNORE_STATUS(repair_every_cluster(manager, TorId{event.id}, OpsId{event.ops}, nullptr),
                       "an infeasible repair leaves the cluster degraded, as in production");
    return;
  }
  apply_to_manager(manager, builder, event);
}

void apply_to_manager(ClusterManager& manager, const alvc::cluster::AlBuilder& builder,
                      const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kOps:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_ops_failure(OpsId{event.id})
                                       : manager.handle_ops_recovery(OpsId{event.id}, builder),
                         "an infeasible repair leaves the cluster degraded on both twins");
      return;
    case FaultKind::kTor:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_tor_failure(TorId{event.id}, builder)
                                       : manager.handle_tor_recovery(TorId{event.id}, builder),
                         "an infeasible repair leaves the cluster degraded on both twins");
      return;
    case FaultKind::kServer:
      ALVC_IGNORE_STATUS(event.failure ? manager.handle_server_failure(ServerId{event.id})
                                       : manager.handle_server_recovery(ServerId{event.id}),
                         "ids come from the topology the schedule was drawn over");
      return;
    case FaultKind::kLink:
      ALVC_IGNORE_STATUS(
          event.failure ? manager.handle_link_failure(TorId{event.id}, OpsId{event.ops})
                        : manager.handle_link_recovery(TorId{event.id}, OpsId{event.ops}, builder),
          "an infeasible repair leaves the cluster degraded on both twins");
      return;
  }
}

void expect_identical_clusters(const ClusterManager& production, const ClusterManager& reference,
                               bool between_passes) {
  const auto a = production.clusters();
  const auto b = reference.clusters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(a[i]->id.value()));
    ASSERT_EQ(a[i]->id, b[i]->id);
    EXPECT_EQ(a[i]->vms, b[i]->vms);
    EXPECT_EQ(a[i]->layer.tors, b[i]->layer.tors);
    EXPECT_EQ(a[i]->layer.opss, b[i]->layer.opss);
    EXPECT_EQ(a[i]->degraded, b[i]->degraded);
    EXPECT_EQ(a[i]->connected, b[i]->connected);
    if (ReferencePlane::has_memo(production, a[i]->id) &&
        ReferencePlane::has_memo(reference, b[i]->id)) {
      EXPECT_EQ(ReferencePlane::memo_home_tors(production, a[i]->id),
                ReferencePlane::memo_home_tors(reference, b[i]->id));
    }
  }
  const auto& oa = production.ownership();
  const auto& ob = reference.ownership();
  ASSERT_EQ(oa.ops_count(), ob.ops_count());
  for (std::size_t o = 0; o < oa.ops_count(); ++o) {
    const OpsId ops{static_cast<std::uint32_t>(o)};
    EXPECT_EQ(oa.owner(ops), ob.owner(ops)) << "OPS " << o;
  }
  const auto owner_changes = [](const ClusterManager& m) {
    const auto pending = m.ownership().pending_owner_changes();
    return std::vector<OpsId>(pending.begin(), pending.end());
  };
  const auto footprint_writes = [](const ClusterManager& m) {
    const auto pending = m.topology().pending_footprint_tors();
    return std::vector<TorId>(pending.begin(), pending.end());
  };
  EXPECT_EQ(owner_changes(production), owner_changes(reference));
  EXPECT_EQ(footprint_writes(production), footprint_writes(reference));
  const auto& topo = production.topology();
  for (std::size_t t = 0; t < topo.tor_count(); ++t) {
    const TorId tor{static_cast<std::uint32_t>(t)};
    EXPECT_EQ(production.clusters_containing_tor(tor), reference.clusters_containing_tor(tor))
        << "ToR " << t;
  }
  EXPECT_EQ(topo.mutation_epoch(), reference.topology().mutation_epoch());
  EXPECT_EQ(production.degraded_cluster_ids(), reference.degraded_cluster_ids());
  const auto listed = ReferencePlane::listing(production);
  const auto reference_listed = ReferencePlane::listing(reference);
  if (between_passes) {
    EXPECT_TRUE(std::includes(reference_listed.begin(), reference_listed.end(), listed.begin(),
                              listed.end()));
  } else {
    EXPECT_EQ(listed, reference_listed);
  }
  EXPECT_EQ(reference.check_invariants(), std::vector<std::string>{});
}

void expect_identical_chains(const NetworkOrchestrator& production,
                             const NetworkOrchestrator& reference) {
  const auto a = production.chains();
  const auto b = reference.chains();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("chain " + std::to_string(a[i]->record.id.value()));
    ASSERT_EQ(a[i]->record.id, b[i]->record.id);
    EXPECT_EQ(a[i]->route.vertices, b[i]->route.vertices);
    EXPECT_EQ(a[i]->route.legs, b[i]->route.legs);
    EXPECT_EQ(a[i]->route.optical_hops, b[i]->route.optical_hops);
    EXPECT_EQ(a[i]->route.electronic_hops, b[i]->route.electronic_hops);
    EXPECT_EQ(a[i]->placement.hosts, b[i]->placement.hosts);
    EXPECT_EQ(a[i]->flow_rules, b[i]->flow_rules);
    EXPECT_DOUBLE_EQ(a[i]->reserved_gbps, b[i]->reserved_gbps);
    EXPECT_EQ(a[i]->degraded, b[i]->degraded);
    EXPECT_EQ(a[i]->degraded_reason, b[i]->degraded_reason);
    ASSERT_EQ(a[i]->instances.size(), b[i]->instances.size());
    for (std::size_t f = 0; f < a[i]->instances.size(); ++f) {
      EXPECT_EQ(a[i]->instances[f].valid(), b[i]->instances[f].valid()) << "function " << f;
    }
  }
  const auto& sa = production.stats();
  const auto& sb = reference.stats();
  EXPECT_EQ(sa.chains_provisioned, sb.chains_provisioned);
  EXPECT_EQ(sa.chains_torn_down, sb.chains_torn_down);
  EXPECT_EQ(sa.provision_failures, sb.provision_failures);
  EXPECT_EQ(sa.chains_repaired, sb.chains_repaired);
  EXPECT_EQ(sa.chains_lost, sb.chains_lost);
  EXPECT_EQ(sa.vnfs_relocated, sb.vnfs_relocated);
  EXPECT_EQ(sa.chains_degraded, sb.chains_degraded);
  EXPECT_EQ(sa.chains_restored, sb.chains_restored);
  EXPECT_EQ(sa.chains_admitted_downgraded, sb.chains_admitted_downgraded);
  EXPECT_EQ(sa.alloc_rebalances, sb.alloc_rebalances);
  EXPECT_EQ(sa.alloc_downgrades, sb.alloc_downgrades);
  EXPECT_EQ(sa.alloc_restores, sb.alloc_restores);
  EXPECT_EQ(production.retry_queue_size(), reference.retry_queue_size());
  EXPECT_EQ(production.degraded_chain_count(), reference.degraded_chain_count());
  EXPECT_EQ(production.control_log().size(), reference.control_log().size());
}

void expect_identical_planes(const core::DataCenter& production, const core::DataCenter& reference,
                             bool between_passes) {
  expect_identical_clusters(production.clusters(), reference.clusters(), between_passes);
  expect_identical_chains(production.orchestrator(), reference.orchestrator());
}

void expect_sound(ClusterManager& manager) {
  EXPECT_EQ(manager.check_invariants(), std::vector<std::string>{});
  EXPECT_EQ(ReferencePlane::bookkeeping_violations(manager), std::vector<ClusterId>{});
}

void expect_sound(core::DataCenter& dc) {
  expect_sound(dc.clusters());
  EXPECT_EQ(alvc::faults::StateAuditor::audit(dc.orchestrator()), std::vector<std::string>{});
  EXPECT_EQ(ReferencePlane::unsettled_chains(dc.orchestrator()), std::vector<NfcId>{})
      << "a chain outside the event's sweep scope still needs a sweep";
}

ReplayTally& ReplayTally::operator+=(const ReplayTally& other) {
  events += other.events;
  recoveries_with_memos += other.recoveries_with_memos;
  skipping_passes += other.skipping_passes;
  cuts += other.cuts;
  owner_cuts += other.owner_cuts;
  skipped += other.skipped;
  unhealthy_non_owners += other.unhealthy_non_owners;
  degraded_non_owners_recovered += other.degraded_non_owners_recovered;
  fold(cold, other.cold);
  return *this;
}

std::string describe(const FaultEvent& event) {
  return "t=" + std::to_string(event.time_s) + " " +
         std::string(alvc::faults::to_string(event.kind)) + " id=" + std::to_string(event.id) +
         (event.kind == FaultKind::kLink ? " ops=" + std::to_string(event.ops) : "") +
         (event.failure ? " failure" : " repair");
}

namespace {

/// A cut of a live link as production sees it before the event: the
/// clusters on the ToR's index list and which of them hold the cut OPS or
/// are unhealthy.
struct Cut {
  std::vector<ClusterId> holders;
  std::vector<bool> owner;
  std::vector<bool> unhealthy;
  /// The AL's OPSs of each degraded, connected non-owner.
  std::vector<std::optional<std::vector<OpsId>>> degraded_opss;
};

std::optional<Cut> live_cut(const ClusterManager& manager, const FaultEvent& event) {
  if (event.kind != FaultKind::kLink || !event.failure) return std::nullopt;
  const TorId tor{event.id};
  const OpsId ops{event.ops};
  if (manager.topology().link_failed(tor, ops)) return std::nullopt;
  Cut cut;
  cut.holders = manager.clusters_containing_tor(tor);
  for (ClusterId id : cut.holders) {
    const auto& vc = *manager.find(id);
    cut.owner.push_back(vc.layer.contains_ops(ops));
    cut.unhealthy.push_back(vc.degraded || !vc.connected);
    const bool degraded_non_owner = !cut.owner.back() && vc.degraded && vc.connected;
    cut.degraded_opss.push_back(degraded_non_owner ? std::optional(vc.layer.opss) : std::nullopt);
  }
  return cut;
}

}  // namespace

ReplayTally replay(core::DataCenter& production, core::DataCenter& reference,
                   std::span<const FaultEvent> schedule) {
  ReplayTally tally;
  ClusterManager& clusters = production.clusters();
  for (const FaultEvent& event : schedule) {
    ++tally.events;
    if (!event.failure && ReferencePlane::memo_count(clusters) > 0) ++tally.recoveries_with_memos;
    const std::uint64_t passes = ReferencePlane::pass_count(clusters);
    const bool memos_unlisted =
        ReferencePlane::listing(clusters).size() < clusters.degraded_cluster_ids().size();
    const std::optional<Cut> cut = live_cut(clusters, event);

    const auto ra = alvc::faults::apply_fault(production.orchestrator(), event);
    const auto rb = ReferencePlane::apply(reference.orchestrator(), event, tally.cold);
    EXPECT_EQ(ra.has_value(), rb.has_value());
    if (ra.has_value() && rb.has_value()) {
      EXPECT_EQ(*ra, *rb);
    }

    const bool after_pass = ReferencePlane::pass_count(clusters) != passes;
    if (after_pass && memos_unlisted) ++tally.skipping_passes;
    if (cut.has_value()) {
      ++tally.cuts;
      const auto touched = ReferencePlane::last_touched(production.orchestrator());
      for (std::size_t i = 0; i < cut->holders.size(); ++i) {
        if (std::find(touched.begin(), touched.end(), cut->holders[i]) == touched.end()) {
          ++tally.skipped;
        } else if (!cut->owner[i] && cut->unhealthy[i]) {
          ++tally.unhealthy_non_owners;
          const auto& vc = *clusters.find(cut->holders[i]);
          if (cut->degraded_opss[i].has_value() &&
              (vc.layer.opss != *cut->degraded_opss[i] || !vc.degraded)) {
            ++tally.degraded_non_owners_recovered;
          }
        }
      }
      if (std::find(cut->owner.begin(), cut->owner.end(), true) != cut->owner.end()) {
        ++tally.owner_cuts;
      }
    }

    expect_identical_planes(production, reference, /*between_passes=*/!after_pass);
    expect_sound(production);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at " << describe(event);
      return tally;
    }
  }
  EXPECT_EQ(alvc::faults::StateAuditor::audit(reference.orchestrator()),
            std::vector<std::string>{});
  return tally;
}

std::unique_ptr<core::DataCenter> make_scoping_fabric(ScopingFabric fabric, std::uint64_t seed) {
  constexpr std::uint32_t kRacks = 24;
  const bool storm = fabric == ScopingFabric::kStorm;
  core::DataCenterConfig config;
  config.topology.rack_count = kRacks;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = storm ? kRacks : 2 * kRacks;
  config.topology.tor_ops_degree = storm ? 3 : 6;
  config.topology.uplink_locality = storm ? 1.0 : 0.5;
  config.topology.core = storm ? topology::CoreKind::kNone : topology::CoreKind::kRandomRegular;
  config.topology.optoelectronic_fraction = 0.5;
  config.topology.service_count = storm ? kRacks / 2 : kRacks / 3;
  config.topology.server_local_services = true;
  config.topology.seed = 20160627 + seed;
  config.seed = seed;
  auto dc = std::make_unique<core::DataCenter>(config);
  auto clusters = dc->build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  for (std::uint32_t s = 0; s < config.topology.service_count; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = 1.0 + s % 2;
    spec.functions = {*dc->catalog().find_by_type(nfv::VnfType::kFirewall)};
    ALVC_IGNORE_STATUS(dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: a capacity conflict just means one chain fewer");
  }
  if (fabric == ScopingFabric::kHalfRandomDegraded) {
    const auto all = dc->clusters().clusters();
    for (std::size_t i = 0; i < all.size(); i += 3) {
      if (all[i]->layer.tors.empty()) continue;
      ALVC_IGNORE_STATUS(dc->orchestrator().handle_tor_failure(all[i]->layer.tors.back()),
                         "the rack id comes from a live AL");
    }
  }
  return dc;
}

std::vector<FaultEvent> make_scoping_schedule(const core::DataCenter& dc, std::uint64_t seed,
                                              double link_mtbf_s) {
  constexpr double kHorizonS = 60;
  alvc::faults::FaultScheduleParams params;
  params.ops = {.mtbf_s = 60, .mttr_s = 8};
  params.tor = {.mtbf_s = 120, .mttr_s = 8};
  params.server = {.mtbf_s = 150, .mttr_s = 6};
  params.link = {.mtbf_s = link_mtbf_s, .mttr_s = 5};
  params.horizon_s = kHorizonS;
  params.seed = seed;
  std::vector<FaultEvent> events = FaultInjector::generate(dc.topology(), params);
  const auto append = [&](const std::vector<FaultEvent>& more) {
    for (const FaultEvent& e : more) {
      if (e.time_s < kHorizonS) events.push_back(e);
    }
  };
  const std::size_t racks = dc.topology().tor_count();
  util::Rng rng(seed * 31 + 7);
  const auto clusters = dc.clusters().clusters();
  for (double t = 7; t < kHorizonS; t += 15) {
    append(FaultInjector::whole_al(*clusters[rng.uniform_index(clusters.size())], t, 8, 0.5));
  }
  for (double t = 11; t < kHorizonS; t += 20) {
    const TorId tor{static_cast<std::uint32_t>(rng.uniform_index(racks))};
    append(FaultInjector::whole_rack(dc.topology(), tor, t, 6));
  }
  for (int i = 0; i < 3; ++i) {
    const auto tor = static_cast<std::uint32_t>(rng.uniform_index(racks));
    const auto& uplinks = dc.topology().tor(TorId{tor}).uplinks;
    const std::uint32_t ops = uplinks[rng.uniform_index(uplinks.size())].value();
    for (double t = rng.uniform(0, 4); t + 1 < kHorizonS; t += 4) {
      events.push_back({.time_s = t, .kind = FaultKind::kLink, .failure = true, .id = tor,
                        .ops = ops});
      events.push_back({.time_s = t + 1, .kind = FaultKind::kLink, .failure = false, .id = tor,
                        .ops = ops});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

std::unique_ptr<core::DataCenter> make_small_fabric(std::uint64_t seed,
                                                    const SmallFabricOptions& options) {
  core::DataCenterConfig config;
  config.topology.rack_count = 6;
  config.topology.servers_per_rack = 2;
  config.topology.vms_per_server = 2;
  config.topology.ops_count = 16;
  config.topology.tor_ops_degree = 6;
  config.topology.optoelectronic_fraction = 0.75;
  config.topology.service_count = 3;
  config.topology.seed = seed * 7 + 1;
  config.seed = seed;
  auto dc = std::make_unique<core::DataCenter>(config);
  auto clusters = dc->build_clusters();
  if (!clusters.has_value()) throw std::runtime_error(clusters.error().to_string());
  if (options.policy.has_value()) dc->orchestrator().set_allocation_policy(*options.policy);
  if (options.tor_budget_factor.has_value()) {
    dc->orchestrator().set_tor_budget_factor(*options.tor_budget_factor);
  }
  for (std::uint32_t s = 0; s < 3; ++s) {
    nfv::NfcSpec spec;
    spec.service = util::ServiceId{s};
    spec.name = "chain-" + std::to_string(s);
    spec.bandwidth_gbps = options.bandwidth_gbps;
    spec.priority = options.priority;
    spec.functions = {*dc->catalog().find_by_type(nfv::VnfType::kFirewall),
                      *dc->catalog().find_by_type(nfv::VnfType::kNat)};
    ALVC_IGNORE_STATUS(dc->provision_chain(spec, core::PlacementAlgorithm::kGreedyOptical),
                       "warm-up: capacity conflicts just mean fewer live chains");
  }
  return dc;
}

std::vector<FaultEvent> make_small_schedule(const core::DataCenter& dc, std::uint64_t seed) {
  alvc::faults::FaultScheduleParams params;
  params.ops = {.mtbf_s = 35, .mttr_s = 7};
  params.tor = {.mtbf_s = 55, .mttr_s = 6};
  params.server = {.mtbf_s = 45, .mttr_s = 5};
  params.link = {.mtbf_s = 40, .mttr_s = 6};
  params.horizon_s = 40;
  params.seed = seed;
  auto events = FaultInjector::generate(dc.topology(), params);
  const auto* vc0 = dc.clusters().clusters().front();
  if (!vc0->layer.opss.empty()) {
    auto scripted = FaultInjector::whole_al(*vc0, 12.0, 8.0, 0.5);
    events.insert(events.end(), scripted.begin(), scripted.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

}  // namespace alvc::test
