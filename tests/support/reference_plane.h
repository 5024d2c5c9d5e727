// The reference control plane: one test-side stand-in for every unscoped
// recovery path, and one harness that replays a fault schedule into a
// production plane and a reference twin and compares them after every
// event.
//
// Each recovery path in src/ is scoped: a restore pass rebuilds only the
// degraded clusters a write listed as stale since their memo, a link
// failure repairs and sweeps only the clusters that can feel the cut, and
// routing serves legs from an epoch-versioned cache. The reference twin
// takes every unscoped path at once, through the same production code:
//   * before each event it forgets every memo, so each restore pass
//     rebuilds every degraded cluster in ascending id (the always-rebuild
//     walk);
//   * it restarts its route caches cold, so every leg it routes is a plain
//     BFS (or a hit on a leg the same event computed);
//   * its link failures repair every cluster whose AL holds the ToR and
//     sweep all their chains (the walk as it ran before it was scoped).
// A scoped path that changes anything but work therefore shows up as a
// divergence, with no second code path in src/. ReferencePlane is the only
// test friend of ClusterManager and NetworkOrchestrator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/al_builder.h"
#include "cluster/cluster_manager.h"
#include "core/alvc.h"
#include "faults/fault_injector.h"
#include "orchestrator/orchestrator.h"
#include "util/error.h"

namespace alvc::test {

struct ReferencePlane {
  // -- Restore bookkeeping (ClusterManager) --

  /// Drops every memo, as remember_rebuild drops the memo of a rebuild
  /// that read beyond its footprint: each degraded cluster loses its memo
  /// and its watch entries and is listed, so the next restore pass
  /// rebuilds every degraded cluster.
  static void forget_all(alvc::cluster::ClusterManager& manager);
  [[nodiscard]] static bool has_memo(const alvc::cluster::ClusterManager& manager,
                                     alvc::util::ClusterId id);
  [[nodiscard]] static std::size_t memo_count(const alvc::cluster::ClusterManager& manager);
  /// The memo's home ToRs (empty without a memo).
  [[nodiscard]] static std::vector<alvc::util::TorId> memo_home_tors(
      const alvc::cluster::ClusterManager& manager, alvc::util::ClusterId id);
  /// Restore passes run so far.
  [[nodiscard]] static std::uint64_t pass_count(const alvc::cluster::ClusterManager& manager);
  /// The listed (stale) clusters, ascending.
  [[nodiscard]] static std::vector<alvc::util::ClusterId> listing(
      const alvc::cluster::ClusterManager& manager);
  /// Clusters that break the restore bookkeeping, ascending: a memo the
  /// watch index does not list under exactly its home ToRs, a memo or a
  /// listing of a cluster that is not degraded, a degraded cluster with
  /// neither a memo nor a listing, and an unlisted memo whose home ToRs
  /// are no longer the cluster's while no pending footprint write names
  /// one of them (the next drain would list it). Invalid stands for a
  /// watch entry no memo accounts for. Empty = sound.
  [[nodiscard]] static std::vector<alvc::util::ClusterId> bookkeeping_violations(
      alvc::cluster::ClusterManager& manager);

  // -- Sweeps (NetworkOrchestrator) --

  /// Ids of the live chains whose sweep verdict is not kNone, ascending:
  /// the chains a full-population sweep would still act on. Every handler
  /// ends with a sweep over its blast radius and a sweep settles what it
  /// visits, so after any handler a chain listed here proves the blast
  /// radius missed it.
  [[nodiscard]] static std::vector<alvc::util::NfcId> unsettled_chains(
      const alvc::orchestrator::NetworkOrchestrator& orchestrator);
  /// The clusters the last fault handler's ClusterManager step reported
  /// touched (its sweep scope).
  [[nodiscard]] static std::span<const alvc::util::ClusterId> last_touched(
      const alvc::orchestrator::NetworkOrchestrator& orchestrator);
  /// Lets the control log take `events` more entries without growing, so
  /// a test that counts heap allocations sees none from the log.
  static void reserve_control_log(alvc::orchestrator::NetworkOrchestrator& orchestrator,
                                  std::size_t events);

  // -- The reference twin --

  /// Restarts the route caches cold, first folding their counters into
  /// `total` (a restart discards them).
  static void cold_restart(alvc::orchestrator::NetworkOrchestrator& orchestrator,
                           alvc::orchestrator::RouteCacheStats& total);

  /// One event on the reference twin: every memo forgotten, the route
  /// caches cold (their counters folded into `cold`), a link failure
  /// through sweep_every_cluster, anything else through apply_fault.
  [[nodiscard]] static alvc::util::Expected<std::size_t> apply(
      alvc::orchestrator::NetworkOrchestrator& orchestrator, const alvc::faults::FaultEvent& event,
      alvc::orchestrator::RouteCacheStats& cold);
  /// The same at the cluster layer: every memo forgotten, a link failure
  /// through repair_every_cluster, anything else through apply_to_manager.
  static void apply(alvc::cluster::ClusterManager& manager, const alvc::cluster::AlBuilder& builder,
                    const alvc::faults::FaultEvent& event);

 private:
  /// ClusterManager::handle_link_failure without the skip: every cluster
  /// whose AL contains `tor` is repaired and appended to `touched`.
  [[nodiscard]] static alvc::util::Expected<alvc::cluster::UpdateCost> repair_every_cluster(
      alvc::cluster::ClusterManager& manager, alvc::util::TorId tor, alvc::util::OpsId ops,
      std::vector<alvc::util::ClusterId>* touched);
  /// NetworkOrchestrator::handle_link_failure over repair_every_cluster:
  /// the same log record, then a sweep over every cluster on the ToR and
  /// the rebalance.
  [[nodiscard]] static alvc::util::Expected<std::size_t> sweep_every_cluster(
      alvc::orchestrator::NetworkOrchestrator& orchestrator, alvc::util::TorId tor,
      alvc::util::OpsId ops);
};

/// One fault event through the manager's own handlers, with `builder` for
/// rebuilds; an infeasible repair leaves a cluster degraded, as in
/// production.
void apply_to_manager(alvc::cluster::ClusterManager& manager,
                      const alvc::cluster::AlBuilder& builder,
                      const alvc::faults::FaultEvent& event);

// -- The comparator --

/// Every cluster (VMs, AL, degraded and connected flags, the memo's home
/// ToRs where both hold one), every OPS owner cell, both pending lists,
/// the ToR index, the mutation epoch and the degraded ids. Restore
/// listings agree, except that with `between_passes` (the reference forgot
/// its memos and no pass has run since) production lists a subset.
void expect_identical_clusters(const alvc::cluster::ClusterManager& production,
                               const alvc::cluster::ClusterManager& reference,
                               bool between_passes = false);
/// Every chain (route, legs, hop split, hosts, rules, reservation,
/// degraded flag and cause, instance validity), every stat, the retry
/// queue, the degraded count and the control-log size.
void expect_identical_chains(const alvc::orchestrator::NetworkOrchestrator& production,
                             const alvc::orchestrator::NetworkOrchestrator& reference);
/// Both of the above.
void expect_identical_planes(const core::DataCenter& production,
                             const core::DataCenter& reference, bool between_passes = false);

/// Production's own invariants: check_invariants and a sound restore
/// bookkeeping at the cluster layer; with the orchestrator, also a clean
/// StateAuditor and no unsettled chain.
void expect_sound(alvc::cluster::ClusterManager& manager);
void expect_sound(core::DataCenter& dc);

// -- The harness --

/// What a replay exercised, counted on the production plane.
struct ReplayTally {
  std::size_t events = 0;
  /// Recoveries that found a rebuild memo on the production plane.
  std::size_t recoveries_with_memos = 0;
  /// Restore passes that ran while a memo'd cluster was unlisted.
  std::size_t skipping_passes = 0;
  /// Link failures that cut a live link, and those that cut a link of some
  /// AL on the ToR.
  std::size_t cuts = 0;
  std::size_t owner_cuts = 0;
  /// Clusters on a cut link's ToR that production left alone, and the
  /// degraded or disconnected ones without the cut OPS that it repaired.
  std::size_t skipped = 0;
  std::size_t unhealthy_non_owners = 0;
  /// Repaired degraded, connected non-owners whose OPSs or degraded flag
  /// the repair changed: an OPS had come free for them since their last
  /// attempt.
  std::size_t degraded_non_owners_recovered = 0;
  /// The reference twin's route-cache counters, restarts folded in.
  alvc::orchestrator::RouteCacheStats cold;

  ReplayTally& operator+=(const ReplayTally& other);
};

/// Replays `schedule` into `production` through apply_fault and into
/// `reference` through ReferencePlane::apply. After every event it
/// requires identical results and planes and a sound production plane;
/// it stops at the first divergence and names its event.
ReplayTally replay(core::DataCenter& production, core::DataCenter& reference,
                   std::span<const alvc::faults::FaultEvent> schedule);

[[nodiscard]] std::string describe(const alvc::faults::FaultEvent& event);

// -- Fabrics and schedules --

/// The 24-rack fabrics of the scoping differentials; one single-function
/// chain per cluster.
///   kStorm: fault_storm's shape, two racks per service, ToR-OPS degree 3
///     over local uplink windows and no OPS core, so every AL augmentation
///     stays among the cluster's own uplinks and most uplinks are in no AL.
///   kHalfRandomCore: three racks per service over half-random uplinks
///     (degree 6, 48 OPSs) and a random-regular OPS core, so rebuilds
///     recruit OPSs through the core.
///   kHalfRandomDegraded: kHalfRandomCore with one rack of every third
///     cluster failed before the schedule starts, so degraded clusters sit
///     on many racks' index lists.
enum class ScopingFabric { kStorm, kHalfRandomCore, kHalfRandomDegraded };
std::unique_ptr<core::DataCenter> make_scoping_fabric(ScopingFabric fabric, std::uint64_t seed);

/// MTBF/MTTR faults on every element class (links failing every
/// `link_mtbf_s`), whole-AL and whole-rack outages and three flapping
/// links, merged in time order, over 60 s.
std::vector<alvc::faults::FaultEvent> make_scoping_schedule(const core::DataCenter& dc,
                                                            std::uint64_t seed,
                                                            double link_mtbf_s);

/// The small fabric of the chaos soak: 6 racks, 16 OPSs at ToR-OPS degree
/// 6, three services, one firewall-NAT chain each. `policy` and
/// `tor_budget_factor` are set before any chain is provisioned.
struct SmallFabricOptions {
  std::optional<alvc::orchestrator::AllocationPolicy> policy;
  std::optional<double> tor_budget_factor;
  double bandwidth_gbps = 1.0;
  alvc::nfv::PriorityClass priority = alvc::nfv::PriorityClass::kHipri;
};
std::unique_ptr<core::DataCenter> make_small_fabric(std::uint64_t seed,
                                                    const SmallFabricOptions& options = {});
/// The chaos soak's schedule: MTBF/MTTR faults on every class over 40 s
/// and a whole-AL outage of the first cluster at 12 s.
std::vector<alvc::faults::FaultEvent> make_small_schedule(const core::DataCenter& dc,
                                                          std::uint64_t seed);

}  // namespace alvc::test
