// The network orchestrator (paper §IV-B, Figs. 6-7).
//
// "On top of this architecture, we proposed a network orchestrator for
// multiple-tenant SDN-enabled networks. It is responsible for managing
// (provisioning, creation, modification, upgradation, and deletion) of
// multiple NFCs. It will logically divide the optical network into virtual
// slices and allocate each slice to a single NFC."
//
// NetworkOrchestrator composes every substrate:
//   ClusterManager  — VCs + ALs, OPS exclusivity            (§III)
//   SliceManager    — AL <-> NFC bijection                  (§IV-C)
//   AdmissionController — can this slice serve this chain?
//   PlacementStrategy   — hosts for each VNF                (§IV-D)
//   CloudNfvManager — lifecycle + capacity                  (§IV-B)
//   ChainRouter     — slice-internal forwarding path
//   SdnController   — flow-rule installation                (§IV-B)
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_manager.h"
#include "nfv/catalog.h"
#include "nfv/nfc.h"
#include "orchestrator/admission.h"
#include "orchestrator/allocation_index.h"
#include "orchestrator/control_agent.h"
#include "orchestrator/bandwidth.h"
#include "orchestrator/bandwidth_allocator.h"
#include "orchestrator/oeo.h"
#include "orchestrator/placement.h"
#include "orchestrator/route_cache.h"
#include "orchestrator/routing.h"
#include "orchestrator/slice.h"
#include "sdn/cloud_manager.h"
#include "sdn/controller.h"
#include "sdn/events.h"

namespace alvc::orchestrator {

using alvc::util::NfcId;

/// Everything the orchestrator knows about a live chain.
struct ProvisionedChain {
  alvc::nfv::NfcRecord record;
  alvc::util::ClusterId cluster;
  SliceId slice;
  std::vector<alvc::nfv::VnfInstanceId> instances;
  PlacementResult placement;
  ChainRoute route;
  std::size_t flow_rules = 0;  // rules the SDN controller installed
  /// Set for complex chains (paper's "network forwarding graph"); the
  /// record's linear spec then lists functions in topological order and
  /// placement.hosts[i] hosts graph node forwarding_order[i].
  std::optional<alvc::nfv::ForwardingGraph> graph;
  std::vector<std::size_t> forwarding_order;  // topo order used for placement
  /// Bandwidth currently held on `route` — equals the spec's demand for a
  /// healthy chain, less (possibly zero) for a degraded one.
  double reserved_gbps = 0;
  /// Degraded mode: repair was infeasible *now*, so the chain is parked —
  /// kept alive at reduced (possibly zero) bandwidth, instances on dead
  /// hardware terminated (those slots hold invalid ids) — instead of being
  /// torn down. The retry queue re-provisions it on recovery events.
  bool degraded = false;
  std::string degraded_reason;
};

struct OrchestratorStats {
  std::size_t chains_provisioned = 0;
  std::size_t chains_torn_down = 0;
  std::size_t provision_failures = 0;
  std::size_t chains_repaired = 0;   // refitted at full bandwidth after a failure
  /// Always 0: no handler tears a chain down — an unrepairable chain stays
  /// live in degraded mode. Kept because reports and benchmarks read it.
  std::size_t chains_lost = 0;
  std::size_t vnfs_relocated = 0;    // instances moved off failed hardware
  std::size_t chains_degraded = 0;   // entered degraded mode (cumulative)
  std::size_t chains_restored = 0;   // left degraded mode at full bandwidth
  // QoS allocator activity (zero under kStrictLadder):
  std::size_t chains_admitted_downgraded = 0;  // admitted below full demand
  std::size_t alloc_rebalances = 0;            // rebalance passes that changed something
  std::size_t alloc_downgrades = 0;            // chains shrunk by a rebalance
  std::size_t alloc_restores = 0;              // chains grown back by a rebalance
};

/// Threading contract: externally synchronized, single-writer. The retry
/// segments (in the agent's shards) and recovery epoch are mutated only
/// inside handle_*_failure / handle_*_recovery / drain_retry_queue on the
/// calling thread; Executor workers only run the agent's read-only sweep
/// classification. Callers that drive the orchestrator from several
/// threads (the chaos suites) must wrap every call in one lock, as
/// ChaosRunner does.
class NetworkOrchestrator {
 public:
  /// The orchestrator borrows the cluster manager (clusters are built by
  /// the operator beforehand, §III) and owns the NFV/SDN control plane.
  NetworkOrchestrator(alvc::cluster::ClusterManager& clusters,
                      const alvc::nfv::VnfCatalog& catalog);

  /// Provisions a chain end to end onto the cluster serving spec.service:
  /// admission -> slice allocation -> placement -> VNF deployment ->
  /// routing -> rule installation. All-or-nothing: any failure rolls back.
  [[nodiscard]] alvc::util::Expected<NfcId> provision_chain(const alvc::nfv::NfcSpec& spec,
                                                            const PlacementStrategy& placement);

  /// Switches linear-chain routing between plain shortest paths (default)
  /// and the load-balanced k-shortest variant that avoids links other
  /// chains already reserved.
  void set_load_balanced_routing(bool enabled, std::size_t k = 4) noexcept {
    load_balanced_routing_ = enabled;
    routing_k_ = k;
  }

  /// Splits the control plane into `shard_count` cluster-agent shards
  /// (DESIGN.md §13): chains partition by backing cluster, and each shard
  /// owns its slice of the route cache and retry queue. Read-only passes
  /// (sweep classification) fan out across shards on `executor` (inline
  /// when null); all mutations stay on the calling thread, applied in
  /// ascending chain-id order, so every observable result is byte-identical
  /// at any shard count. A new orchestrator runs one shard inline. Live
  /// chains and queued retries migrate on every call; route caches restart
  /// cold (so `set_sharding(shard_count())` is a cold cache restart). Throws
  /// std::invalid_argument when `shard_count` is 0. The executor must
  /// outlive the orchestrator (or the next set_sharding call).
  void set_sharding(std::size_t shard_count, alvc::util::Executor* executor = nullptr);
  [[nodiscard]] std::size_t shard_count() const noexcept { return agent_->shard_count(); }
  /// The cluster-agent layer; never null.
  [[nodiscard]] const ControlAgent* agent() const noexcept { return agent_.get(); }
  /// Every live route cache, one per shard. For audits (StateAuditor
  /// checks coherence of each).
  [[nodiscard]] std::vector<const RouteCache*> route_caches() const;
  /// Cache counters summed over route_caches() — shard-count invariant,
  /// which the differential suite asserts.
  [[nodiscard]] RouteCacheStats aggregate_route_cache_stats() const;

  /// Selects the bandwidth allocation policy. kStrictLadder (default)
  /// preserves the legacy behavior bit-for-bit: admission hard-rejects,
  /// refits walk the 1/2/4/8 ladder, rebalance_bandwidth() is a no-op.
  /// kWaterFill / kPriorityDowngrade add admit-with-downgrade and the
  /// cross-chain rebalance on every provision/teardown/fault/recovery.
  /// Rebuilds the allocation index: the next rebalance re-plans every
  /// routed chain.
  void set_allocation_policy(AllocationPolicy policy);
  [[nodiscard]] AllocationPolicy allocation_policy() const noexcept {
    return allocator_.policy();
  }
  /// Shared-ToR aggregate budget knob (see BandwidthAllocator); 0 disables.
  /// Rebuilds the allocation index like set_allocation_policy.
  void set_tor_budget_factor(double factor);
  [[nodiscard]] const BandwidthAllocator& allocator() const noexcept { return allocator_; }

  /// Re-plans the chains whose bandwidth could have moved since the last
  /// pass and applies the plan: shrinks (sheds) over-budget chains, grows
  /// chains with headroom back up the ladder, marking degraded/restored as
  /// bandwidth moves. The scope is every connected component of the chain
  /// <-> resource graph (see AllocationIndex) that holds, or held, a chain
  /// whose route or reservation changed; the plan decomposes exactly over
  /// components, so the result is byte-identical to re-planning the whole
  /// fabric. No-op under kStrictLadder. Called automatically after
  /// provision, teardown, and every failure/recovery handler; public so
  /// tests and operators can force a pass. Returns the number of chains
  /// whose reservation changed.
  std::size_t rebalance_bandwidth();

  /// Batch admission pre-screen: evaluates every spec's admission decision
  /// (against the cluster serving its service) without provisioning
  /// anything. Checks fan out to `executor` (serial when null) — safe
  /// because check() only reads — and results come back in input order,
  /// identical to calling admission serially; counters are then recorded
  /// once per spec in input order. Specs whose service has no cluster get
  /// kNotFound and touch no counter. Typical use: screen a provisioning
  /// wave cheaply, then provision_chain() the admitted ones.
  [[nodiscard]] std::vector<alvc::util::Status> preadmit_chains(
      std::span<const alvc::nfv::NfcSpec> specs, alvc::util::Executor* executor = nullptr);

  /// Provisions a chain with a complex processing order (paper §IV-A's
  /// "network forwarding graph"): nodes are placed like a linear chain in
  /// topological order, then routed per DAG edge (entry from the ingress
  /// ToR, every exit to the egress ToR). Same all-or-nothing semantics as
  /// provision_chain.
  [[nodiscard]] alvc::util::Expected<NfcId> provision_forwarding_graph(
      const alvc::nfv::GraphNfcSpec& spec, const PlacementStrategy& placement);

  /// Deletes a chain: rules out, VNFs terminated, slice released.
  [[nodiscard]] alvc::util::Status teardown_chain(NfcId id);

  /// Scales one function of a live chain ("modification/upgradation").
  [[nodiscard]] alvc::util::Status scale_function(NfcId id, std::size_t function_index,
                                                  double factor);

  /// Moves one function of a live chain to a specific host inside its
  /// slice (operator-driven migration, e.g. draining a router before
  /// maintenance). Re-routes and re-programs the chain. The target must be
  /// a slice member with capacity; kInvalidArgument/kCapacityExceeded
  /// otherwise, with the chain untouched.
  [[nodiscard]] alvc::util::Status migrate_function(NfcId id, std::size_t function_index,
                                                    const alvc::nfv::HostRef& target);

  /// Chains whose route crosses `ops` or whose VNFs are hosted on it.
  [[nodiscard]] std::vector<NfcId> chains_using_ops(alvc::util::OpsId ops) const;

  // ---- failure & recovery workflows ----
  //
  // Failure handlers: repair the affected ALs (ClusterManager), then
  // refit every impacted chain — relocate stranded instances, re-route,
  // re-program, re-reserve. Chains whose full-bandwidth refit is
  // infeasible *now* enter degraded mode (alive at reduced or zero
  // bandwidth) and join the bounded-retry queue instead of being torn
  // down. All handlers are idempotent and return the number of chains
  // refitted at full bandwidth.

  [[nodiscard]] alvc::util::Expected<std::size_t> handle_ops_failure(alvc::util::OpsId ops);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_tor_failure(alvc::util::TorId tor);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_server_failure(
      alvc::util::ServerId server);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_link_failure(alvc::util::TorId tor,
                                                                      alvc::util::OpsId ops);

  // Recovery handlers: re-integrate the repaired element (ClusterManager
  // rebuilds degraded clusters with it), refit healthy chains whose slice
  // shifted, then drain the retry queue — each eligible degraded chain
  // gets one full restoration attempt, with deterministic exponential
  // backoff (in recovery events, not wall time) between attempts. Return
  // the number of chains restored to full bandwidth.

  [[nodiscard]] alvc::util::Expected<std::size_t> handle_ops_recovery(alvc::util::OpsId ops);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_tor_recovery(alvc::util::TorId tor);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_server_recovery(
      alvc::util::ServerId server);
  [[nodiscard]] alvc::util::Expected<std::size_t> handle_link_recovery(alvc::util::TorId tor,
                                                                       alvc::util::OpsId ops);

  /// Chains currently in degraded mode.
  [[nodiscard]] std::size_t degraded_chain_count() const noexcept;
  /// Degraded chains awaiting a retry (subset of degraded: bounded retries).
  [[nodiscard]] std::size_t retry_queue_size() const noexcept;

  [[nodiscard]] const ProvisionedChain* chain(NfcId id) const;
  [[nodiscard]] std::vector<const ProvisionedChain*> chains() const;
  [[nodiscard]] std::size_t chain_count() const noexcept { return chains_.size(); }

  [[nodiscard]] const OrchestratorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SliceManager& slices() const noexcept { return slices_; }
  [[nodiscard]] const sdn::SdnController& controller() const noexcept { return controller_; }
  [[nodiscard]] const sdn::CloudNfvManager& cloud() const noexcept { return cloud_; }
  [[nodiscard]] sdn::CloudNfvManager& cloud() noexcept { return cloud_; }
  [[nodiscard]] const AdmissionController& admission() const noexcept { return admission_; }
  [[nodiscard]] const BandwidthLedger& bandwidth() const noexcept { return bandwidth_; }
  /// Audit trail of every orchestration action, in order.
  [[nodiscard]] const sdn::ControlPlaneLog& control_log() const noexcept { return log_; }
  [[nodiscard]] const alvc::cluster::ClusterManager& clusters() const noexcept {
    return *clusters_;
  }

  /// Cross-chain isolation check: no switch carries rules of two chains
  /// whose slices differ... every rule of chain c sits on a switch of c's
  /// slice. Returns violations (empty = isolated).
  [[nodiscard]] std::vector<std::string> check_isolation() const;

 private:
  const alvc::cluster::VirtualCluster* cluster_for_service(alvc::util::ServiceId service) const;

  /// The one provisioning pipeline behind provision_chain and
  /// provision_forwarding_graph: admission -> slice -> placement -> deploy
  /// -> route -> rule install -> reserve -> commit, with a single unwind.
  /// `route_step(vc, placed)` is the only part that differs: it returns the
  /// chain's route and may adjust `placed` (a forwarding graph takes its
  /// conversion count from the DAG route).
  template <typename RouteStep>
  [[nodiscard]] alvc::util::Expected<NfcId> provision(const alvc::nfv::NfcSpec& spec,
                                                      const PlacementStrategy& placement,
                                                      RouteStep&& route_step);

  /// Linear-chain route ingress -> hosts -> egress with the cluster's
  /// default anchors, served from the owning shard's route cache (identical
  /// to the plain router by construction — see route_cache.h).
  [[nodiscard]] alvc::util::Expected<ChainRoute> route_linear(
      const alvc::cluster::VirtualCluster& vc, std::span<const alvc::nfv::HostRef> hosts,
      alvc::nfv::PriorityClass cls);

  /// Cache serving `cluster`'s routes: the owning shard's.
  [[nodiscard]] RouteCache& route_cache_for(alvc::util::ClusterId cluster) {
    return agent_->shard_for_cluster(cluster).cache();
  }

  [[nodiscard]] bool host_usable(const alvc::nfv::HostRef& host) const;
  [[nodiscard]] bool host_in_slice(const alvc::nfv::HostRef& host,
                                   const alvc::cluster::VirtualCluster& vc) const;
  /// True when the chain's route references dead or out-of-slice elements
  /// or rides a cut ToR-OPS cable.
  [[nodiscard]] bool route_broken(const ProvisionedChain& chain,
                                  const alvc::cluster::VirtualCluster& vc) const;
  /// True when the chain's placement or route references dead or
  /// out-of-slice elements and must be re-fitted.
  [[nodiscard]] bool chain_needs_refit(const ProvisionedChain& chain,
                                       const alvc::cluster::VirtualCluster* vc) const;
  /// Narrower check for chains already degraded: only their *live* residue
  /// matters — surviving instances on now-dead hardware or a now-broken
  /// partial route. Invalid (terminated) slots are expected, not a hazard.
  [[nodiscard]] bool degraded_chain_disturbed(const ProvisionedChain& chain,
                                              const alvc::cluster::VirtualCluster* vc) const;
  /// The one writer of a chain's route and reservation outside the
  /// rebalance's own apply passes (which only move reservations to the
  /// plan's targets): stores both and marks the chain dirty for the next
  /// rebalance. Every path that reroutes, reserves, parks or deletes a
  /// chain goes through here.
  void set_allocation(ProvisionedChain& chain, ChainRoute route, double reserved_gbps);
  /// Resets the allocation index and, under a QoS policy, marks every
  /// routed chain dirty.
  void rebuild_allocation_index();
  /// Removes the chain from the data plane: rules out, bandwidth released,
  /// route cleared, instances on unusable hosts terminated (slots invalid).
  void park_chain(ProvisionedChain& chain);
  /// Re-fits a parked chain: re-places invalid/bad instances inside the
  /// slice, re-routes, re-programs, and reserves bandwidth at the largest
  /// feasible fraction of the spec's demand. Returns the fraction achieved
  /// (1.0 = full service, 0 = nothing could be established). Giving up
  /// terminates every live instance still outside the slice (all of them
  /// when the AL is absent or empty); the retry queue re-places them.
  double fit_chain(ProvisionedChain& chain);
  /// Marks a parked chain degraded (fraction < 1 after a fit attempt).
  void mark_degraded(ProvisionedChain& chain, double fraction, const std::string& reason);

  /// What the sweep decided for one chain. Classification reads only
  /// topology failure state, AL membership, and the chain's own record —
  /// never the cloud pool, bandwidth ledger, or controller state that
  /// applying another chain's verdict mutates — so pre-classifying every
  /// chain (shard-parallel) and applying in ascending id order is
  /// byte-identical to the legacy classify-as-you-go loop.
  enum class SweepVerdict : int {
    kNone = 0,
    kRefitDegraded = 1,  // disturbed degraded chain: best-effort re-fit
    kRefit = 2,          // healthy chain needing a full-bandwidth refit
  };
  [[nodiscard]] SweepVerdict classify_chain(NfcId id) const;
  void apply_sweep_verdict(NfcId id, SweepVerdict verdict, std::size_t& repaired);

  /// Refit-or-degrade pass over the chains of the clusters in `scope` (the
  /// fault's blast radius: every cluster whose AL the event examined);
  /// returns full-bandwidth repairs. Sound because a chain outside the
  /// blast radius classifies kNone: each sweep settles all disturbances
  /// (fit_chain leaves no live instance outside the slice, even when it
  /// gives up), so only the current event can create new work, and kNone
  /// verdicts are no-ops. StateAuditor checks the slice invariant.
  std::size_t sweep_chains(std::span<const alvc::util::ClusterId> scope);
  /// Clusters whose AL contains `server`'s primary ToR — the blast radius
  /// of a server event (server events never change an AL). Containment,
  /// not VM ownership: placement may use any server under the slice's
  /// ToRs, so a chain with no VM on the box can still be disturbed.
  /// Sorted, deduplicated.
  [[nodiscard]] std::vector<alvc::util::ClusterId> server_blast_radius(
      alvc::util::ServerId server) const;
  /// One restoration attempt per eligible retry entry; returns restores.
  std::size_t drain_retry_queue();
  void enqueue_retry(NfcId id);
  [[nodiscard]] std::vector<NfcId> sorted_chain_ids() const;

  alvc::cluster::ClusterManager* clusters_;
  const alvc::nfv::VnfCatalog* catalog_;
  sdn::CloudNfvManager cloud_;
  sdn::SdnController controller_;
  SliceManager slices_;
  AdmissionController admission_;
  BandwidthLedger bandwidth_;
  BandwidthAllocator allocator_;
  /// Chain <-> resource graph and dirty set of the incremental rebalance.
  AllocationIndex alloc_index_;
  ChainRouter router_;
  std::unordered_map<NfcId, ProvisionedChain> chains_;
  sdn::ControlPlaneLog log_;
  OrchestratorStats stats_;
  /// Builder used for AL repairs after ToR failures and on recoveries.
  alvc::cluster::VertexCoverAlBuilder repair_builder_;
  /// Sharded cluster-agent layer (never null): per-chain state (route
  /// cache entries, retry segments) lives in its shards.
  std::unique_ptr<ControlAgent> agent_;
  std::uint64_t recovery_epoch_ = 0;  // counts recovery events (backoff clock)
  NfcId::value_type next_id_ = 0;
  bool load_balanced_routing_ = false;
  std::size_t routing_k_ = 4;
};

}  // namespace alvc::orchestrator
