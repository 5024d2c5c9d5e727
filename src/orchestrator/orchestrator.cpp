#include "orchestrator/orchestrator.h"

#include <algorithm>
#include <unordered_set>

#include "telemetry/telemetry.h"

namespace alvc::orchestrator {

using alvc::cluster::VirtualCluster;
using alvc::nfv::HostRef;
using alvc::util::ClusterId;
using alvc::util::Error;
using alvc::util::ErrorCode;
using alvc::util::Expected;
using alvc::util::ServiceId;
using alvc::util::Status;

NetworkOrchestrator::NetworkOrchestrator(alvc::cluster::ClusterManager& clusters,
                                         const alvc::nfv::VnfCatalog& catalog)
    : clusters_(&clusters),
      catalog_(&catalog),
      cloud_(catalog, clusters.topology()),
      controller_(clusters.topology()),
      admission_(clusters.topology(), catalog),
      bandwidth_(clusters.topology()),
      alloc_index_(clusters.topology(), bandwidth_),
      router_(clusters.topology()),
      agent_(std::make_unique<ControlAgent>(clusters.topology(), 1)) {
  alloc_index_.reset(allocator_.tor_budget_factor());
}

Expected<ChainRoute> NetworkOrchestrator::route_linear(const VirtualCluster& vc,
                                                       std::span<const HostRef> hosts,
                                                       alvc::nfv::PriorityClass cls) {
  const alvc::util::TorId ingress = vc.layer.tors.front();
  const alvc::util::TorId egress = vc.layer.tors.back();
  // Plain shortest-path legs are bandwidth-independent, so every cached
  // route lives under the kFull tier; degraded refits reuse the same path
  // at a lower reservation rather than re-routing per rung. The priority
  // class still partitions the key: HIPRI and LOPRI legs never alias.
  return route_cache_for(vc.id).route(router_, vc, ingress, egress, hosts, BandwidthTier::kFull,
                                      cls);
}

const VirtualCluster* NetworkOrchestrator::cluster_for_service(ServiceId service) const {
  return clusters_->find_by_service(service);
}

template <typename Edit>
void NetworkOrchestrator::edit_hosts(ProvisionedChain& chain, Edit&& edit) {
  mid_chain_conversions_ -= count_conversions(chain.placement.hosts).mid_chain;
  edit(chain.placement.hosts);
  finalize_placement(chain.placement);
  mid_chain_conversions_ += chain.placement.conversions.mid_chain;
}

template <typename RouteStep>
Expected<NfcId> NetworkOrchestrator::provision(const alvc::nfv::NfcSpec& spec,
                                               const PlacementStrategy& placement,
                                               RouteStep&& route_step) {
  const auto fail = [this](Error error) -> Expected<NfcId> {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return error;
  };
  const VirtualCluster* vc = cluster_for_service(spec.service);
  if (vc == nullptr) {
    return fail(Error{ErrorCode::kNotFound,
                      "no cluster serves service " + std::to_string(spec.service.value())});
  }
  if (vc->layer.tors.empty()) {
    return fail(Error{ErrorCode::kInfeasible, "cluster has an empty abstraction layer"});
  }
  const AdmissionDecision admitted =
      admission_.admit(spec, *vc, cloud_.pool(), allocator_.policy());
  if (!admitted.status.is_ok()) return fail(admitted.status.error());
  // Under a QoS policy admission may grant a lower ladder rung than the
  // spec demands (admit-with-downgrade); everything downstream provisions
  // at the granted rate.
  const double granted_gbps = admitted.granted_gbps;
  const NfcId id{next_id_++};
  auto slice = slices_.allocate(vc->id, id, granted_gbps, spec.priority);
  if (!slice) return fail(slice.error());

  // From here on every failure unwinds the same way: rules out (a no-op
  // before any were installed), deployed instances terminated, slice
  // released.
  std::vector<alvc::nfv::VnfInstanceId> instances;
  const auto unwind = [&](Error error) {
    controller_.remove_chain(id);
    for (auto inst : instances) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst),
                         "unwinding a failed provision; the instance is dead either way");
    }
    ALVC_IGNORE_STATUS(slices_.release(id), "unwinding a failed provision; slice just allocated");
    return fail(std::move(error));
  };

  PlacementContext context{.topo = &clusters_->topology(),
                           .cluster = vc,
                           .catalog = catalog_,
                           .pool = &cloud_.pool()};
  auto placed = placement.place(spec, context);
  if (!placed) return unwind(placed.error());
  // place() reserved capacity directly in the pool; release those raw
  // reservations and re-reserve through the cloud manager so lifecycle and
  // capacity stay coupled.
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    cloud_.pool().release(placed->hosts[i], catalog_->descriptor(spec.functions[i]).demand);
  }
  for (std::size_t i = 0; i < placed->hosts.size(); ++i) {
    auto inst = cloud_.deploy(spec.functions[i], placed->hosts[i]);
    if (!inst) {
      return unwind(Error{ErrorCode::kInternal, "deployment failed after successful placement"});
    }
    instances.push_back(*inst);
  }

  auto route = route_step(*vc, *placed);
  if (!route) return unwind(route.error());
  for (const auto& leg : route->legs) {
    if (auto status = controller_.install_path(id, leg); !status.is_ok()) {
      return unwind(status.error());
    }
  }
  if (auto status = bandwidth_.reserve_walk(route->vertices, granted_gbps); !status.is_ok()) {
    return unwind(status.error());
  }

  ALVC_OBSERVE("orchestrator.route.path_length", 0, 64, 32,
               static_cast<double>(route->vertices.size()));
  ALVC_OBSERVE("orchestrator.route.conversions", 0, 16, 16,
               static_cast<double>(placed->conversions.mid_chain));
  // Without the abstraction layer every inter-function hop would cost an
  // O/E/O conversion; mid-chain conversions actually incurred are the rest.
  ALVC_COUNT_N("orchestrator.oeo.conversions_saved",
               spec.functions.size() > placed->conversions.mid_chain
                   ? spec.functions.size() - placed->conversions.mid_chain
                   : 0);

  ProvisionedChain chain{.record = alvc::nfv::NfcRecord{.id = id, .spec = spec},
                         .cluster = vc->id,
                         .slice = *slice,
                         .instances = std::move(instances),
                         .flow_rules = controller_.chain_rule_count(id)};
  auto [chain_it, inserted] = chains_.emplace(id, std::move(chain));
  by_id_.push_back(&chain_it->second);  // id is the largest yet minted
  edit_hosts(chain_it->second,
             [&](std::vector<HostRef>& hosts) { hosts = std::move(placed->hosts); });
  // The route step's conversion count stands: a forwarding graph's comes
  // from its DAG route, not from the linear host order.
  chain_it->second.placement.conversions = placed->conversions;
  set_allocation(chain_it->second, std::move(*route), granted_gbps);
  agent_->register_chain(id, vc->id);
  log_.append(sdn::ControlEventType::kSliceAllocated, slice->value());
  log_.append(sdn::ControlEventType::kChainProvisioned, id.value());
  ++stats_.chains_provisioned;
  ALVC_COUNT("orchestrator.chains.provisioned");
  if (granted_gbps + 1e-9 < spec.bandwidth_gbps) {
    ++stats_.chains_admitted_downgraded;
    set_chain_health(chain_it->second, true, sdn::ControlCause::kAdmittedReduced,
                     granted_gbps / spec.bandwidth_gbps);
  }
  rebalance_bandwidth();  // no-op under kStrictLadder
  return id;
}

Expected<NfcId> NetworkOrchestrator::provision_chain(const alvc::nfv::NfcSpec& spec,
                                                     const PlacementStrategy& placement) {
  ALVC_SPAN(span, "orchestrator.provision_chain");
  // Route ingress ToR -> hosts -> egress ToR inside the slice. Default
  // anchors: the cluster's first and last ToRs.
  return provision(spec, placement,
                   [&](const VirtualCluster& vc, PlacementResult& placed) {
                     return route_linear(vc, placed.hosts, spec.priority);
                   });
}

Expected<NfcId> NetworkOrchestrator::provision_forwarding_graph(
    const alvc::nfv::GraphNfcSpec& gspec, const PlacementStrategy& placement) {
  ALVC_SPAN(span, "orchestrator.provision_forwarding_graph");
  if (auto status = gspec.graph.validate(); !status.is_ok()) {
    ++stats_.provision_failures;
    ALVC_COUNT("orchestrator.provision.failures");
    return status.error();
  }
  const alvc::nfv::NfcSpec spec = gspec.to_linear_spec();
  auto order = gspec.graph.topological_order();
  auto id = provision(
      spec, placement,
      [&](const VirtualCluster& vc, PlacementResult& placed) {
        // Map topological placement order back to node indices for routing.
        std::vector<HostRef> node_hosts(order.size(), HostRef{alvc::util::ServerId{0}});
        for (std::size_t i = 0; i < order.size(); ++i) node_hosts[order[i]] = placed.hosts[i];
        auto route = route_cache_for(vc.id).route_graph(
            router_, vc, vc.layer.tors.front(), vc.layer.tors.back(), gspec.graph, node_hosts,
            BandwidthTier::kFull, spec.priority);
        // The DAG's conversion count is authoritative for this chain.
        if (route) placed.conversions = route->conversions;
        return route;
      });
  if (id) {
    ProvisionedChain& chain = chains_.at(*id);
    chain.graph = gspec.graph;
    chain.forwarding_order = std::move(order);
  }
  return id;
}

Status NetworkOrchestrator::teardown_chain(NfcId id) {
  ALVC_SPAN(span, "orchestrator.teardown_chain");
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  controller_.remove_chain(id);
  for (auto inst : it->second.instances) {
    // Degraded slots hold invalid ids; live ones must go regardless.
    if (inst.valid()) {
      ALVC_IGNORE_STATUS(cloud_.terminate(inst), "teardown: chain is going away regardless");
    }
  }
  bandwidth_.release_walk(it->second.route.vertices, it->second.reserved_gbps);
  set_allocation(it->second, ChainRoute{}, 0);  // its component re-plans without it
  ALVC_IGNORE_STATUS(slices_.release(id), "teardown: chain is going away regardless");
  // Cluster ids can be reused by a later build; a reused id must never see
  // this tenant's paths, so teardown drops them eagerly instead of waiting
  // for the epoch to catch the mismatch.
  route_cache_for(it->second.cluster).invalidate_slice(it->second.cluster);
  agent_->unregister_chain(id, it->second.cluster);
  // Drops the chain's conversions from the running total.
  edit_hosts(it->second, [](std::vector<HostRef>& hosts) { hosts.clear(); });
  by_id_.erase(std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [](const ProvisionedChain* chain, NfcId key) { return chain->record.id < key; }));
  chains_.erase(it);
  log_.append(sdn::ControlEventType::kSliceReleased, id.value());
  log_.append(sdn::ControlEventType::kChainTornDown, id.value());
  ++stats_.chains_torn_down;
  ALVC_COUNT("orchestrator.chains.torn_down");
  rebalance_bandwidth();  // freed capacity lets shed chains climb back
  return Status::ok();
}

Status NetworkOrchestrator::scale_function(NfcId id, std::size_t function_index, double factor) {
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  if (it->second.degraded) {
    return Error{ErrorCode::kRejected, "chain is degraded; wait for restoration"};
  }
  if (function_index >= it->second.instances.size()) {
    return Error{ErrorCode::kInvalidArgument, "function index out of range"};
  }
  return cloud_.scale(it->second.instances[function_index], factor);
}

Status NetworkOrchestrator::migrate_function(NfcId id, std::size_t function_index,
                                             const HostRef& target) {
  const auto it = chains_.find(id);
  if (it == chains_.end()) {
    return Error{ErrorCode::kNotFound, "no chain " + std::to_string(id.value())};
  }
  ProvisionedChain& chain = it->second;
  if (chain.degraded) {
    return Error{ErrorCode::kRejected, "chain is degraded; wait for restoration"};
  }
  if (function_index >= chain.placement.hosts.size()) {
    return Error{ErrorCode::kInvalidArgument, "function index out of range"};
  }
  const alvc::cluster::VirtualCluster* vc = clusters_->find(chain.cluster);
  if (vc == nullptr) return Error{ErrorCode::kInternal, "chain references a dead cluster"};

  // Target must be inside the slice.
  bool in_slice = false;
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&target)) {
    const auto& topo = clusters_->topology();
    in_slice = vc->layer.contains_ops(*ops) && topo.ops(*ops).optoelectronic &&
               topo.ops_usable(*ops);
  } else {
    const auto server = std::get<alvc::util::ServerId>(target);
    in_slice = vc->layer.contains_tor(clusters_->topology().server(server).tor);
  }
  if (!in_slice) {
    return Error{ErrorCode::kInvalidArgument, "migration target is outside the chain's slice"};
  }
  const auto& desc = catalog_->descriptor(chain.record.spec.functions[function_index]);
  if (desc.electronic_only && alvc::nfv::is_optical_host(target)) {
    return Error{ErrorCode::kInvalidArgument, "VNF is pinned to the electronic domain"};
  }
  if (chain.placement.hosts[function_index] == target) return Status::ok();
  if (!cloud_.pool().fits(target, desc.demand)) {
    return Error{ErrorCode::kCapacityExceeded, "target host cannot take the VNF"};
  }

  // Tentatively compute the new route before committing anything.
  auto hosts = chain.placement.hosts;
  hosts[function_index] = target;
  auto route = route_linear(*vc, hosts, chain.record.spec.priority);
  if (!route) return route.error();
  // Reserve the new walk while the old one is still held (conservative:
  // shared links must fit both briefly), then deploy on the target. Either
  // failure hands back what it took and leaves the chain untouched.
  const double gbps = chain.reserved_gbps;
  if (auto status = bandwidth_.reserve_walk(route->vertices, gbps); !status.is_ok()) {
    return status.error();
  }
  auto fresh = cloud_.deploy(chain.record.spec.functions[function_index], target);
  if (!fresh) {
    bandwidth_.release_walk(route->vertices, gbps);
    return fresh.error();
  }

  // Commit: release the old walk and instance, swap route and rules.
  bandwidth_.release_walk(chain.route.vertices, gbps);
  ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[function_index]),
                     "migration commit point: the target instance is live; an old "
                     "instance that is already gone has nothing left to release");
  chain.instances[function_index] = *fresh;
  edit_hosts(chain, [&](std::vector<HostRef>& current) { current[function_index] = target; });
  controller_.remove_chain(id);
  for (const auto& leg : route->legs) {
    // Fails only on a malformed path, which route_linear never produces.
    if (auto status = controller_.install_path(id, leg); !status.is_ok()) return status;
  }
  set_allocation(chain, std::move(*route), gbps);
  chain.flow_rules = controller_.chain_rule_count(id);
  log_.append(sdn::ControlEventType::kVnfRelocated, id.value(),
              sdn::ControlCause::kOperatorMigration, static_cast<std::uint32_t>(function_index));
  ++stats_.vnfs_relocated;
  return Status::ok();
}

std::vector<NfcId> NetworkOrchestrator::chains_using_ops(alvc::util::OpsId ops) const {
  const auto& topo = clusters_->topology();
  const std::size_t vertex = topo.ops_vertex(ops);
  std::vector<NfcId> affected;
  for (const auto& [id, chain] : chains_) {
    bool hit = std::find(chain.route.vertices.begin(), chain.route.vertices.end(), vertex) !=
               chain.route.vertices.end();
    if (!hit) {
      for (const HostRef& host : chain.placement.hosts) {
        if (const auto* o = std::get_if<alvc::util::OpsId>(&host); o != nullptr && *o == ops) {
          hit = true;
          break;
        }
      }
    }
    if (hit) affected.push_back(id);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

// ---- failure & recovery workflows ----

bool NetworkOrchestrator::host_usable(const HostRef& host) const {
  const auto& topo = clusters_->topology();
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&host)) return topo.ops_usable(*ops);
  const auto server = std::get<alvc::util::ServerId>(host);
  return topo.server_usable(server) && topo.tor_usable(topo.server(server).tor);
}

bool NetworkOrchestrator::host_in_slice(const HostRef& host,
                                        const alvc::cluster::VirtualCluster& vc) const {
  if (const auto* ops = std::get_if<alvc::util::OpsId>(&host)) return vc.layer.contains_ops(*ops);
  const auto server = std::get<alvc::util::ServerId>(host);
  return vc.layer.contains_tor(clusters_->topology().server(server).tor);
}

bool NetworkOrchestrator::route_broken(const ProvisionedChain& chain,
                                       const alvc::cluster::VirtualCluster& vc) const {
  const auto& topo = clusters_->topology();
  for (std::size_t v : chain.route.vertices) {
    if (topo.is_ops_vertex(v)) {
      const auto ops = topo.vertex_to_ops(v);
      if (!topo.ops_usable(ops) || !vc.layer.contains_ops(ops)) return true;
    } else {
      const auto tor = topo.vertex_to_tor(v);
      if (!topo.tor_usable(tor) || !vc.layer.contains_tor(tor)) return true;
    }
  }
  // A cut cable breaks the walk even when both endpoints survive.
  for (std::size_t i = 0; i + 1 < chain.route.vertices.size(); ++i) {
    const std::size_t a = chain.route.vertices[i];
    const std::size_t b = chain.route.vertices[i + 1];
    if (topo.is_ops_vertex(a) == topo.is_ops_vertex(b)) continue;
    const std::size_t tor_v = topo.is_ops_vertex(a) ? b : a;
    const std::size_t ops_v = topo.is_ops_vertex(a) ? a : b;
    if (topo.link_failed(topo.vertex_to_tor(tor_v), topo.vertex_to_ops(ops_v))) return true;
  }
  return false;
}

bool NetworkOrchestrator::chain_needs_refit(const ProvisionedChain& chain,
                                            const alvc::cluster::VirtualCluster* vc) const {
  if (vc == nullptr || vc->layer.tors.empty()) return true;
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    if (!chain.instances[i].valid()) return true;
    if (!host_usable(chain.placement.hosts[i])) return true;
    if (!host_in_slice(chain.placement.hosts[i], *vc)) return true;
  }
  return route_broken(chain, *vc);
}

bool NetworkOrchestrator::degraded_chain_disturbed(const ProvisionedChain& chain,
                                                   const alvc::cluster::VirtualCluster* vc) const {
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    if (!chain.instances[i].valid()) continue;  // already terminated: expected
    if (!host_usable(chain.placement.hosts[i])) return true;
    if (vc != nullptr && !host_in_slice(chain.placement.hosts[i], *vc)) return true;
  }
  if (chain.route.vertices.empty()) return false;  // fully parked
  if (vc == nullptr || vc->layer.tors.empty()) return true;
  return route_broken(chain, *vc);
}

void NetworkOrchestrator::park_chain(ProvisionedChain& chain) {
  const NfcId id = chain.record.id;
  controller_.remove_chain(id);
  if (!chain.route.vertices.empty() && chain.reserved_gbps > 0) {
    bandwidth_.release_walk(chain.route.vertices, chain.reserved_gbps);
  }
  set_allocation(chain, ChainRoute{}, 0);
  chain.flow_rules = 0;
  for (std::size_t i = 0; i < chain.instances.size(); ++i) {
    if (!chain.instances[i].valid()) continue;
    if (host_usable(chain.placement.hosts[i])) continue;
    ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[i]),
                       "parking: the host is dead, the instance is gone either way");
    chain.instances[i] = alvc::util::VnfInstanceId::invalid();
  }
}

double NetworkOrchestrator::fit_chain(ProvisionedChain& chain) {
  ALVC_SPAN(span, "orchestrator.fit_chain");
  const NfcId id = chain.record.id;
  const VirtualCluster* vc = clusters_->find(chain.cluster);
  // Giving up must not leave a live instance outside the slice: no later
  // event's blast radius would reach it, so a scoped sweep could never
  // clean it up (e.g. it outlives its OPS). Terminate every such instance
  // (all of them when the AL is gone or empty); the retry queue re-places
  // the invalid slots on recovery.
  const auto give_up = [&] {
    for (std::size_t i = 0; i < chain.instances.size(); ++i) {
      if (!chain.instances[i].valid()) continue;
      if (vc != nullptr && host_in_slice(chain.placement.hosts[i], *vc)) continue;
      ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[i]),
                         "parking outside the slice: the instance is unreachable either way");
      chain.instances[i] = alvc::util::VnfInstanceId::invalid();
    }
    return 0.0;
  };
  if (vc == nullptr || vc->layer.tors.empty()) return give_up();
  const auto& topo = clusters_->topology();

  PlacementContext context{
      .topo = &topo, .cluster = vc, .catalog = catalog_, .pool = &cloud_.pool()};
  const auto optical = context.slice_optical_hosts();
  const auto electronic = context.slice_electronic_hosts();
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    const bool bad = !chain.instances[i].valid() || !host_usable(chain.placement.hosts[i]) ||
                     !host_in_slice(chain.placement.hosts[i], *vc);
    if (!bad) continue;
    const auto& desc = catalog_->descriptor(chain.record.spec.functions[i]);
    // Prefer staying optical, fall back to a server.
    std::optional<HostRef> target;
    if (!desc.electronic_only) {
      for (alvc::util::OpsId candidate : optical) {
        if (cloud_.pool().fits(HostRef{candidate}, desc.demand)) {
          target = HostRef{candidate};
          break;
        }
      }
    }
    if (!target) {
      for (alvc::util::ServerId candidate : electronic) {
        if (cloud_.pool().fits(HostRef{candidate}, desc.demand)) {
          target = HostRef{candidate};
          break;
        }
      }
    }
    if (!target) return give_up();
    if (chain.instances[i].valid()) {
      ALVC_IGNORE_STATUS(cloud_.terminate(chain.instances[i]),
                         "relocation: the stranded instance is replaced either way");
      chain.instances[i] = alvc::util::VnfInstanceId::invalid();
    }
    auto fresh = cloud_.deploy(chain.record.spec.functions[i], *target);
    if (!fresh) return give_up();
    chain.instances[i] = *fresh;
    edit_hosts(chain, [&](std::vector<HostRef>& hosts) { hosts[i] = *target; });
    log_.append(sdn::ControlEventType::kVnfRelocated, id.value(),
                sdn::ControlCause::kFailureRelocation, static_cast<std::uint32_t>(i));
    ++stats_.vnfs_relocated;
  }
  // The refit routes the chain linearly, so the linear conversion count
  // replaces a forwarding graph's DAG count even when nothing moved.
  finalize_placement(chain.placement);

  auto route = route_linear(*vc, chain.placement.hosts, chain.record.spec.priority);
  if (!route) return 0;
  for (const auto& leg : route->legs) {
    if (!controller_.install_path(id, leg).is_ok()) {
      controller_.remove_chain(id);
      return 0;
    }
  }
  // Largest feasible fraction of the spec's demand: full service first,
  // then the degraded-mode ladder.
  for (double fraction : BandwidthAllocator::kLadder) {
    const double gbps = chain.record.spec.bandwidth_gbps * fraction;
    if (bandwidth_.reserve_walk(route->vertices, gbps).is_ok()) {
      set_allocation(chain, std::move(*route), gbps);
      chain.flow_rules = controller_.chain_rule_count(id);
      // Keep the slice record's bandwidth (and its epoch) in step with the
      // rung actually achieved.
      ALVC_IGNORE_STATUS(slices_.set_bandwidth(id, gbps),
                         "a parked chain can outlive its slice record only transiently; "
                         "the reservation above is the source of truth");
      return fraction;
    }
  }
  controller_.remove_chain(id);
  return 0;
}

void NetworkOrchestrator::set_chain_health(ProvisionedChain& chain, bool degraded,
                                           sdn::ControlCause cause, double fraction) {
  if (!degraded && !chain.degraded) return;  // restoring a healthy chain
  const bool entered = degraded && !chain.degraded;
  const sdn::ControlCause reason = degraded ? cause : sdn::ControlCause::kNone;
  chain.degraded = degraded;       // alvc-lint: allow(health-writer)
  chain.degraded_reason = reason;  // alvc-lint: allow(health-writer)
  const auto type =
      degraded ? sdn::ControlEventType::kChainDegraded : sdn::ControlEventType::kChainRestored;
  log_.append(type, chain.record.id.value(), cause, static_cast<std::uint32_t>(fraction * 100));
  if (!degraded) {
    ++stats_.chains_restored;
    ALVC_COUNT("orchestrator.chains.restored");
    return;
  }
  if (entered) {
    ++stats_.chains_degraded;
    ALVC_COUNT("orchestrator.chains.degraded_transitions");
  }
  // Which rung of the degraded-mode ladder the chain landed on, overall and
  // per QoS class (macro names are literals, hence the branch).
  ALVC_OBSERVE("orchestrator.degraded.fraction", 0.0, 1.0, 8, fraction);
  if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
    ALVC_OBSERVE("orchestrator.degraded.fraction.hipri", 0.0, 1.0, 8, fraction);
    if (entered) ALVC_COUNT("orchestrator.chains.degraded_transitions.hipri");
  } else {
    ALVC_OBSERVE("orchestrator.degraded.fraction.lopri", 0.0, 1.0, 8, fraction);
    if (entered) ALVC_COUNT("orchestrator.chains.degraded_transitions.lopri");
  }
  // Per-shard dedupe is global dedupe: a chain's cluster (hence shard)
  // never changes while it lives.
  if (agent_->enqueue_retry(RetryEntry{.id = chain.record.id}, chain.cluster)) {
    ALVC_GAUGE_SET("orchestrator.retry_queue.depth", static_cast<double>(retry_queue_size()));
  }
}

NetworkOrchestrator::SweepVerdict NetworkOrchestrator::classify_chain(NfcId id) const {
  const auto it = chains_.find(id);
  if (it == chains_.end()) return SweepVerdict::kNone;
  const ProvisionedChain& chain = it->second;
  const VirtualCluster* vc = clusters_->find(chain.cluster);
  if (chain.degraded) {
    // The retry queue owns restoration, but a later failure can still hit
    // the degraded chain's surviving residue — re-park and re-fit whatever
    // best-effort slice remains so nothing stays on dead hardware.
    return degraded_chain_disturbed(chain, vc) ? SweepVerdict::kRefitDegraded
                                               : SweepVerdict::kNone;
  }
  return chain_needs_refit(chain, vc) ? SweepVerdict::kRefit : SweepVerdict::kNone;
}

void NetworkOrchestrator::apply_sweep_verdict(NfcId id, SweepVerdict verdict,
                                              std::size_t& repaired) {
  if (verdict == SweepVerdict::kNone) return;
  const auto it = chains_.find(id);
  if (it == chains_.end()) return;
  ProvisionedChain& chain = it->second;
  park_chain(chain);
  const double fraction = fit_chain(chain);
  // A disturbed degraded chain gets a best-effort re-fit; retries own its
  // restoration.
  if (verdict == SweepVerdict::kRefitDegraded) return;
  if (fraction >= 1.0) {
    ++repaired;
    log_.append(sdn::ControlEventType::kChainRepaired, id.value());
    ++stats_.chains_repaired;
    ALVC_COUNT("orchestrator.chains.repaired");
  } else {
    set_chain_health(chain, true, sdn::ControlCause::kRefitInfeasible, fraction);
  }
}

std::size_t NetworkOrchestrator::sweep_chains(std::span<const ClusterId> scope) {
  ALVC_SPAN(span, "orchestrator.sweep_chains");
  // Two-phase pass: classify the blast radius's chains (pure reads — see
  // SweepVerdict's comment), then apply verdicts serially in ascending id
  // order. Applying chain A never changes what classify would decide for
  // chain B, so this equals a classify-as-you-go loop; chains outside the
  // scope would classify kNone, which apply ignores anyway.
  const auto findings = agent_->scan_scoped(scope, [this](NfcId id, ScanItem& item) {
    const SweepVerdict verdict = classify_chain(id);
    if (verdict == SweepVerdict::kNone) return false;
    item.verdict = static_cast<int>(verdict);
    return true;
  });
  std::size_t repaired = 0;
  for (const ScanItem& finding : findings) {
    apply_sweep_verdict(finding.id, static_cast<SweepVerdict>(finding.verdict), repaired);
  }
  return repaired;
}

std::vector<alvc::util::ClusterId> NetworkOrchestrator::server_blast_radius(
    alvc::util::ServerId server) const {
  // VNF placements are not limited to the clusters owning the box's VMs:
  // fit_chain places anywhere in the chain's slice, and a server is in a
  // slice iff the AL contains its primary ToR. So the clusters containing
  // that ToR are exactly the ones whose chains can be disturbed.
  return clusters_->clusters_containing_tor(clusters_->topology().server(server).tor);
}

std::size_t NetworkOrchestrator::drain_retry_queue() {
  ALVC_SPAN(span, "orchestrator.drain_retry_queue");
  ++recovery_epoch_;
  // Every shard's segment drains into one id-sorted batch (ids are unique
  // across shards, so the order is shard-count invariant); entries the pass
  // keeps go back to their owning shards.
  const std::span<const RetryEntry> entries = agent_->drain_retries();
  constexpr std::size_t kMaxAttempts = 16;
  std::size_t restored = 0;
  std::vector<RetryEntry>& keep = retry_keep_;
  keep.clear();
  for (RetryEntry entry : entries) {
    const auto it = chains_.find(entry.id);
    if (it == chains_.end()) continue;  // torn down meanwhile
    ProvisionedChain& chain = it->second;
    if (!chain.degraded) continue;  // already healthy again
    if (entry.not_before > recovery_epoch_) {
      keep.push_back(entry);  // still backing off
      continue;
    }
    const double before_gbps = chain.reserved_gbps;
    park_chain(chain);  // releases any reduced-bandwidth partial state
    const double fraction = fit_chain(chain);
    if (fraction >= 1.0) {
      set_chain_health(chain, false, sdn::ControlCause::kRestoredByRetry, 1.0);
      ++restored;
      continue;
    }
    if (allocator_.policy() != AllocationPolicy::kStrictLadder &&
        chain.record.spec.bandwidth_gbps * fraction > before_gbps + 1e-9) {
      // The retry climbed the ladder without reaching full demand: it
      // re-enters the queue at the tier it just won, eligible at the next
      // recovery event, and the improving attempt does not count against
      // the retry budget.
      entry.not_before = recovery_epoch_ + 1;
      keep.push_back(entry);
      continue;
    }
    ++entry.attempts;
    if (entry.attempts >= kMaxAttempts) continue;  // bounded: stays degraded, no more retries
    // Deterministic exponential backoff, clocked in recovery events.
    entry.not_before =
        recovery_epoch_ + (1ULL << std::min<std::size_t>(entry.attempts, 6));
    keep.push_back(entry);
  }
  for (const RetryEntry& entry : keep) {
    // Kept entries passed the liveness check above, so the chain exists.
    agent_->enqueue_retry(entry, chains_.at(entry.id).cluster);
  }
  ALVC_GAUGE_SET("orchestrator.retry_queue.depth", static_cast<double>(retry_queue_size()));
  return restored;
}

std::size_t NetworkOrchestrator::settle_recovery(std::span<const ClusterId> scope) {
  // Cluster rebuilds may have shifted slices under healthy chains; fix
  // those first so capacity is settled before degraded chains compete.
  // Outside the rebuilt (degraded) clusters a recovery only flips hardware
  // dead -> alive, which moves sweep verdicts toward kNone, so the rebuilt
  // clusters are the whole blast radius.
  ALVC_IGNORE_STATUS(sweep_chains(scope),
                     "repairs of healthy chains are logged per chain; a recovery "
                     "reports restorations instead");
  const std::size_t restored = drain_retry_queue();
  rebalance_bandwidth();
  return restored;
}

void NetworkOrchestrator::set_allocation_policy(AllocationPolicy policy) {
  allocator_.set_policy(policy);
  rebuild_allocation_index();
}

void NetworkOrchestrator::set_tor_budget_factor(double factor) {
  allocator_.set_tor_budget_factor(factor);
  rebuild_allocation_index();
}

void NetworkOrchestrator::rebuild_allocation_index() {
  alloc_index_.reset(allocator_.tor_budget_factor());
  if (allocator_.policy() == AllocationPolicy::kStrictLadder) return;
  for (const NfcId id : sorted_chain_ids()) alloc_index_.mark_dirty(id);
}

void NetworkOrchestrator::set_allocation(ProvisionedChain& chain, ChainRoute route,
                                         double reserved_gbps) {
  chain.route = std::move(route);
  chain.reserved_gbps = reserved_gbps;
  // Strict mode never rebalances, so it keeps no index to invalidate.
  if (allocator_.policy() != AllocationPolicy::kStrictLadder) {
    alloc_index_.mark_dirty(chain.record.id);
  }
}

std::size_t NetworkOrchestrator::rebalance_bandwidth() {
  if (allocator_.policy() == AllocationPolicy::kStrictLadder) return 0;
  if (!alloc_index_.has_dirty()) return 0;  // nothing moved since the last pass
  ALVC_SPAN(span, "orchestrator.rebalance_bandwidth");
  constexpr double kEps = 1e-9;

  // Re-index every dirty chain on its current route (parked and torn-down
  // chains drop out), remembering each resource it used before or uses
  // now: the components to re-plan are exactly those around the dirty
  // chains and those they just left.
  const std::vector<NfcId> dirty = alloc_index_.take_dirty();
  std::vector<std::uint32_t> touched;
  for (const NfcId id : dirty) {
    const auto it = chains_.find(id);
    if (it == chains_.end()) {
      alloc_index_.erase(id, touched);
      continue;
    }
    const ProvisionedChain& chain = it->second;
    alloc_index_.update(id, chain.record.spec.priority, chain.record.spec.bandwidth_gbps,
                        chain.route.vertices, touched);
  }
  const AllocationIndex::Scope scope = alloc_index_.collect(dirty, touched);
  ALVC_OBSERVE("orchestrator.alloc.replanned_chains", 0, 256, 16,
               static_cast<double>(scope.ids.size()));
  if (scope.ids.empty()) return 0;
  const std::vector<NfcId>& ids = scope.ids;

  const AllocationPlan plan = allocator_.plan(scope.chains, scope.resources);
  ALVC_OBSERVE("orchestrator.alloc.waterfill.iterations", 0, 64, 16,
               static_cast<double>(plan.fill_iterations));
  if (plan.lopri_demotions > 0) {
    ALVC_COUNT_N("orchestrator.alloc.lopri_demotions", plan.lopri_demotions);
  }

  std::size_t changed = 0;
  // Shrink pass first: every release lands before any grow reserves, so
  // the grow pass cannot be starved by capacity the plan already moved.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ProvisionedChain& chain = chains_.at(ids[i]);
    const double target = plan.target_gbps[i];
    if (target + kEps >= chain.reserved_gbps) continue;
    ++changed;
    ++stats_.alloc_downgrades;
    if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
      ALVC_COUNT("orchestrator.alloc.downgrades.hipri");
    } else {
      ALVC_COUNT("orchestrator.alloc.downgrades.lopri");
    }
    if (target <= kEps) {
      park_chain(chain);  // rules out, reservation released, route cleared; dirty again
    } else {
      bandwidth_.release_walk(chain.route.vertices, chain.reserved_gbps - target);
      chain.reserved_gbps = target;
      ALVC_IGNORE_STATUS(slices_.set_bandwidth(ids[i], target),
                         "the reservation is the source of truth; the slice record follows");
    }
    // A plan target is a ladder rung or exactly 0, so a parked chain serves 0%.
    set_chain_health(chain, true, sdn::ControlCause::kShedByAllocator,
                     target / chain.record.spec.bandwidth_gbps);
  }
  // Grow pass, ids ascending (the plan's own climb order).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ProvisionedChain& chain = chains_.at(ids[i]);
    const double target = plan.target_gbps[i];
    if (chain.route.vertices.empty()) continue;  // shed to zero above
    if (target <= chain.reserved_gbps + kEps) continue;
    if (!bandwidth_.reserve_walk(chain.route.vertices, target - chain.reserved_gbps).is_ok()) {
      // Defensive: the plan respects raw capacities, but never force it.
      // The chain stays dirty so the next pass re-plans its component.
      alloc_index_.mark_dirty(ids[i]);
      continue;
    }
    chain.reserved_gbps = target;
    ALVC_IGNORE_STATUS(slices_.set_bandwidth(ids[i], target),
                       "the reservation is the source of truth; the slice record follows");
    ++changed;
    ++stats_.alloc_restores;
    if (chain.record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
      ALVC_COUNT("orchestrator.alloc.restores.hipri");
    } else {
      ALVC_COUNT("orchestrator.alloc.restores.lopri");
    }
    if (target + kEps >= chain.record.spec.bandwidth_gbps &&
        std::ranges::all_of(chain.instances, &alvc::util::VnfInstanceId::valid)) {
      set_chain_health(chain, false, sdn::ControlCause::kRestoredByRebalance, 1.0);
    }
  }
  if (changed > 0) {
    ++stats_.alloc_rebalances;
    ALVC_COUNT("orchestrator.alloc.rebalances");
  }
  return changed;
}

std::vector<NfcId> NetworkOrchestrator::sorted_chain_ids() const {
  std::vector<NfcId> ids;
  ids.reserve(by_id_.size());
  for (const ProvisionedChain* chain : by_id_) ids.push_back(chain->record.id);
  return ids;
}

void NetworkOrchestrator::set_sharding(std::size_t shard_count) {
  if (shard_count == 0) throw std::invalid_argument("set_sharding: shard_count must be >= 1");
  // Fold the old shards' retries out first so the new shards inherit them.
  const std::span<const RetryEntry> drained = agent_->drain_retries();
  const std::vector<RetryEntry> retries(drained.begin(), drained.end());
  agent_ = std::make_unique<ControlAgent>(clusters_->topology(), shard_count);
  for (NfcId id : sorted_chain_ids()) {
    agent_->register_chain(id, chains_.at(id).cluster);
  }
  for (const RetryEntry& entry : retries) {
    const auto it = chains_.find(entry.id);
    if (it == chains_.end()) continue;  // dead chain: the next drain would drop it anyway
    agent_->enqueue_retry(entry, it->second.cluster);
  }
}

std::vector<const RouteCache*> NetworkOrchestrator::route_caches() const {
  std::vector<const RouteCache*> out;
  out.reserve(agent_->shard_count());
  for (std::size_t s = 0; s < agent_->shard_count(); ++s) {
    out.push_back(&agent_->shard(s).cache());
  }
  return out;
}

RouteCacheStats NetworkOrchestrator::aggregate_route_cache_stats() const {
  RouteCacheStats total;
  for (const RouteCache* cache : route_caches()) {
    const RouteCacheStats& s = cache->stats();
    total.hits += s.hits;
    total.revalidations += s.revalidations;
    total.misses += s.misses;
    total.stale_evictions += s.stale_evictions;
    total.bypasses += s.bypasses;
    total.invalidations += s.invalidations;
  }
  return total;
}

std::size_t NetworkOrchestrator::retry_queue_size() const noexcept {
  return agent_->retry_count();
}

std::size_t NetworkOrchestrator::degraded_chain_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, chain] : chains_) {
    if (chain.degraded) ++n;
  }
  return n;
}

Expected<std::size_t> NetworkOrchestrator::handle_ops_failure(alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_ops_failure");
  const auto& topo = clusters_->topology();
  if (ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (!topo.ops_usable(ops)) return std::size_t{0};  // duplicate report
  // Repair the AL first (marks the OPS failed in the topology as a side
  // effect, so every later decision sees the failure).
  log_.append(sdn::ControlEventType::kOpsFailed, ops.value());
  touched_.clear();
  const auto repair = clusters_->handle_ops_failure(ops, &touched_);
  if (repair.has_value()) log_.append(sdn::ControlEventType::kAlRepaired, ops.value());
  const std::size_t repaired = sweep_chains(touched_);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_tor_failure(alvc::util::TorId tor) {
  ALVC_SPAN(span, "orchestrator.handle_tor_failure");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (!topo.tor_usable(tor)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kTorFailed, tor.value());
  touched_.clear();
  const auto repair = clusters_->handle_tor_failure(tor, repair_builder_, &touched_);
  if (repair.has_value()) {
    log_.append(sdn::ControlEventType::kAlRepaired, tor.value(),
                sdn::ControlCause::kAlRepairedAfterTorFailure);
  }
  const std::size_t repaired = sweep_chains(touched_);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_server_failure(alvc::util::ServerId server) {
  ALVC_SPAN(span, "orchestrator.handle_server_failure");
  const auto& topo = clusters_->topology();
  if (server.index() >= topo.server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  if (!topo.server_usable(server)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kServerFailed, server.value());
  ALVC_IGNORE_STATUS(clusters_->handle_server_failure(server),
                     "ids were validated above; sweep_chains handles the fallout either way");
  // Server events change no AL; the blast radius is the clusters whose
  // slice contains the box (see server_blast_radius).
  const std::vector<alvc::util::ClusterId> touched = server_blast_radius(server);
  const std::size_t repaired = sweep_chains(touched);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_link_failure(alvc::util::TorId tor,
                                                               alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_link_failure");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  const auto& uplinks = topo.tor(tor).uplinks;
  if (std::find(uplinks.begin(), uplinks.end(), ops) == uplinks.end()) {
    return Error{ErrorCode::kNotFound, "no such ToR-OPS link"};
  }
  if (topo.link_failed(tor, ops)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kLinkFailed, tor.value(), {}, ops.value());
  touched_.clear();
  ALVC_IGNORE_STATUS(clusters_->handle_link_failure(tor, ops, &touched_),
                     "an infeasible AL repair leaves the cluster degraded; sweep_chains "
                     "degrades the affected chains rather than aborting the handler");
  const std::size_t repaired = sweep_chains(touched_);
  rebalance_bandwidth();
  return repaired;
}

Expected<std::size_t> NetworkOrchestrator::handle_ops_recovery(alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_ops_recovery");
  const auto& topo = clusters_->topology();
  if (ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad OPS id"};
  }
  if (topo.ops_usable(ops)) return std::size_t{0};  // was not failed
  log_.append(sdn::ControlEventType::kOpsRecovered, ops.value());
  touched_.clear();
  ALVC_IGNORE_STATUS(clusters_->handle_ops_recovery(ops, repair_builder_, &touched_),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  return settle_recovery(touched_);
}

Expected<std::size_t> NetworkOrchestrator::handle_tor_recovery(alvc::util::TorId tor) {
  ALVC_SPAN(span, "orchestrator.handle_tor_recovery");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad ToR id"};
  }
  if (topo.tor_usable(tor)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kTorRecovered, tor.value());
  touched_.clear();
  ALVC_IGNORE_STATUS(clusters_->handle_tor_recovery(tor, repair_builder_, &touched_),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  return settle_recovery(touched_);
}

Expected<std::size_t> NetworkOrchestrator::handle_server_recovery(alvc::util::ServerId server) {
  ALVC_SPAN(span, "orchestrator.handle_server_recovery");
  const auto& topo = clusters_->topology();
  if (server.index() >= topo.server_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad server id"};
  }
  if (topo.server_usable(server)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kServerRecovered, server.value());
  ALVC_IGNORE_STATUS(clusters_->handle_server_recovery(server),
                     "ids were validated above; a server recovery cannot fail an AL");
  return settle_recovery(server_blast_radius(server));
}

Expected<std::size_t> NetworkOrchestrator::handle_link_recovery(alvc::util::TorId tor,
                                                                alvc::util::OpsId ops) {
  ALVC_SPAN(span, "orchestrator.handle_link_recovery");
  const auto& topo = clusters_->topology();
  if (tor.index() >= topo.tor_count() || ops.index() >= topo.ops_count()) {
    return Error{ErrorCode::kInvalidArgument, "bad link endpoint id"};
  }
  if (!topo.link_failed(tor, ops)) return std::size_t{0};
  log_.append(sdn::ControlEventType::kLinkRecovered, tor.value(), {}, ops.value());
  touched_.clear();
  ALVC_IGNORE_STATUS(clusters_->handle_link_recovery(tor, ops, repair_builder_, &touched_),
                     "a failed cluster rebuild leaves it degraded; recovery proceeds anyway");
  return settle_recovery(touched_);
}

const ProvisionedChain* NetworkOrchestrator::chain(NfcId id) const {
  const auto it = chains_.find(id);
  return it == chains_.end() ? nullptr : &it->second;
}

std::vector<std::string> NetworkOrchestrator::check_isolation() const {
  std::vector<std::string> violations;
  const auto& topo = clusters_->topology();
  for (const NfcId id : sorted_chain_ids()) {
    const ProvisionedChain& chain = chains_.at(id);
    const VirtualCluster* vc = clusters_->find(chain.cluster);
    if (vc == nullptr) {
      violations.push_back("chain " + std::to_string(id.value()) + " references a dead cluster");
      continue;
    }
    std::unordered_set<std::size_t> slice_vertices;
    for (auto t : vc->layer.tors) slice_vertices.insert(topo.tor_vertex(t));
    for (auto o : vc->layer.opss) slice_vertices.insert(topo.ops_vertex(o));
    for (std::size_t v : chain.route.vertices) {
      if (!slice_vertices.contains(v)) {
        violations.push_back("chain " + std::to_string(id.value()) + " rides switch vertex " +
                             std::to_string(v) + " outside its slice");
      }
    }
  }
  return violations;
}

}  // namespace alvc::orchestrator
