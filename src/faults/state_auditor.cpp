#include "faults/state_auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "telemetry/telemetry.h"

namespace alvc::faults {

using alvc::orchestrator::ProvisionedChain;
using alvc::topology::DataCenterTopology;
using alvc::util::NfcId;
using alvc::util::OpsId;
using alvc::util::ServerId;
using alvc::util::TorId;

namespace {

constexpr double kGbpsEps = 1e-6;

std::string chain_tag(const ProvisionedChain& chain) {
  return "chain " + std::to_string(chain.record.id.value());
}

bool host_usable(const DataCenterTopology& topo, const alvc::nfv::HostRef& host) {
  if (const auto* ops = std::get_if<OpsId>(&host)) return topo.ops_usable(*ops);
  const auto server = std::get<ServerId>(host);
  return topo.server_usable(server) && topo.tor_usable(topo.server(server).tor);
}

bool vertex_usable(const DataCenterTopology& topo, std::size_t v) {
  if (topo.is_ops_vertex(v)) return topo.ops_usable(topo.vertex_to_ops(v));
  return topo.tor_usable(topo.vertex_to_tor(v));
}

/// True when `host` is inside the slice of `vc`: an OPS host must be in the
/// AL, a server must hang off one of the AL's ToRs (its primary ToR).
bool host_in_slice(const DataCenterTopology& topo, const alvc::nfv::HostRef& host,
                   const alvc::cluster::VirtualCluster* vc) {
  if (vc == nullptr) return false;
  if (const auto* ops = std::get_if<OpsId>(&host)) return vc->layer.contains_ops(*ops);
  return vc->layer.contains_tor(topo.server(std::get<ServerId>(host)).tor);
}

void audit_chain(const DataCenterTopology& topo, const ProvisionedChain& chain,
                 const alvc::cluster::VirtualCluster* vc, std::vector<std::string>& out) {
  // Placement: live instances must sit on usable hardware inside the
  // chain's slice — the slice is what a fault's blast radius covers, so a
  // live instance outside it would escape every scoped sweep. Degraded
  // chains may carry invalid (terminated) instance slots; those are exempt.
  for (std::size_t i = 0; i < chain.placement.hosts.size(); ++i) {
    const bool live = i >= chain.instances.size() || chain.instances[i].valid();
    if (!live) continue;
    if (!host_usable(topo, chain.placement.hosts[i])) {
      out.push_back(chain_tag(chain) + ": function " + std::to_string(i) +
                    " is placed on failed hardware");
    }
    if (!host_in_slice(topo, chain.placement.hosts[i], vc)) {
      out.push_back(chain_tag(chain) + ": function " + std::to_string(i) +
                    " is live outside its slice");
    }
  }

  // Placement counts: the cached domain and conversion counts must be
  // what finalize_placement derives from the hosts. A forwarding graph's
  // conversion count comes from its DAG route, so only its domain counts
  // are checked.
  alvc::orchestrator::PlacementResult derived{.hosts = chain.placement.hosts};
  alvc::orchestrator::finalize_placement(derived);
  const bool conversions_match =
      chain.graph.has_value() ||
      (derived.conversions.mid_chain == chain.placement.conversions.mid_chain &&
       derived.conversions.endpoint == chain.placement.conversions.endpoint);
  if (!conversions_match || derived.optical_count != chain.placement.optical_count ||
      derived.electronic_count != chain.placement.electronic_count) {
    out.push_back(chain_tag(chain) + ": cached placement counts are stale (" +
                  std::to_string(chain.placement.optical_count) + " optical, " +
                  std::to_string(chain.placement.electronic_count) + " electronic, " +
                  std::to_string(chain.placement.conversions.mid_chain) +
                  " mid-chain conversions; the hosts give " +
                  std::to_string(derived.optical_count) + ", " +
                  std::to_string(derived.electronic_count) + ", " +
                  std::to_string(derived.conversions.mid_chain) + ")");
  }

  // Chain state: a chain is degraded exactly when it records a cause;
  // healthy means full bandwidth and a full set of live instances.
  const double demanded = chain.record.spec.bandwidth_gbps;
  if (chain.degraded != (chain.degraded_reason != alvc::sdn::ControlCause::kNone)) {
    out.push_back(chain_tag(chain) + ": degraded flag and cause disagree");
  }
  if (!chain.degraded) {
    if (std::abs(chain.reserved_gbps - demanded) > kGbpsEps) {
      out.push_back(chain_tag(chain) + ": healthy but holds " +
                    std::to_string(chain.reserved_gbps) + " of " + std::to_string(demanded) +
                    " Gbps");
    }
    for (std::size_t i = 0; i < chain.instances.size(); ++i) {
      if (!chain.instances[i].valid()) {
        out.push_back(chain_tag(chain) + ": healthy but instance " + std::to_string(i) +
                      " is terminated");
      }
    }
  } else if (chain.reserved_gbps > demanded + kGbpsEps) {
    out.push_back(chain_tag(chain) + ": degraded yet over-reserved");
  }

  // Route: every vertex usable, every hop a live switch-graph edge.
  const auto& graph = topo.switch_graph();
  for (std::size_t v : chain.route.vertices) {
    if (!vertex_usable(topo, v)) {
      out.push_back(chain_tag(chain) + ": route visits failed vertex " + std::to_string(v));
    }
  }
  for (const auto& leg : chain.route.legs) {
    for (std::size_t i = 0; i + 1 < leg.size(); ++i) {
      if (leg[i] == leg[i + 1]) continue;
      if (!graph.has_edge(leg[i], leg[i + 1])) {
        out.push_back(chain_tag(chain) + ": route hop " + std::to_string(leg[i]) + "->" +
                      std::to_string(leg[i + 1]) + " is not a live link");
      }
    }
  }
}

}  // namespace

std::vector<std::string> StateAuditor::audit(
    const alvc::orchestrator::NetworkOrchestrator& orch) {
  ALVC_SPAN(span, "faults.state_audit");
  ALVC_COUNT("faults.audit.runs");
  std::vector<std::string> out;
  const auto& clusters = orch.clusters();
  const auto& topo = clusters.topology();

  for (const std::string& v : clusters.check_invariants()) out.push_back("cluster: " + v);
  for (const std::string& v : orch.check_isolation()) out.push_back("isolation: " + v);

  // The id index behind chains(): strictly ascending, one entry per live
  // chain, each the pointer chain(id) hands out.
  const auto chains = orch.chains();
  if (chains.size() != orch.chain_count()) {
    out.push_back("orchestrator: chain index holds " + std::to_string(chains.size()) +
                  " chains, " + std::to_string(orch.chain_count()) + " live");
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const auto id = chains[i]->record.id;
    if (i > 0 && !(chains[i - 1]->record.id < id)) {
      out.push_back("orchestrator: chain index not strictly ascending at chain " +
                    std::to_string(id.value()));
    }
    if (orch.chain(id) != chains[i]) {
      out.push_back("orchestrator: chain index entry for chain " + std::to_string(id.value()) +
                    " is not the live chain");
    }
  }

  std::unordered_set<std::uint32_t> live_chains;
  std::size_t mid_chain_conversions = 0;
  for (const ProvisionedChain* chain : chains) {
    live_chains.insert(chain->record.id.value());
    audit_chain(topo, *chain, clusters.find(chain->cluster), out);
    mid_chain_conversions +=
        alvc::orchestrator::count_conversions(chain->placement.hosts).mid_chain;
  }
  // The orchestrator's running conversion total (what the elastic ledger
  // reads) must equal the recount over live chains.
  if (orch.mid_chain_conversions() != mid_chain_conversions) {
    out.push_back("orchestrator: running mid-chain conversion total " +
                  std::to_string(orch.mid_chain_conversions()) + " != recount " +
                  std::to_string(mid_chain_conversions));
  }

  // Flow tables: every rule belongs to a live chain and forwards over a
  // live link of the current switch graph (failed elements have no edges).
  const auto& tables = orch.controller().tables();
  const auto& graph = topo.switch_graph();
  for (std::size_t v = 0; v < tables.switch_count(); ++v) {
    for (const auto& rule : tables.table(v).rules()) {
      if (!live_chains.contains(rule.nfc.value())) {
        out.push_back("flow table " + std::to_string(v) + ": stale rule for chain " +
                      std::to_string(rule.nfc.value()));
      }
      if (v != rule.next_hop && !graph.has_edge(v, rule.next_hop)) {
        out.push_back("flow table " + std::to_string(v) + ": rule forwards over dead link to " +
                      std::to_string(rule.next_hop));
      }
    }
  }

  // Route cache(s): everything a cache would serve right now must still be
  // servable (walks live hardware, carries an intact path fingerprint).
  // Under sharding each shard owns a cache over its own clusters' keys;
  // coherence is per-entry, so checking each against the full cluster set
  // is exactly the serial check partitioned.
  for (const auto* cache : orch.route_caches()) {
    for (const std::string& v : cache->check_coherence(clusters.clusters())) {
      out.push_back("route-cache: " + v);
    }
  }

  // Bandwidth: reservations fit capacity and ride live links.
  for (const auto& link : orch.bandwidth().reserved_links()) {
    const std::string tag =
        "link " + std::to_string(link.u) + "-" + std::to_string(link.v);
    if (link.gbps > orch.bandwidth().capacity_gbps(link.u, link.v) + kGbpsEps) {
      out.push_back(tag + ": reserved " + std::to_string(link.gbps) + " Gbps exceeds capacity");
    }
    if (!vertex_usable(topo, link.u) || !vertex_usable(topo, link.v) ||
        !graph.has_edge(link.u, link.v)) {
      out.push_back(tag + ": reservation rides a dead link");
    }
  }

  // Slice capacity: per cluster, the reservations riding its own ToR-OPS
  // uplinks must fit within the slice's live aggregate uplink capacity.
  // One pass over the reservations: an OPS belongs to at most one AL (the
  // exclusivity invariant, checked above via cluster invariants), so each
  // uplink attributes to its owner in O(1) — the old clusters x
  // reservations scan was quadratic and dominated the closing audit at the
  // 100k-cluster scale.
  std::unordered_map<std::uint32_t, double> slice_reserved;
  for (const auto& link : orch.bandwidth().reserved_links()) {
    const bool u_ops = topo.is_ops_vertex(link.u);
    const bool v_ops = topo.is_ops_vertex(link.v);
    if (u_ops == v_ops) continue;  // ToR-OPS uplinks only
    const OpsId ops = topo.vertex_to_ops(u_ops ? link.u : link.v);
    const TorId tor = topo.vertex_to_tor(u_ops ? link.v : link.u);
    const auto owner = clusters.ownership().owner(ops);
    if (!owner.valid()) continue;  // free-pool OPS: no slice to charge
    const auto* vc = clusters.find(owner);
    if (vc == nullptr || !vc->layer.contains_ops(ops) || !vc->layer.contains_tor(tor)) continue;
    slice_reserved[owner.value()] += link.gbps;
  }
  for (const auto* vc : clusters.clusters()) {
    const auto it = slice_reserved.find(vc->id.value());
    const double reserved = it == slice_reserved.end() ? 0.0 : it->second;
    const double cap = clusters.slice_uplink_capacity_gbps(vc->id);
    if (reserved > cap + kGbpsEps) {
      out.push_back("slice " + std::to_string(vc->id.value()) + ": reserved " +
                    std::to_string(reserved) + " Gbps exceeds its " + std::to_string(cap) +
                    " Gbps live uplink capacity");
    }
  }

  // QoS invariants: re-derive the allocator's resource view (each distinct
  // route link at coeff 1.0 plus per-ToR aggregate uplink budgets) from
  // primary state and check the fairness contracts the rebalance claims.
  const auto policy = orch.allocation_policy();
  if (policy != alvc::orchestrator::AllocationPolicy::kStrictLadder) {
    using alvc::orchestrator::BandwidthAllocator;
    // Resource key: (is ToR budget, id) — id is the packed (lo,hi) vertex
    // pair for links, the ToR vertex for budgets.
    using ResKey = std::pair<bool, std::uint64_t>;
    struct ResView {
      double cap = 0;
      double used = 0;        // all classes
      double used_hipri = 0;  // HIPRI reservations only
    };
    const double factor = orch.allocator().tor_budget_factor();
    const auto uses_of = [&](const ProvisionedChain& chain) {
      std::vector<std::pair<ResKey, double>> uses;
      std::vector<std::uint64_t> links;
      for (std::size_t i = 0; i + 1 < chain.route.vertices.size(); ++i) {
        const auto [lo, hi] =
            std::minmax(chain.route.vertices[i], chain.route.vertices[i + 1]);
        if (lo == hi) continue;
        links.push_back((static_cast<std::uint64_t>(lo) << 32) |
                        static_cast<std::uint64_t>(hi & 0xffffffffULL));
      }
      std::sort(links.begin(), links.end());
      links.erase(std::unique(links.begin(), links.end()), links.end());
      for (std::uint64_t k : links) {
        uses.emplace_back(ResKey{false, k}, 1.0);
        if (factor <= 0) continue;
        for (const std::size_t end :
             {static_cast<std::size_t>(k >> 32), static_cast<std::size_t>(k & 0xffffffffULL)}) {
          if (topo.is_ops_vertex(end)) continue;
          const ResKey key{true, end};
          const auto prior = std::find_if(uses.begin(), uses.end(),
                                          [&](const auto& use) { return use.first == key; });
          if (prior == uses.end()) {
            uses.emplace_back(key, 1.0);
          } else {
            prior->second += 1.0;
          }
        }
      }
      return uses;
    };
    const auto capacity_of = [&](const ResKey& key) {
      if (key.first) {
        return factor * topo.tor(topo.vertex_to_tor(static_cast<std::size_t>(key.second)))
                            .port_bandwidth_gbps;
      }
      return orch.bandwidth().capacity_gbps(static_cast<std::size_t>(key.second >> 32),
                                            static_cast<std::size_t>(key.second & 0xffffffffULL));
    };
    std::map<ResKey, ResView> view;
    for (const ProvisionedChain* chain : chains) {
      if (chain->route.vertices.empty()) continue;
      const bool hipri = chain->record.spec.priority == alvc::nfv::PriorityClass::kHipri;
      for (const auto& [key, coeff] : uses_of(*chain)) {
        ResView& res = view[key];
        res.cap = capacity_of(key);
        res.used += coeff * chain->reserved_gbps;
        if (hipri) res.used_hipri += coeff * chain->reserved_gbps;
      }
    }
    for (const ProvisionedChain* chain : chains) {
      if (chain->route.vertices.empty()) continue;
      const double demand = chain->record.spec.bandwidth_gbps;
      const double held = chain->reserved_gbps;
      if (held >= demand - kGbpsEps) continue;  // at full demand
      const double next = BandwidthAllocator::next_rung_gbps(demand, held);
      if (next <= held) continue;
      const double add = next - held;
      const auto uses = uses_of(*chain);
      // Work conservation: a chain short of its demand must be blocked on
      // at least one of its resources. Only flag when every resource has
      // comfortable headroom (kGbpsEps margin, far coarser than the
      // allocator's own 1e-9) so borderline fits never false-positive.
      bool blocked = false;
      for (const auto& [key, coeff] : uses) {
        const ResView& res = view.at(key);
        if (res.cap - res.used < coeff * add + kGbpsEps) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        out.push_back(chain_tag(*chain) + ": holds " + std::to_string(held) + " of " +
                      std::to_string(demand) +
                      " Gbps yet every resource has headroom for the next rung");
      }
      // Priority-feasibility: under selective downgrade a short HIPRI
      // chain must stay blocked even with every LOPRI reservation
      // excluded — LOPRI never holds capacity a degraded HIPRI could use.
      if (policy == alvc::orchestrator::AllocationPolicy::kPriorityDowngrade &&
          chain->record.spec.priority == alvc::nfv::PriorityClass::kHipri) {
        bool blocked_sans_lopri = false;
        for (const auto& [key, coeff] : uses) {
          const ResView& res = view.at(key);
          if (res.cap - res.used_hipri < coeff * add + kGbpsEps) {
            blocked_sans_lopri = true;
            break;
          }
        }
        if (!blocked_sans_lopri) {
          out.push_back(chain_tag(*chain) +
                        ": HIPRI short of demand while LOPRI holds its blocking capacity");
        }
      }
    }
  }

  // VNF instance accounting (the elastic loop's scale/migrate actions must
  // never leak): (a) every chain's instance list matches its placement
  // slot-for-slot; (b) every non-terminated instance is referenced by
  // exactly one chain slot — no orphans after a migration, no sharing —
  // and carries a positive scale factor; (c) per host, the hosting pool's
  // reserved books equal the sum of live instances' scaled demand
  // (demand-accounting conservation), and its cached utilization equals
  // the one its books give.
  {
    using alvc::nfv::VnfState;
    using alvc::util::VnfInstanceId;
    const auto& lifecycle = orch.cloud().lifecycle();
    std::map<std::uint32_t, std::size_t> references;
    for (const ProvisionedChain* chain : chains) {
      if (chain->instances.size() != chain->placement.hosts.size()) {
        out.push_back(chain_tag(*chain) + ": " + std::to_string(chain->instances.size()) +
                      " instance slots for " + std::to_string(chain->placement.hosts.size()) +
                      " placed functions");
      }
      for (auto inst : chain->instances) {
        if (inst.valid()) ++references[inst.value()];
      }
    }
    // (is_ops, id) -> scaled demand of live instances there; std::map so
    // any violation text comes out in a deterministic order.
    std::map<std::pair<bool, std::uint32_t>, alvc::topology::Resources> hosted;
    for (std::size_t raw = 0; raw < lifecycle.instance_count(); ++raw) {
      const VnfInstanceId id{static_cast<VnfInstanceId::value_type>(raw)};
      const auto& inst = lifecycle.instance(id);
      const auto ref_it = references.find(inst.id.value());
      const std::size_t refs = ref_it == references.end() ? 0 : ref_it->second;
      const std::string tag = "instance " + std::to_string(inst.id.value());
      if (inst.state == VnfState::kTerminated) {
        if (refs != 0) out.push_back(tag + ": terminated yet still referenced by a chain");
        continue;
      }
      if (refs == 0) {
        out.push_back(tag + ": live (" + std::string(to_string(inst.state)) +
                      ") but referenced by no chain — orphaned");
      } else if (refs > 1) {
        out.push_back(tag + ": referenced by " + std::to_string(refs) + " chain slots");
      }
      if (inst.scale <= 0) {
        out.push_back(tag + ": non-positive scale factor " + std::to_string(inst.scale));
      }
      const auto key = std::holds_alternative<OpsId>(inst.host)
                           ? std::pair{true, std::get<OpsId>(inst.host).value()}
                           : std::pair{false, std::get<ServerId>(inst.host).value()};
      hosted[key] += orch.cloud().reserved_demand(inst.id);
    }
    constexpr double kResEps = 1e-6;
    const auto& pool = orch.cloud().pool();
    const auto check_host = [&](const alvc::nfv::HostRef& host, bool is_ops, std::uint32_t id,
                                const alvc::topology::Resources& nominal) {
      const auto it = hosted.find({is_ops, id});
      const alvc::topology::Resources expected =
          it == hosted.end() ? alvc::topology::Resources{} : it->second;
      const alvc::topology::Resources booked = pool.reserved_on(host);
      const std::string tag = std::string(is_ops ? "ops " : "server ") + std::to_string(id);
      if (std::abs(booked.cpu_cores - expected.cpu_cores) > kResEps ||
          std::abs(booked.memory_gb - expected.memory_gb) > kResEps ||
          std::abs(booked.storage_gb - expected.storage_gb) > kResEps) {
        out.push_back(tag + ": pool books " + std::to_string(booked.cpu_cores) +
                      " cores but live instances sum to " + std::to_string(expected.cpu_cores) +
                      " (reservation conservation)");
      }
      // The migration planner reads the cached utilization, never the
      // books: a write that skipped its refresh would hide a hot host.
      const double cached = pool.utilization(host);
      const double recomputed = alvc::nfv::utilization_of(booked, nominal);
      if (cached != recomputed) {
        out.push_back(tag + ": cached utilization " + std::to_string(cached) +
                      " but the books give " + std::to_string(recomputed));
      }
    };
    for (const auto& server : topo.servers()) {
      check_host(alvc::nfv::HostRef{server.id}, false, server.id.value(), server.capacity);
    }
    for (const auto& ops : topo.opss()) {
      if (!ops.optoelectronic) continue;
      check_host(alvc::nfv::HostRef{ops.id}, true, ops.id.value(), ops.compute);
    }
  }

  ALVC_COUNT_N("faults.audit.violations", out.size());
  return out;
}

}  // namespace alvc::faults
