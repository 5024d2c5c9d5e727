#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>

#include "metrics.h"
#include "util/rng.h"

namespace alvc::e2e {

using alvc::faults::FaultEvent;
using alvc::faults::FaultInjector;
using alvc::faults::FaultKind;
using alvc::nfv::PriorityClass;
using alvc::nfv::VnfType;
using alvc::orchestrator::AllocationPolicy;
using alvc::util::Rng;

const char* to_string(Workload workload) noexcept {
  switch (workload) {
    case Workload::kChurnQos: return "churn_qos";
    case Workload::kFaultStorm: return "fault_storm";
    case Workload::kElasticMixed: return "elastic_mixed";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) noexcept {
  for (const Workload w : kAllWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

namespace {

/// Slots are services; with server_local_services every service is a
/// contiguous run of servers, so `servers_per_service` fixes AL extent.
alvc::topology::TopologyParams slot_topology(std::size_t racks, std::size_t servers_per_rack,
                                             std::size_t slots, std::size_t ops,
                                             std::size_t degree) {
  alvc::topology::TopologyParams p;
  p.rack_count = racks;
  p.servers_per_rack = servers_per_rack;
  p.vms_per_server = 2;
  p.ops_count = ops;
  p.tor_ops_degree = degree;
  p.uplink_locality = 1.0;
  p.core = alvc::topology::CoreKind::kNone;
  p.optoelectronic_fraction = 0.5;
  p.service_count = slots;
  p.server_local_services = true;
  p.seed = 20160627;
  return p;
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(4, static_cast<std::size_t>(std::lround(n * scale)));
}

}  // namespace

WorkloadShape make_shape(Workload workload, double scale) {
  if (!(scale > 0 && scale <= 1)) throw std::invalid_argument("scale must be in (0, 1]");
  WorkloadShape s;
  s.workload = workload;
  switch (workload) {
    case Workload::kChurnQos: {
      // 1024 racks x 8 servers, two service slots per rack sharing one
      // port's worth of ToR budget; about half the slots hold a chain at
      // any time, so a rack oversubscribes when both of its slots do.
      const std::size_t racks = scaled(1024, scale);
      s.topology = slot_topology(racks, 8, 2 * racks, 2 * racks, 4);
      s.policy = AllocationPolicy::kPriorityDowngrade;
      s.tor_budget_factor = 1.0;
      s.initial_occupancy = 0.5;
      s.gbps_choices = {2.0, 4.0, 6.0, 8.0};
      s.arrival_rate_per_s = 50.0;
      s.mean_hold_s = static_cast<double>(racks) / s.arrival_rate_per_s;
      s.events_per_second = 1100;
      break;
    }
    case Workload::kFaultStorm: {
      // 1024 racks, two racks per slot (multi-rack ALs), every slot
      // populated, strict ladder; MTBF/MTTR faults on every element class
      // plus scripted whole-AL / whole-rack outages and flapping links.
      const std::size_t racks = scaled(1024, scale);
      s.topology = slot_topology(racks, 4, racks / 2, racks, 3);
      s.policy = AllocationPolicy::kStrictLadder;
      s.initial_occupancy = 1.0;
      s.gbps_choices = {1.0, 2.0};
      s.ops_rates = {.mtbf_s = 2000, .mttr_s = 10};
      s.tor_rates = {.mtbf_s = 4000, .mttr_s = 10};
      s.server_rates = {.mtbf_s = 8000, .mttr_s = 8};
      s.link_rates = {.mtbf_s = 3000, .mttr_s = 6};
      s.whole_al_period_s = 50;
      s.whole_al_outage_s = 20;
      s.whole_rack_period_s = 60;
      s.whole_rack_outage_s = 15;
      s.flapping_links = 8;
      s.flap_period_s = 10;
      s.flap_down_s = 2;
      s.events_per_second = 12000;
      break;
    }
    case Workload::kElasticMixed: {
      // A smaller fabric whose chains scale and migrate every tick, with
      // gentle faults and light churn underneath.
      const std::size_t racks = scaled(256, scale);
      s.topology = slot_topology(racks, 4, 2 * racks, 2 * racks, 4);
      s.topology.optoelectronic_fraction = 0.75;
      s.policy = AllocationPolicy::kPriorityDowngrade;
      s.initial_occupancy = 0.75;
      s.min_functions = 2;
      s.max_functions = 2;
      s.gbps_choices = {2.0, 4.0};
      s.arrival_rate_per_s = 0.1;
      s.mean_hold_s = 0.75 * static_cast<double>(2 * racks) / s.arrival_rate_per_s;
      s.ops_rates = {.mtbf_s = 30000, .mttr_s = 5};
      s.tor_rates = {.mtbf_s = 60000, .mttr_s = 4};
      s.server_rates = {.mtbf_s = 50000, .mttr_s = 4};
      s.link_rates = {.mtbf_s = 40000, .mttr_s = 4};
      s.tick_period_s = 0.5;
      s.events_per_second = 1400;
      break;
    }
  }
  return s;
}

std::size_t event_budget(const WorkloadShape& shape, double seconds) {
  constexpr std::size_t kFloor = 2000;  // keeps event_p99 over >= 1000 samples
  const double n = std::ceil(shape.events_per_second * std::max(seconds, 0.0));
  return std::max(kFloor, static_cast<std::size_t>(n));
}

alvc::core::DataCenterConfig datacenter_config(const WorkloadShape& shape) {
  alvc::core::DataCenterConfig config;
  config.topology = shape.topology;
  config.seed = shape.topology.seed;
  return config;
}

namespace {

// Substream tags, so each part of the schedule draws from its own stream
// and toggling one part never shifts another.
constexpr std::uint64_t kPopulationStream = 0x706f70;
constexpr std::uint64_t kChurnStream = 0x636875726e;
constexpr std::uint64_t kFaultStream = 0x6661756c74;
constexpr std::uint64_t kWholeAlStream = 0x616c;
constexpr std::uint64_t kWholeRackStream = 0x7261636b;
constexpr std::uint64_t kFlapStream = 0x666c6170;

std::uint64_t substream(std::uint64_t seed, std::uint64_t tag) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (tag + 0x632be59bd9b4e019ULL);
}

constexpr std::array kPalette{VnfType::kFirewall, VnfType::kNat, VnfType::kSecurityGateway,
                              VnfType::kLoadBalancer, VnfType::kProxy};

ChainRequest draw_request(const WorkloadShape& shape, Rng& rng, std::uint32_t slot,
                          std::uint32_t key) {
  ChainRequest r;
  r.slot = slot;
  r.key = key;
  r.gbps = shape.gbps_choices[rng.uniform_index(shape.gbps_choices.size())];
  r.cls = rng.bernoulli(shape.hipri_fraction) ? PriorityClass::kHipri : PriorityClass::kLopri;
  const auto count = static_cast<std::size_t>(
      rng.uniform_u64(shape.min_functions, shape.max_functions));
  r.function_count = static_cast<std::uint8_t>(std::min<std::size_t>(count, r.functions.size()));
  for (std::size_t i = 0; i < r.function_count; ++i) {
    // Elastic chains are firewall+nat pairs (they fit a 4-core
    // optoelectronic router at 2x scale); the rest draw from the palette.
    r.functions[i] = shape.tick_period_s > 0 ? kPalette[i % 2]
                                             : kPalette[rng.uniform_index(kPalette.size())];
  }
  return r;
}

struct Departure {
  double time_s;
  std::uint32_t slot;
  std::uint32_t key;
  bool operator>(const Departure& other) const noexcept {
    return time_s != other.time_s ? time_s > other.time_s : key > other.key;
  }
};

using DepartureQueue =
    std::priority_queue<Departure, std::vector<Departure>, std::greater<Departure>>;

/// Initial population plus churn up to `horizon_s`. Slot occupancy is
/// tracked by the generator, so an arrival always lands in a free slot.
void generate_load(const WorkloadShape& shape, std::size_t slots, std::uint64_t seed,
                   double horizon_s, Schedule& out) {
  Rng pop(substream(seed, kPopulationStream));
  Rng churn(substream(seed, kChurnStream));
  std::vector<std::uint32_t> order(slots);
  for (std::uint32_t i = 0; i < slots; ++i) order[i] = i;
  pop.shuffle(order);
  const auto initial = std::min(
      slots, static_cast<std::size_t>(std::lround(shape.initial_occupancy * slots)));

  std::uint32_t next_key = 0;
  DepartureQueue departures;
  const double departure_rate = 1.0 / shape.mean_hold_s;
  for (std::size_t i = 0; i < initial; ++i) {
    out.initial.push_back(draw_request(shape, pop, order[i], next_key++));
    if (shape.arrival_rate_per_s > 0) {
      departures.push({churn.exponential(departure_rate), order[i], out.initial.back().key});
    }
  }
  if (shape.arrival_rate_per_s <= 0) return;

  // Free slots as a swap-remove pool; occupancy flips only here.
  std::vector<std::uint32_t> free(order.begin() + static_cast<std::ptrdiff_t>(initial),
                                  order.end());
  const auto depart_until = [&](double t) {
    while (!departures.empty() && departures.top().time_s <= t) {
      const Departure d = departures.top();
      departures.pop();
      ScheduledEvent e;
      e.time_s = d.time_s;
      e.kind = EventKind::kTeardown;
      e.chain.slot = d.slot;
      e.chain.key = d.key;
      out.events.push_back(e);
      free.push_back(d.slot);
    }
  };
  for (double t = churn.exponential(shape.arrival_rate_per_s); t < horizon_s;
       t += churn.exponential(shape.arrival_rate_per_s)) {
    depart_until(t);
    if (free.empty()) continue;
    const std::size_t pick = churn.uniform_index(free.size());
    const std::uint32_t slot = free[pick];
    free[pick] = free.back();
    free.pop_back();
    ScheduledEvent e;
    e.time_s = t;
    e.kind = EventKind::kProvision;
    e.chain = draw_request(shape, churn, slot, next_key++);
    out.events.push_back(e);
    departures.push({t + churn.exponential(departure_rate), slot, e.chain.key});
  }
  depart_until(horizon_s);
}

std::vector<FaultEvent> generate_faults(const WorkloadShape& shape,
                                        const alvc::core::DataCenter& dc, std::uint64_t seed,
                                        double horizon_s) {
  const auto& topo = dc.topology();
  alvc::faults::FaultScheduleParams params;
  params.ops = shape.ops_rates;
  params.tor = shape.tor_rates;
  params.server = shape.server_rates;
  params.link = shape.link_rates;
  params.horizon_s = horizon_s;
  params.seed = substream(seed, kFaultStream);
  std::vector<FaultEvent> events = FaultInjector::generate(topo, params);

  const auto append = [&](const std::vector<FaultEvent>& more) {
    for (const FaultEvent& e : more) {
      if (e.time_s < horizon_s) events.push_back(e);
    }
  };
  const auto clusters = dc.clusters().clusters();  // ascending id
  if (shape.whole_al_period_s > 0 && !clusters.empty()) {
    Rng rng(substream(seed, kWholeAlStream));
    for (double t = shape.whole_al_period_s; t < horizon_s; t += shape.whole_al_period_s) {
      const auto* vc = clusters[rng.uniform_index(clusters.size())];
      append(FaultInjector::whole_al(*vc, t, shape.whole_al_outage_s, 0.5));
    }
  }
  if (shape.whole_rack_period_s > 0) {
    Rng rng(substream(seed, kWholeRackStream));
    for (double t = shape.whole_rack_period_s; t < horizon_s; t += shape.whole_rack_period_s) {
      const alvc::util::TorId tor{static_cast<std::uint32_t>(rng.uniform_index(topo.tor_count()))};
      append(FaultInjector::whole_rack(topo, tor, t, shape.whole_rack_outage_s));
    }
  }
  Rng flap(substream(seed, kFlapStream));
  for (std::size_t i = 0; i < shape.flapping_links; ++i) {
    const auto tor = static_cast<std::uint32_t>(flap.uniform_index(topo.tor_count()));
    const auto& uplinks = topo.tor(alvc::util::TorId{tor}).uplinks;
    if (uplinks.empty()) continue;
    const std::uint32_t ops = uplinks[flap.uniform_index(uplinks.size())].value();
    const double phase = flap.uniform(0.0, shape.flap_period_s);
    for (double t = phase; t < horizon_s; t += shape.flap_period_s) {
      events.push_back({.time_s = t, .kind = FaultKind::kLink, .failure = true, .id = tor,
                        .ops = ops});
      if (t + shape.flap_down_s < horizon_s) {
        events.push_back({.time_s = t + shape.flap_down_s, .kind = FaultKind::kLink,
                          .failure = false, .id = tor, .ops = ops});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  return events;
}

/// Every event of the shape below `horizon_s`, ascending time. On a tie,
/// faults land before load and load before ticks (ChaosRunner's order).
Schedule generate_until(const WorkloadShape& shape, const alvc::core::DataCenter& dc,
                        std::uint64_t seed, double horizon_s) {
  Schedule out;
  generate_load(shape, dc.topology().service_count(), seed, horizon_s, out);
  std::vector<ScheduledEvent> merged;
  for (const FaultEvent& f : generate_faults(shape, dc, seed, horizon_s)) {
    ScheduledEvent e;
    e.time_s = f.time_s;
    e.kind = EventKind::kFault;
    e.fault = f;
    merged.push_back(e);
  }
  merged.insert(merged.end(), out.events.begin(), out.events.end());
  if (shape.tick_period_s > 0) {
    for (double t = shape.tick_period_s; t < horizon_s; t += shape.tick_period_s) {
      ScheduledEvent e;
      e.time_s = t;
      e.kind = EventKind::kTick;
      merged.push_back(e);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ScheduledEvent& a, const ScheduledEvent& b) {
                     return a.time_s < b.time_s;
                   });
  out.events = std::move(merged);
  return out;
}

}  // namespace

Schedule generate_schedule(const WorkloadShape& shape, const alvc::core::DataCenter& dc,
                           std::uint64_t seed, std::size_t budget) {
  if (dc.orchestrator().chain_count() != 0) {
    throw std::invalid_argument("generate_schedule: the data center already holds chains");
  }
  // Grow the horizon until it holds the budget, then cut to it: the cut
  // is the same for every horizon that holds it, because each stream is
  // generated in time order from its own substream.
  double horizon_s = 64;
  for (int attempt = 0; attempt < 40; ++attempt, horizon_s *= 2) {
    Schedule s = generate_until(shape, dc, seed, horizon_s);
    if (s.events.size() < budget) continue;
    s.events.resize(budget);
    s.horizon_s = s.events.empty() ? 0.0 : s.events.back().time_s;
    return s;
  }
  throw std::runtime_error("generate_schedule: event budget unreachable for this shape");
}

namespace {

void hash_request(Fnv1a& h, const ChainRequest& r) {
  h.u64(r.slot);
  h.u64(r.key);
  h.f64(r.gbps);
  h.u64(static_cast<std::uint64_t>(r.cls));
  h.u64(r.function_count);
  for (std::size_t i = 0; i < r.function_count; ++i) h.u64(static_cast<std::uint64_t>(r.functions[i]));
}

}  // namespace

std::uint64_t schedule_digest(const Schedule& schedule) {
  Fnv1a h;
  h.u64(schedule.initial.size());
  for (const ChainRequest& r : schedule.initial) hash_request(h, r);
  h.u64(schedule.events.size());
  for (const ScheduledEvent& e : schedule.events) {
    h.f64(e.time_s);
    h.u64(static_cast<std::uint64_t>(e.kind));
    switch (e.kind) {
      case EventKind::kProvision: hash_request(h, e.chain); break;
      case EventKind::kTeardown: h.u64(e.chain.key); break;
      case EventKind::kFault:
        h.u64(static_cast<std::uint64_t>(e.fault.kind));
        h.u64(e.fault.failure ? 1 : 0);
        h.u64(e.fault.id);
        h.u64(e.fault.ops);
        break;
      case EventKind::kTick: break;
    }
  }
  h.f64(schedule.horizon_s);
  return h.state;
}

alvc::nfv::NfcSpec to_spec(const ChainRequest& request, const alvc::nfv::VnfCatalog& catalog) {
  alvc::nfv::NfcSpec spec;
  spec.service = alvc::util::ServiceId{request.slot};
  spec.name = "slot" + std::to_string(request.slot) + "-k" + std::to_string(request.key);
  spec.bandwidth_gbps = request.gbps;
  spec.priority = request.cls;
  for (std::size_t i = 0; i < request.function_count; ++i) {
    const auto id = catalog.find_by_type(request.functions[i]);
    if (!id) throw std::runtime_error("catalog lacks a palette VNF");
    spec.functions.push_back(*id);
  }
  return spec;
}

}  // namespace alvc::e2e
