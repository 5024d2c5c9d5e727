// Workload shapes and the seeded event-schedule generator of the
// end-to-end control-plane benchmark.
//
// A workload is a data-center shape plus a load model. The schedule for a
// seed is generated in full before anything is timed: the initial chain
// population, then provision/teardown churn into service slots, fault and
// repair events (FaultInjector's MTBF/MTTR processes plus scripted
// whole-AL, whole-rack and flapping-link outages) and elastic controller
// ticks, merged by simulated time and cut to an event budget. A slot is a
// service: its cluster's AL backs at most one chain at a time, so arrivals
// only ever target slots the schedule itself holds free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/datacenter.h"
#include "faults/fault_injector.h"
#include "nfv/nfc.h"
#include "nfv/vnf.h"
#include "orchestrator/bandwidth_allocator.h"
#include "topology/builder.h"

namespace alvc::e2e {

enum class Workload : std::uint8_t { kChurnQos, kFaultStorm, kElasticMixed };

inline constexpr std::array kAllWorkloads{Workload::kChurnQos, Workload::kFaultStorm,
                                          Workload::kElasticMixed};

[[nodiscard]] const char* to_string(Workload workload) noexcept;
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name) noexcept;

/// Deployment and load model of one workload.
struct WorkloadShape {
  Workload workload = Workload::kChurnQos;
  alvc::topology::TopologyParams topology;
  alvc::orchestrator::AllocationPolicy policy = alvc::orchestrator::AllocationPolicy::kStrictLadder;
  /// Per-ToR aggregate uplink budget, in port bandwidths (the
  /// allocator's knob; 2 is the library default).
  double tor_budget_factor = 2.0;
  /// Fraction of service slots holding a chain after set-up.
  double initial_occupancy = 0.5;

  // Chain requests: functions drawn from a small-VNF palette, bandwidth
  // drawn uniformly from `gbps_choices`, HIPRI with `hipri_fraction`.
  std::size_t min_functions = 2;
  std::size_t max_functions = 4;
  std::vector<double> gbps_choices{1.0};
  double hipri_fraction = 0.5;

  // Churn: Poisson arrivals into free slots, exponential holding times.
  double arrival_rate_per_s = 0;  // 0 disables churn
  double mean_hold_s = 1;

  // Faults.
  alvc::faults::ElementRates ops_rates;
  alvc::faults::ElementRates tor_rates;
  alvc::faults::ElementRates server_rates;
  alvc::faults::ElementRates link_rates;
  double whole_al_period_s = 0;  // one whole-AL outage per period; 0 disables
  double whole_al_outage_s = 0;
  double whole_rack_period_s = 0;  // one whole-rack outage per period; 0 disables
  double whole_rack_outage_s = 0;
  std::size_t flapping_links = 0;
  double flap_period_s = 0;
  double flap_down_s = 0;

  // Elastic controller ticks; 0 disables the controller.
  double tick_period_s = 0;

  /// Schedule events per second of replay: the budget is sized so the
  /// replays of a run take about --seconds on the reference host.
  double events_per_second = 1000;
};

/// The shape of `workload`. `scale` in (0, 1] shrinks the data center
/// (racks and slots) for unit tests; the benchmark always runs at 1.
[[nodiscard]] WorkloadShape make_shape(Workload workload, double scale = 1.0);

/// Schedule events for `seconds` of replay (never below a floor that
/// keeps the p99 of all events supported).
[[nodiscard]] std::size_t event_budget(const WorkloadShape& shape, double seconds);

/// The data center of a shape: topology built, clusters not yet.
[[nodiscard]] alvc::core::DataCenterConfig datacenter_config(const WorkloadShape& shape);

/// One chain the schedule asks for.
struct ChainRequest {
  std::uint32_t slot = 0;  // service id
  std::uint32_t key = 0;   // correlates a teardown with its provision
  double gbps = 1.0;
  alvc::nfv::PriorityClass cls = alvc::nfv::PriorityClass::kHipri;
  std::uint8_t function_count = 0;
  std::array<alvc::nfv::VnfType, 4> functions{};
};

enum class EventKind : std::uint8_t { kProvision, kTeardown, kFault, kTick };

struct ScheduledEvent {
  double time_s = 0;
  EventKind kind = EventKind::kTick;
  ChainRequest chain;             // kProvision; kTeardown uses chain.key only
  alvc::faults::FaultEvent fault;  // kFault
};

struct Schedule {
  std::vector<ChainRequest> initial;  // provisioned during set-up, in order
  std::vector<ScheduledEvent> events;  // ascending time
  double horizon_s = 0;                // time of the last event
};

/// Generates the schedule of `seed` against `dc`, whose clusters must be
/// built (whole-AL outages read AL membership) and which must hold no
/// chain yet. Pure function of (shape, topology, clusters, seed, budget).
[[nodiscard]] Schedule generate_schedule(const WorkloadShape& shape,
                                         const alvc::core::DataCenter& dc, std::uint64_t seed,
                                         std::size_t budget);

/// FNV-1a digest over a canonical encoding of every field of the schedule.
[[nodiscard]] std::uint64_t schedule_digest(const Schedule& schedule);

/// The orchestrator-facing spec of a request.
[[nodiscard]] alvc::nfv::NfcSpec to_spec(const ChainRequest& request,
                                         const alvc::nfv::VnfCatalog& catalog);

}  // namespace alvc::e2e
