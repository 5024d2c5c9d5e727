#include "faults/chaos.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "faults/state_auditor.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"

namespace alvc::faults {

using alvc::orchestrator::ProvisionedChain;
using alvc::sdn::ControlEventType;
using alvc::util::Rng;

namespace {
// Load-event provisions need some placement; greedy-optical is the
// stateless default the rest of the suite leans on.
const alvc::orchestrator::GreedyOpticalPlacement kFallbackPlacement;
}  // namespace

ChaosReport ChaosRunner::run() {
  ChaosReport report;

  // Shard the control plane up front so every event in the run — baseline
  // collection included — sees the same topology of shards.
  orch_->set_sharding(params_.shards);
  report.shard_count = orch_->shard_count();

  std::vector<std::uint32_t> baseline;
  for (const ProvisionedChain* chain : orch_->chains()) {
    baseline.push_back(chain->record.id.value());
  }

  auto events =
      FaultInjector::generate(orch_->clusters().topology(), params_.schedule);
  events.insert(events.end(), params_.scripted.begin(), params_.scripted.end());
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.time_s < b.time_s; });
  report.fault_events = events.size();

  alvc::sim::EventQueue queue;
  const auto record_violations = [&](const std::vector<std::string>& violations) {
    report.audit_violations += violations.size();
    for (const std::string& v : violations) {
      if (report.violations.size() >= params_.max_recorded_violations) break;
      report.violations.push_back("t=" + std::to_string(queue.now()) + " " + v);
    }
  };

  // Failure time per element, so a matching repair can report how long the
  // element was down (the failure -> recovery latency the paper's degraded
  // -mode discussion cares about).
  std::map<std::tuple<int, std::uint32_t, std::uint32_t>, double> down_since;
  FaultInjector::schedule(queue, std::move(events), [&](const FaultEvent& event) {
    (event.failure ? report.failures_injected : report.repairs_injected) += 1;
    const auto element =
        std::make_tuple(static_cast<int>(event.kind), event.id, event.ops);
    if (event.failure) {
      ALVC_COUNT("faults.injected.failures");
      down_since.emplace(element, event.time_s);
    } else {
      ALVC_COUNT("faults.injected.repairs");
      if (const auto it = down_since.find(element); it != down_since.end()) {
        ALVC_OBSERVE("faults.recovery_latency_s", 0, 64, 32, event.time_s - it->second);
        down_since.erase(it);
      }
    }
    if (!apply_fault(*orch_, event)) {
      ++report.handler_errors;
      ALVC_COUNT("faults.handler_errors");
    }
    if (params_.audit_every_event) record_violations(StateAuditor::audit(*orch_));
  });

  // Overload load events ride the same queue. Faults were scheduled first,
  // so on a time tie the fault lands before the provision/teardown —
  // deterministic either way, but this order exercises provisioning into a
  // just-degraded fabric. Keys map to live chain ids so a departure finds
  // the chain its arrival created (or skips one that was rejected).
  report.load_events = params_.load.size();
  std::unordered_map<std::uint32_t, alvc::util::NfcId> live_keys;
  const alvc::orchestrator::PlacementStrategy* placement =
      params_.placement != nullptr ? params_.placement : &kFallbackPlacement;
  OverloadInjector::schedule(queue, params_.load, [&](const LoadEvent& event) {
    if (event.provision) {
      auto id = orch_->provision_chain(event.spec, *placement);
      if (id) {
        live_keys[event.key] = *id;
        baseline.push_back(id->value());  // runtime chains join the accounting
        ++report.load_provisioned;
        ALVC_COUNT("faults.load.provisioned");
        const ProvisionedChain* chain = orch_->chain(*id);
        if (chain != nullptr && chain->degraded) {
          ++report.load_provisioned_degraded;
          ALVC_COUNT("faults.load.provisioned_degraded");
        }
      } else {
        ++report.load_rejected;
        ALVC_COUNT("faults.load.rejected");
      }
    } else if (const auto it = live_keys.find(event.key); it != live_keys.end()) {
      if (orch_->chain(it->second) != nullptr) {
        if (orch_->teardown_chain(it->second).is_ok()) {
          ++report.load_torn_down;
          ALVC_COUNT("faults.load.torn_down");
        } else {
          ++report.handler_errors;
          ALVC_COUNT("faults.handler_errors");
        }
      }
      live_keys.erase(it);
    }
    if (params_.audit_every_event) record_violations(StateAuditor::audit(*orch_));
  });

  // Periodic controller ticks (the elastic control loop) ride the same
  // queue, scheduled after faults and load so a tick at a tied timestamp
  // observes the event that just landed, and audited like any other event.
  if (params_.tick_period_s > 0 && params_.on_tick) {
    for (double t = params_.tick_period_s; t < params_.schedule.horizon_s;
         t += params_.tick_period_s) {
      queue.schedule(t, [this, t, &report, &record_violations]() {
        params_.on_tick(t);
        ++report.controller_ticks;
        ALVC_COUNT("faults.controller.ticks");
        if (params_.audit_every_event) record_violations(StateAuditor::audit(*orch_));
      });
    }
  }

  // Traffic: Poisson arrivals offered round-robin to the chain population,
  // pre-generated so the schedule is deterministic in the traffic seed.
  std::size_t next_chain = 0;
  if (params_.flow_rate_per_s > 0) {
    Rng rng(params_.traffic_seed);
    double t = rng.exponential(params_.flow_rate_per_s);
    while (t < params_.schedule.horizon_s) {
      queue.schedule(t, [this, &report, &next_chain]() {
        const auto chains = orch_->chains();
        if (chains.empty()) {
          ++report.flows_deferred;
          ALVC_COUNT("faults.flows.deferred");
          return;
        }
        const ProvisionedChain* chain = chains[next_chain++ % chains.size()];
        // A degraded chain with zero bandwidth is parked; anything holding
        // bandwidth (full or fractional) still serves traffic.
        if (chain->reserved_gbps > 0) {
          ++report.flows_served;
          ALVC_COUNT("faults.flows.served");
        } else {
          ++report.flows_deferred;
          ALVC_COUNT("faults.flows.deferred");
        }
      });
      t += rng.exponential(params_.flow_rate_per_s);
    }
  }

  queue.run();

  // Closing audit (covers the no-fault / audit-disabled cases too).
  record_violations(StateAuditor::audit(*orch_));

  // Silent-loss accounting: every baseline chain must end live (healthy or
  // degraded) or have a deliberate teardown/loss event in the control log.
  std::unordered_set<std::uint32_t> live;
  for (const ProvisionedChain* chain : orch_->chains()) {
    live.insert(chain->record.id.value());
    (chain->degraded ? report.chains_live_degraded : report.chains_live_healthy) += 1;
  }
  std::unordered_set<std::uint32_t> accounted_gone;
  for (const auto& event : orch_->control_log().events()) {
    if (event.type == ControlEventType::kChainTornDown ||
        event.type == ControlEventType::kChainLost) {
      accounted_gone.insert(event.subject);
    }
  }
  for (std::uint32_t id : baseline) {
    if (!live.contains(id) && !accounted_gone.contains(id)) ++report.chains_unaccounted;
  }
  // Silent loss is the one number that must never drift from zero unnoticed.
  ALVC_COUNT_N("faults.chains.unaccounted", report.chains_unaccounted);
  report.chains_lost = orch_->stats().chains_lost;
  report.chains_restored = orch_->stats().chains_restored;
  return report;
}

}  // namespace alvc::faults
