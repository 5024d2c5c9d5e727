#include "replay.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "core/datacenter.h"
#include "elastic/controller.h"
#include "faults/fault_injector.h"
#include "faults/state_auditor.h"
#include "orchestrator/placement.h"
#include "telemetry/span.h"
#include "util/executor.h"

namespace alvc::e2e {

namespace {

using alvc::orchestrator::NetworkOrchestrator;
using alvc::orchestrator::OrchestratorStats;
using alvc::orchestrator::ProvisionedChain;
using alvc::orchestrator::RouteCacheStats;
using alvc::util::NfcId;
using Clock = std::chrono::steady_clock;

/// Control-plane shards, as the sharded control plane runs at scale. Shard
/// passes fan out serially (no executor): with a worker pool every call
/// waits on thread hand-offs whose cost depends on what else the host runs,
/// which made run-to-run spread several times the bounds (see README.md).
constexpr std::size_t kShards = 4;
/// Untraced rounds per run; the end-to-end metrics are medians over them.
constexpr std::size_t kRounds = 8;
/// Audits spread over a traced replay (never inside an untraced one).
constexpr std::size_t kCheckpointAudits = 4;

/// Executor workers for the parallel AL build: at most nproc - 1 (and at
/// most 3), so the workers plus the driver thread stay within the cores.
std::size_t worker_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores > 1 ? cores - 1 : 1, 1, 3);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// Rotates the calling thread over the CPUs the process may use, one per
/// round, and restores the original mask when destroyed. On a shared host
/// one core can sit beside a busy neighbour for a whole run; a run left on
/// that core by the scheduler read up to 30% slow throughout, while a run
/// that visits every core samples them all alike.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the `round`-th allowed CPU (cyclically).
  void pin(std::size_t round) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[round % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(alvc::telemetry::Tracer* tracer, const char* name) {
    if (tracer != nullptr) span_.emplace(*tracer, name);
  }

 private:
  std::optional<alvc::telemetry::ScopedSpan> span_;
};

const char* fault_span_name(const alvc::faults::FaultEvent& event) {
  using alvc::faults::FaultKind;
  switch (event.kind) {
    case FaultKind::kOps:
      return event.failure ? "orchestrator.handle_failure.ops" : "orchestrator.handle_recovery.ops";
    case FaultKind::kTor:
      return event.failure ? "orchestrator.handle_failure.tor" : "orchestrator.handle_recovery.tor";
    case FaultKind::kServer:
      return event.failure ? "orchestrator.handle_failure.server"
                           : "orchestrator.handle_recovery.server";
    case FaultKind::kLink:
      return event.failure ? "orchestrator.handle_failure.link"
                           : "orchestrator.handle_recovery.link";
  }
  return "orchestrator.handle_unknown";
}

/// A built and populated data center plus the driver's view of it.
struct Deployment {
  std::unique_ptr<alvc::core::DataCenter> dc;
  std::unordered_map<std::uint32_t, NfcId> live_keys;  // schedule key -> chain
  std::vector<std::uint32_t> baseline;                 // every chain id ever provisioned
  std::size_t setup_refused = 0;
  double setup_s = 0;
};

/// Topology, clusters and control-plane configuration (no chains yet).
std::unique_ptr<alvc::core::DataCenter> build_fabric(const WorkloadShape& shape,
                                                     alvc::util::Executor& executor,
                                                     alvc::telemetry::Tracer* tracer) {
  std::unique_ptr<alvc::core::DataCenter> dc;
  {
    MaybeSpan span(tracer, "topology.build");
    dc = std::make_unique<alvc::core::DataCenter>(datacenter_config(shape));
  }
  {
    MaybeSpan span(tracer, "cluster.build");
    const auto& config = dc->config();
    const auto builder = alvc::core::DataCenter::make_al_builder(
        config.al_algorithm, config.seed, config.ensure_al_connectivity);
    const auto built = dc->clusters().build_all_clusters(*builder, &executor);
    if (!built) throw std::runtime_error("cluster build failed: " + built.error().to_string());
  }
  dc->orchestrator().set_allocation_policy(shape.policy);
  dc->orchestrator().set_tor_budget_factor(shape.tor_budget_factor);
  dc->orchestrator().set_sharding(kShards);
  return dc;
}

/// Builds the fabric, hands it to `before_populate` (the schedule is
/// generated there on the first set-up), then provisions the initial
/// chains. setup_s covers fabric and population, not the callback.
template <typename BeforePopulate>
Deployment deploy(const WorkloadShape& shape, alvc::util::Executor& executor,
                  const alvc::orchestrator::PlacementStrategy& placement,
                  alvc::telemetry::Tracer* tracer, BeforePopulate&& before_populate) {
  Deployment d;
  const auto t0 = Clock::now();
  d.dc = build_fabric(shape, executor, tracer);
  const auto t1 = Clock::now();
  const Schedule& schedule = before_populate(*d.dc);
  const auto t2 = Clock::now();
  {
    MaybeSpan span(tracer, "setup.populate");
    auto& orch = d.dc->orchestrator();
    for (const ChainRequest& request : schedule.initial) {
      const auto id = orch.provision_chain(to_spec(request, d.dc->catalog()), placement);
      if (!id) {
        ++d.setup_refused;
        continue;
      }
      d.live_keys.emplace(request.key, *id);
      d.baseline.push_back(id->value());
    }
  }
  d.setup_s = seconds_between(t0, t1) + seconds_between(t2, Clock::now());
  return d;
}

/// Cumulative control-plane counters, read before and after the replay.
struct Counters {
  OrchestratorStats orch;
  alvc::orchestrator::AdmissionStats admission;
  alvc::sdn::ControllerStats sdn;
  alvc::sdn::CloudManagerStats cloud;
  RouteCacheStats cache;
  std::uint64_t chains_visited = 0;
  std::uint64_t findings = 0;
};

Counters read_counters(const NetworkOrchestrator& orch) {
  Counters c;
  c.orch = orch.stats();
  c.admission = orch.admission().stats();
  c.sdn = orch.controller().stats();
  c.cloud = orch.cloud().stats();
  c.cache = orch.aggregate_route_cache_stats();
  if (const auto* agent = orch.agent(); agent != nullptr) {
    for (std::size_t s = 0; s < agent->shard_count(); ++s) {
      c.chains_visited += agent->shard(s).counters().chains_visited;
      c.findings += agent->shard(s).counters().findings;
    }
  }
  return c;
}

struct ReplayResult {
  double wall_s = 0;
  LatencySeries all, provision, teardown, fault, recovery, tick;
  OpAccounting ops;
  std::array<OpAccounting, 4> ops_by_kind;  // indexed by EventKind
  std::uint64_t handler_errors = 0;  // failed fault handlers and teardowns
  std::uint64_t skipped = 0;         // departures of chains that no longer exist
  double served_sum = 0;
  std::uint64_t served_samples = 0;
  // Traced replay only.
  std::size_t probe_changes = 0;
  std::size_t retry_depth_max = 0;
  LatencySeries dwell_s;
  std::vector<std::string> checkpoint_violations;

  [[nodiscard]] double demand_served_ratio() const {
    return served_samples == 0 ? 0.0 : served_sum / static_cast<double>(served_samples);
  }
};

/// Reserved over demanded bandwidth across live chains; nullopt when no
/// chain demands anything.
std::optional<double> served_ratio(const NetworkOrchestrator& orch) {
  double reserved = 0;
  double demanded = 0;
  for (const ProvisionedChain* chain : orch.chains()) {
    reserved += chain->reserved_gbps;
    demanded += chain->record.spec.bandwidth_gbps;
  }
  if (demanded <= 0) return std::nullopt;
  return reserved / demanded;
}

/// Watches degraded flags during a traced replay; a chain's dwell is the
/// simulated time from entering degraded mode to leaving it alive.
class DwellTracker {
 public:
  void observe(const NetworkOrchestrator& orch, double now_s, LatencySeries& out) {
    const auto& st = orch.stats();
    const std::array<std::size_t, 7> signature{
        st.chains_degraded,    st.chains_restored,   st.alloc_downgrades,
        st.alloc_restores,     st.chains_lost,       st.chains_torn_down,
        orch.degraded_chain_count()};
    if (signature == last_) return;
    last_ = signature;
    for (const ProvisionedChain* chain : orch.chains()) {
      const auto id = chain->record.id;
      const auto it = since_.find(id);
      if (chain->degraded && it == since_.end()) {
        since_.emplace(id, now_s);
      } else if (!chain->degraded && it != since_.end()) {
        out.add(now_s - it->second);
        since_.erase(it);
      }
    }
    std::erase_if(since_, [&](const auto& entry) { return orch.chain(entry.first) == nullptr; });
  }

 private:
  std::array<std::size_t, 7> last_{};
  std::map<NfcId, double> since_;
};

alvc::elastic::ElasticParams elastic_params(const Schedule& schedule, std::uint64_t seed) {
  alvc::elastic::ElasticParams p;
  p.demand.seed = seed * 5 + 2;
  p.demand.horizon_s = schedule.horizon_s + 1;
  p.scaling.cooldown_s = 1.0;
  p.scaling.max_scale = 2.0;  // a firewall+nat pair fits a 4-core router at 2x
  p.migration.hot_utilization = 0.6;
  p.migration.cooldown_s = 2.0;
  p.mode = alvc::elastic::ExecutionMode::kIncremental;
  return p;
}

/// Replays every event back to back. With a tracer, each call gets a span,
/// each provision/teardown/handler is followed by a probe rebalance, and
/// checkpoint audits run between events.
ReplayResult replay(Deployment& d, const Schedule& schedule,
                    alvc::elastic::ElasticController* controller,
                    const alvc::orchestrator::PlacementStrategy& placement,
                    alvc::telemetry::Tracer* tracer) {
  ReplayResult r;
  NetworkOrchestrator& orch = d.dc->orchestrator();
  const auto& catalog = d.dc->catalog();
  DwellTracker dwell;
  double next_sample_s = 0;
  const std::size_t n = schedule.events.size();
  std::size_t next_audit = 1;

  const auto t_begin = Clock::now();
  {
    MaybeSpan replay_span(tracer, "replay");
    for (std::size_t i = 0; i < n; ++i) {
      const ScheduledEvent& ev = schedule.events[i];
      if (next_sample_s <= ev.time_s) {
        // One sample per whole simulated second passed; the state is
        // constant between events, so each boundary reads the same.
        const auto boundaries = static_cast<std::uint64_t>(ev.time_s - next_sample_s) + 1;
        if (const auto ratio = served_ratio(orch)) {
          r.served_sum += *ratio * static_cast<double>(boundaries);
          r.served_samples += boundaries;
        }
        next_sample_s += static_cast<double>(boundaries);
      }

      bool ok = true;
      bool probe = true;
      LatencySeries* series = nullptr;
      Clock::time_point t0;
      Clock::time_point t1;
      switch (ev.kind) {
        case EventKind::kProvision: {
          const auto spec = to_spec(ev.chain, catalog);
          MaybeSpan span(tracer, "orchestrator.provision");
          t0 = Clock::now();
          const auto id = orch.provision_chain(spec, placement);
          t1 = Clock::now();
          ok = id.has_value();
          if (ok) {
            d.live_keys.emplace(ev.chain.key, *id);
            d.baseline.push_back(id->value());
          }
          series = &r.provision;
          break;
        }
        case EventKind::kTeardown: {
          const auto it = d.live_keys.find(ev.chain.key);
          if (it == d.live_keys.end() || orch.chain(it->second) == nullptr) {
            // Refused at arrival, or lost to a fault: nothing to call.
            if (it != d.live_keys.end()) d.live_keys.erase(it);
            ++r.skipped;
            continue;
          }
          const NfcId id = it->second;
          d.live_keys.erase(it);
          MaybeSpan span(tracer, "orchestrator.teardown");
          t0 = Clock::now();
          ok = orch.teardown_chain(id).is_ok();
          t1 = Clock::now();
          if (!ok) ++r.handler_errors;
          series = &r.teardown;
          break;
        }
        case EventKind::kFault: {
          MaybeSpan span(tracer, fault_span_name(ev.fault));
          t0 = Clock::now();
          ok = alvc::faults::apply_fault(orch, ev.fault).has_value();
          t1 = Clock::now();
          if (!ok) ++r.handler_errors;
          series = ev.fault.failure ? &r.fault : &r.recovery;
          break;
        }
        case EventKind::kTick: {
          MaybeSpan span(tracer, "elastic.tick");
          t0 = Clock::now();
          controller->tick(ev.time_s);
          t1 = Clock::now();
          series = &r.tick;
          probe = false;
          break;
        }
      }
      const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
      series->add(us);
      r.all.add(us);
      r.ops.record(ok);
      r.ops_by_kind[static_cast<std::size_t>(ev.kind)].record(ok);

      if (tracer != nullptr) {
        if (probe) {
          MaybeSpan span(tracer, "orchestrator.rebalance_probe");
          r.probe_changes += orch.rebalance_bandwidth();
        }
        r.retry_depth_max = std::max(r.retry_depth_max, orch.retry_queue_size());
        dwell.observe(orch, ev.time_s, r.dwell_s);
        if (next_audit <= kCheckpointAudits && i + 1 >= next_audit * n / (kCheckpointAudits + 1)) {
          ++next_audit;
          MaybeSpan span(tracer, "auditor.audit");
          for (auto& v : alvc::faults::StateAuditor::audit(orch)) {
            r.checkpoint_violations.push_back("checkpoint " + std::to_string(i) + ": " + v);
          }
        }
      }
    }
  }
  r.wall_s = seconds_between(t_begin, Clock::now());
  return r;
}

/// Digest of the control plane's end state: every chain (placement, route,
/// bandwidth, degraded flag), the cumulative stats, and element failures.
std::uint64_t state_digest(const alvc::core::DataCenter& dc) {
  const NetworkOrchestrator& orch = dc.orchestrator();
  Fnv1a h;
  auto chains = orch.chains();
  std::sort(chains.begin(), chains.end(), [](const auto* a, const auto* b) {
    return a->record.id < b->record.id;
  });
  h.u64(chains.size());
  for (const ProvisionedChain* c : chains) {
    h.u64(c->record.id.value());
    h.u64(c->cluster.value());
    h.u64(c->slice.value());
    h.u64(c->degraded ? 1 : 0);
    h.f64(c->reserved_gbps);
    h.u64(c->flow_rules);
    for (const auto& instance : c->instances) h.u64(instance.value());
    for (const auto& host : c->placement.hosts) {
      h.u64(host.index());
      h.u64(std::visit([](const auto& id) -> std::uint64_t { return id.value(); }, host));
    }
    h.u64(c->route.vertices.size());
    for (const std::size_t v : c->route.vertices) h.u64(v);
  }
  const OrchestratorStats& st = orch.stats();
  for (const std::size_t v :
       {st.chains_provisioned, st.chains_torn_down, st.provision_failures, st.chains_repaired,
        st.chains_lost, st.vnfs_relocated, st.chains_degraded, st.chains_restored,
        st.chains_admitted_downgraded, st.alloc_rebalances, st.alloc_downgrades,
        st.alloc_restores, orch.degraded_chain_count(), orch.retry_queue_size(),
        orch.control_log().size()}) {
    h.u64(v);
  }
  const auto& topo = dc.topology();
  for (const auto& ops : topo.opss()) h.u64(ops.failed ? 1 : 0);
  for (const auto& tor : topo.tors()) h.u64(tor.failed ? 1 : 0);
  for (const auto& server : topo.servers()) h.u64(server.failed ? 1 : 0);
  return h.state;
}

/// Chains provisioned at some point that are neither live nor accounted
/// for by a teardown/loss event in the control log (ChaosRunner's rule).
std::size_t silently_lost(const NetworkOrchestrator& orch,
                          const std::vector<std::uint32_t>& baseline) {
  std::unordered_set<std::uint32_t> gone;
  for (const auto& event : orch.control_log().events()) {
    if (event.type == alvc::sdn::ControlEventType::kChainTornDown ||
        event.type == alvc::sdn::ControlEventType::kChainLost) {
      gone.insert(event.subject);
    }
  }
  std::size_t lost = 0;
  for (const std::uint32_t id : baseline) {
    if (orch.chain(NfcId{id}) == nullptr && !gone.contains(id)) ++lost;
  }
  return lost;
}

/// The correctness gate of one pass, plus proof that the workload's
/// target layer did work. Returns failures (empty = pass).
std::vector<std::string> check_pass(const WorkloadShape& shape, const Deployment& d,
                                    const ReplayResult& r, const Counters& before,
                                    const Counters& after,
                                    const alvc::elastic::ElasticController* controller) {
  std::vector<std::string> failures;
  const NetworkOrchestrator& orch = d.dc->orchestrator();
  if (d.setup_refused != 0) {
    failures.push_back(std::to_string(d.setup_refused) + " initial chains were refused at set-up");
  }
  for (const auto& v : alvc::faults::StateAuditor::audit(orch)) failures.push_back("audit: " + v);
  if (r.handler_errors != 0) {
    failures.push_back(std::to_string(r.handler_errors) +
                       " fault handlers or teardowns returned non-ok");
  }
  if (const auto lost = silently_lost(orch, d.baseline); lost != 0) {
    failures.push_back(std::to_string(lost) + " chains silently lost");
  }
  const auto require = [&](bool did_work, const char* what) {
    if (!did_work) failures.push_back(std::string("vacuous run: no ") + what);
  };
  switch (shape.workload) {
    case Workload::kChurnQos:
      require(after.orch.alloc_downgrades > before.orch.alloc_downgrades, "allocator downgrade");
      require(after.orch.alloc_restores > before.orch.alloc_restores, "allocator restore");
      break;
    case Workload::kFaultStorm:
      require(after.orch.chains_repaired > before.orch.chains_repaired, "chain repair");
      require(after.orch.chains_degraded > before.orch.chains_degraded, "chain degrade");
      require(after.orch.chains_restored > before.orch.chains_restored, "chain restore");
      require(after.cache.revalidations > before.cache.revalidations, "route-cache revalidation");
      break;
    case Workload::kElasticMixed:
      require(controller->scaling().stats().scale_outs > 0, "scale-out");
      require(controller->scaling().stats().scale_ins > 0, "scale-in");
      require(controller->migration().stats().migrations > 0, "migration");
      break;
  }
  return failures;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string percentile_line(const char* name, LatencySeries& series) {
  std::string line = std::string(name) + ": n=" + std::to_string(series.count());
  if (const auto p50 = series.p50()) line += fmt(" p50=%.1fus", *p50);
  if (const auto p99 = series.p99()) {
    line += fmt(" p99=%.1fus", *p99);
  } else if (series.count() > 0) {
    line += " p99=n/a (fewer than " + std::to_string(kMinP99Samples) + " samples)";
  }
  return line;
}

/// Self time per span name: duration minus the time its children cover.
std::map<std::string, double> self_time_us(const std::vector<alvc::telemetry::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const auto& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.duration_us();
  }
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    const auto it = child_us.find(s.id);
    self[s.name] += s.duration_us() - (it == child_us.end() ? 0.0 : it->second);
  }
  return self;
}

struct Pass {
  Deployment deployment;
  std::unique_ptr<alvc::elastic::ElasticController> controller;
  ReplayResult result;
  Counters before;
  Counters after;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

/// Replays `schedule` on `d` and runs the correctness gate.
Pass run_pass(const WorkloadShape& shape, Deployment d, const Schedule& schedule,
              std::uint64_t seed, const alvc::orchestrator::PlacementStrategy& placement,
              alvc::telemetry::Tracer* tracer) {
  Pass p;
  p.deployment = std::move(d);
  auto& orch = p.deployment.dc->orchestrator();
  if (shape.tick_period_s > 0) {
    p.controller = std::make_unique<alvc::elastic::ElasticController>(
        orch, placement, elastic_params(schedule, seed));
  }
  p.before = read_counters(orch);
  p.result = replay(p.deployment, schedule, p.controller.get(), placement, tracer);
  p.after = read_counters(orch);
  p.digest = state_digest(*p.deployment.dc);
  p.failures = check_pass(shape, p.deployment, p.result, p.before, p.after, p.controller.get());
  for (const auto& v : p.result.checkpoint_violations) p.failures.push_back("audit " + v);
  return p;
}

double p50_or_zero(LatencySeries& s) { return s.p50().value_or(0.0); }
double p99_or_zero(LatencySeries& s) { return s.p99().value_or(0.0); }

/// Per-class failures and the timed phase's counter deltas, for the log.
void log_counters(std::vector<std::string>& log, const Pass& pass) {
  const ReplayResult& u = pass.result;
  const Counters& b = pass.before;
  const Counters& a = pass.after;
  const auto failed = [&](EventKind kind) {
    return std::to_string(u.ops_by_kind[static_cast<std::size_t>(kind)].failed);
  };
  log.push_back("failed_calls: provision=" + failed(EventKind::kProvision) +
                " teardown=" + failed(EventKind::kTeardown) +
                " fault=" + failed(EventKind::kFault) + " tick=" + failed(EventKind::kTick) +
                " skipped_departures=" + std::to_string(u.skipped));
  log.push_back(
      "timed_phase_counters: admitted=" + std::to_string(a.admission.admitted - b.admission.admitted) +
      " alloc_downgrades=" + std::to_string(a.orch.alloc_downgrades - b.orch.alloc_downgrades) +
      " alloc_restores=" + std::to_string(a.orch.alloc_restores - b.orch.alloc_restores) +
      " repaired=" + std::to_string(a.orch.chains_repaired - b.orch.chains_repaired) +
      " degraded=" + std::to_string(a.orch.chains_degraded - b.orch.chains_degraded) +
      " restored=" + std::to_string(a.orch.chains_restored - b.orch.chains_restored) +
      " lost=" + std::to_string(a.orch.chains_lost - b.orch.chains_lost) +
      " cache_lookups=" + std::to_string(a.cache.lookups() - b.cache.lookups()) +
      " cache_revalidations=" + std::to_string(a.cache.revalidations - b.cache.revalidations) +
      " live_chains=" + std::to_string(pass.deployment.dc->orchestrator().chain_count()));
  if (const auto* c = pass.controller.get()) {
    log.push_back("elastic: scale_outs=" + std::to_string(c->scaling().stats().scale_outs) +
                  " scale_ins=" + std::to_string(c->scaling().stats().scale_ins) +
                  " scaling_rejected=" + std::to_string(c->scaling().stats().rejected) +
                  " migrations=" + std::to_string(c->migration().stats().migrations) +
                  " migration_failed=" + std::to_string(c->migration().stats().failed));
  }
}

/// The untraced rounds of a run, pooled.
struct RoundsSummary {
  std::vector<double> setup_s, events_per_s;
  LatencySeries all, provision, teardown, fault, recovery, tick;  // every round's samples
  OpAccounting ops;
  double demand_served_ratio = 0;  // mean over rounds
  std::uint64_t digest = 0;         // round 0's end state
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void set_per_layer(RunReport& report, RoundsSummary& untraced, Pass& traced,
                   const std::map<std::string, double>& self_us, double replay_us) {
  MetricSet& m = report.metrics;
  const auto self_ms = [&](const char* span) {
    const auto it = self_us.find(span);
    return it == self_us.end() ? 0.0 : it->second / 1000.0;
  };
  for (const char* span :
       {"topology.build", "cluster.build", "setup.populate", "orchestrator.provision",
        "orchestrator.teardown", "orchestrator.rebalance_probe",
        "orchestrator.handle_failure.ops", "orchestrator.handle_failure.tor",
        "orchestrator.handle_failure.server", "orchestrator.handle_failure.link",
        "orchestrator.handle_recovery.ops", "orchestrator.handle_recovery.tor",
        "orchestrator.handle_recovery.server", "orchestrator.handle_recovery.link",
        "elastic.tick", "auditor.audit"}) {
    m.set(std::string(span) + ".self_ms", self_ms(span));
  }

  const NetworkOrchestrator& orch = traced.deployment.dc->orchestrator();
  const Counters& b = traced.before;
  const Counters& a = traced.after;
  const ReplayResult& r = traced.result;
  const auto calls = static_cast<double>(std::max<std::uint64_t>(1, r.ops.attempted));
  const auto delta = [](std::size_t after, std::size_t before) {
    return static_cast<double>(after - before);
  };

  double al_ops = 0;
  double al_tors = 0;
  const auto clusters = orch.clusters().clusters();
  for (const auto* vc : clusters) {
    al_ops += static_cast<double>(vc->layer.opss.size());
    al_tors += static_cast<double>(vc->layer.tors.size());
  }
  const auto cluster_n = static_cast<double>(std::max<std::size_t>(1, clusters.size()));
  m.set("cluster.al_ops_mean", al_ops / cluster_n);
  m.set("cluster.al_tors_mean", al_tors / cluster_n);
  m.set("cluster.degraded_clusters_end",
        static_cast<double>(orch.clusters().degraded_cluster_ids().size()));

  const auto rejected = [](const alvc::orchestrator::AdmissionStats& s) {
    return s.rejected_bandwidth + s.rejected_capacity_flow + s.rejected_resources +
           s.rejected_malformed;
  };
  m.set("admission.admitted", delta(a.admission.admitted, b.admission.admitted));
  m.set("admission.admitted_downgraded",
        delta(a.admission.admitted_downgraded, b.admission.admitted_downgraded));
  m.set("admission.rejected", delta(rejected(a.admission), rejected(b.admission)));
  m.set("sdn.rules_installed_per_event", delta(a.sdn.rules_installed, b.sdn.rules_installed) / calls);
  m.set("sdn.rules_removed_per_event", delta(a.sdn.rules_removed, b.sdn.rules_removed) / calls);
  m.set("nfv.deployed", delta(a.cloud.deployed, b.cloud.deployed));
  m.set("nfv.terminated", delta(a.cloud.terminated, b.cloud.terminated));
  m.set("nfv.capacity_rejected", delta(a.cloud.rejected, b.cloud.rejected));

  double conversions = 0;
  const auto chains = orch.chains();
  for (const ProvisionedChain* c : chains) {
    conversions += static_cast<double>(c->placement.conversions.mid_chain);
  }
  m.set("placement.oeo_conversions_mean",
        conversions / static_cast<double>(std::max<std::size_t>(1, chains.size())));

  m.set("orchestrator.rebalance_probe_changes", static_cast<double>(r.probe_changes));
  m.set("orchestrator.alloc_rebalances", delta(a.orch.alloc_rebalances, b.orch.alloc_rebalances));
  m.set("orchestrator.alloc_downgrades", delta(a.orch.alloc_downgrades, b.orch.alloc_downgrades));
  m.set("orchestrator.alloc_restores", delta(a.orch.alloc_restores, b.orch.alloc_restores));

  // Shard scans serve fault sweeps and, under the QoS policies, the
  // rebalance snapshot after every call, so the rate is per call.
  const double visited = static_cast<double>(a.chains_visited - b.chains_visited);
  m.set("shard.chains_visited_per_event", visited / calls);
  m.set("shard.findings_ratio",
        visited == 0 ? 0.0 : static_cast<double>(a.findings - b.findings) / visited);
  const auto lookups = static_cast<double>(a.cache.lookups() - b.cache.lookups());
  const auto served = static_cast<double>((a.cache.hits - b.cache.hits) +
                                          (a.cache.revalidations - b.cache.revalidations));
  m.set("route_cache.lookups", lookups);
  m.set("route_cache.served_ratio", lookups == 0 ? 0.0 : served / lookups);
  m.set("orchestrator.chains_repaired", delta(a.orch.chains_repaired, b.orch.chains_repaired));
  m.set("orchestrator.chains_degraded", delta(a.orch.chains_degraded, b.orch.chains_degraded));
  m.set("orchestrator.chains_restored", delta(a.orch.chains_restored, b.orch.chains_restored));
  m.set("orchestrator.chains_lost", delta(a.orch.chains_lost, b.orch.chains_lost));
  m.set("orchestrator.retry_queue_depth_max", static_cast<double>(r.retry_depth_max));
  m.set("orchestrator.degraded_dwell_s_p50", p50_or_zero(traced.result.dwell_s));
  m.set("orchestrator.degraded_dwell_s_p99", p99_or_zero(traced.result.dwell_s));

  const auto* ctrl = traced.controller.get();
  const auto elastic = [&](auto read) { return ctrl == nullptr ? 0.0 : static_cast<double>(read(*ctrl)); };
  using alvc::elastic::ElasticController;
  m.set("elastic.scale_outs", elastic([](const ElasticController& c) { return c.scaling().stats().scale_outs; }));
  m.set("elastic.scale_ins", elastic([](const ElasticController& c) { return c.scaling().stats().scale_ins; }));
  m.set("elastic.migrations", elastic([](const ElasticController& c) { return c.migration().stats().migrations; }));
  m.set("elastic.migration_no_target", elastic([](const ElasticController& c) { return c.migration().stats().no_target; }));
  m.set("elastic.scaling_rejected", elastic([](const ElasticController& c) { return c.scaling().stats().rejected; }));
  m.set("elastic.al_updates_per_migration",
        ctrl == nullptr ? 0.0 : ctrl->ledger().al_updates_per_action(alvc::elastic::ActionKind::kMigration));
  m.set("elastic.slo_violation_rate", ctrl == nullptr ? 0.0 : ctrl->stats().slo_violation_rate());

  // Latency by call class, pooled over the untraced rounds.
  RoundsSummary& u = untraced;
  for (auto [name, series] : {std::pair{"provision", &u.provision}, std::pair{"teardown", &u.teardown},
                              std::pair{"fault", &u.fault}, std::pair{"recovery", &u.recovery},
                              std::pair{"tick", &u.tick}}) {
    m.set(std::string(name) + "_p50_us", p50_or_zero(*series));
    m.set(std::string(name) + "_p99_us", p99_or_zero(*series));
    m.set(std::string(name) + "_samples", static_cast<double>(series->count()));
  }
  m.set("op_failure_ratio", u.ops.failure_ratio());

  // Tracing overhead: untraced over traced call rate, with the probe and
  // the checkpoint audits (work only the traced pass does) taken out.
  const double traced_work_s =
      (replay_us - (self_ms("orchestrator.rebalance_probe") + self_ms("auditor.audit")) * 1000.0) /
      1e6;
  const double traced_rate = static_cast<double>(r.ops.attempted) / traced_work_s;
  m.set("trace.overhead_ratio", median(u.events_per_s) / traced_rate);
  m.set("trace.driver_overhead_ratio", self_ms("replay") * 1000.0 / replay_us);
}

}  // namespace

RunReport run_benchmark(const RunOptions& options) {
  RunReport report;
  const auto log = [&](std::string line) { report.log.push_back(std::move(line)); };
  try {
    const WorkloadShape shape = make_shape(options.workload, options.scale);
    const std::size_t budget = event_budget(shape, options.seconds / kRounds);
    // Workers start before any pinning, so they keep the full CPU mask.
    alvc::util::Executor executor(worker_count());
    const CpuRotation rotation;
    const alvc::orchestrator::GreedyOpticalPlacement placement;

    // Each round replays its own schedule, drawn from the run's seed, on a
    // fresh fabric: the medians over rounds shed a burst of host noise that
    // lands in one round, and each run spans several schedules. A schedule
    // is generated on its round's fabric (every set-up builds the same one)
    // after the build and before population, outside every timed phase.
    const auto round_seed = [&](std::size_t round) { return options.seed * kRounds + round; };
    Schedule schedule;
    RoundsSummary rounds;
    for (std::size_t round = 0; round < kRounds; ++round) {
      rotation.pin(round);
      const auto generate = [&](const alvc::core::DataCenter& dc) -> const Schedule& {
        schedule = generate_schedule(shape, dc, round_seed(round), budget);
        return schedule;
      };
      Pass pass = run_pass(shape, deploy(shape, executor, placement, nullptr, generate), schedule,
                           round_seed(round), placement, nullptr);
      ReplayResult& u = pass.result;
      if (round == 0) {
        log(std::string("workload=") + to_string(options.workload) +
            " seed=" + std::to_string(options.seed) + " rounds=" + std::to_string(kRounds) +
            " events_per_round=" + std::to_string(budget) +
            " slots=" + std::to_string(shape.topology.service_count) + " shards=" +
            std::to_string(kShards) + " al_build_workers=" +
            std::to_string(executor.thread_count()));
        log_counters(report.log, pass);
        rounds.digest = pass.digest;
      }
      for (const auto& f : pass.failures) {
        report.check_failures.push_back("round " + std::to_string(round) + ": " + f);
      }
      rounds.setup_s.push_back(pass.deployment.setup_s);
      rounds.events_per_s.push_back(static_cast<double>(u.ops.attempted) / u.wall_s);
      rounds.demand_served_ratio += u.demand_served_ratio() / kRounds;
      log("round " + std::to_string(round) + " seed=" + std::to_string(round_seed(round)) +
          " initial_chains=" + std::to_string(schedule.initial.size()) +
          fmt(" horizon_s=%.1f", schedule.horizon_s) +
          " schedule_digest=" + hex_digest(schedule_digest(schedule)));
      log("  " + fmt("setup_s=%.4f", rounds.setup_s.back()) +
          fmt(" timed_phase_s=%.4f", u.wall_s) + " calls=" + std::to_string(u.ops.attempted) +
          fmt(" events_per_s=%.1f", rounds.events_per_s.back()) +
          fmt(" event_p50_us=%.1f", u.all.p50().value_or(0.0)) +
          fmt(" event_p99_us=%.1f", u.all.p99().value_or(0.0)) + " (n=" +
          std::to_string(u.all.count()) + ") end_state_digest=" + hex_digest(pass.digest));
      rounds.all.merge(u.all);
      rounds.provision.merge(u.provision);
      rounds.teardown.merge(u.teardown);
      rounds.fault.merge(u.fault);
      rounds.recovery.merge(u.recovery);
      rounds.tick.merge(u.tick);
      rounds.ops.attempted += u.ops.attempted;
      rounds.ops.failed += u.ops.failed;
    }
    log("pooled over rounds:");
    log("  " + percentile_line("event", rounds.all));
    log("  " + percentile_line("provision", rounds.provision));
    log("  " + percentile_line("teardown", rounds.teardown));
    log("  " + percentile_line("fault", rounds.fault));
    log("  " + percentile_line("recovery", rounds.recovery));
    log("  " + percentile_line("tick", rounds.tick));
    report.attempted = rounds.ops.attempted;
    report.failed = rounds.ops.failed;

    if (!options.trace) {
      MetricSet& m = report.metrics;
      m.set("setup_s", median(rounds.setup_s));
      m.set("events_per_s", median(rounds.events_per_s));
      // Latency percentiles pool every call of every round: in repeated runs
      // they spread less than the median of per-round percentiles did.
      const auto p99 = rounds.all.p99();
      if (!p99) report.check_failures.push_back("event p99 has fewer than 1000 samples");
      m.set("event_p50_us", rounds.all.p50().value_or(0.0));
      m.set("event_p99_us", p99.value_or(0.0));
      m.set("demand_served_ratio", rounds.demand_served_ratio);
      m.set("peak_rss_mb", peak_rss_mb());
      report.correct = report.check_failures.empty();
      return report;
    }

    // Traced round: a fresh fabric, round 0's schedule again, spans around
    // every call into a layer. The program's own tracer stays disabled.
    const auto regenerate = [&](const alvc::core::DataCenter& dc) -> const Schedule& {
      schedule = generate_schedule(shape, dc, round_seed(0), budget);
      return schedule;
    };
    rotation.pin(0);
    alvc::telemetry::Tracer tracer;
    tracer.set_mode(alvc::telemetry::ClockMode::kSteady);
    Pass traced = run_pass(shape, deploy(shape, executor, placement, &tracer, regenerate), schedule,
                           round_seed(0), placement, &tracer);
    tracer.set_mode(alvc::telemetry::ClockMode::kDisabled);
    for (const auto& f : traced.failures) report.check_failures.push_back("traced: " + f);
    if (traced.digest != rounds.digest) {
      report.check_failures.push_back("traced end state " + hex_digest(traced.digest) +
                                      " differs from untraced round 0 " +
                                      hex_digest(rounds.digest));
    }
    if (traced.result.probe_changes != 0) {
      report.check_failures.push_back(std::to_string(traced.result.probe_changes) +
                                      " changes from probe rebalances (allocator not at fixpoint)");
    }
    const auto spans = tracer.spans();
    const auto self_us = self_time_us(spans);
    double replay_us = 0;
    for (const auto& s : spans) {
      if (s.name == "replay") replay_us = s.duration_us();
    }
    log("traced_end_state_digest=" + hex_digest(traced.digest) +
        (traced.digest == rounds.digest ? " (matches)" : " (MISMATCH)"));
    log(fmt("traced_replay_ms=%.3f", replay_us / 1000.0) + " spans=" + std::to_string(spans.size()));
    for (const auto& [name, us] : self_us) log("  self_ms " + name + fmt(" %.3f", us / 1000.0));
    report.metrics = MetricSet(per_layer_metrics());
    set_per_layer(report, rounds, traced, self_us, replay_us);
    report.correct = report.check_failures.empty();
  } catch (const std::exception& e) {
    report.check_failures.push_back(std::string("exception: ") + e.what());
    report.correct = false;
  }
  return report;
}

}  // namespace alvc::e2e
