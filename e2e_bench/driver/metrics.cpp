#include "metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace alvc::e2e {

std::optional<double> quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return std::nullopt;
  q = std::clamp(q, 0.0, 1.0);
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[rank == 0 ? 0 : rank - 1];
}

void LatencySeries::sort_if_needed() {
  if (sorted_prefix_ == samples_.size()) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_prefix_ = samples_.size();
}

std::optional<double> LatencySeries::p50() {
  sort_if_needed();
  return quantile_sorted(samples_, 0.50);
}

std::optional<double> LatencySeries::p99() {
  if (samples_.size() < kMinP99Samples) return std::nullopt;
  sort_if_needed();
  return quantile_sorted(samples_, 0.99);
}

bool valid_name(std::string_view name) noexcept {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

namespace {

constexpr std::array kEndToEnd{
    MetricDef{"setup_s", "s"},
    MetricDef{"events_per_s", "1/s"},
    MetricDef{"event_p50_us", "us"},
    MetricDef{"event_p99_us", "us"},
    MetricDef{"demand_served_ratio", "ratio"},
    MetricDef{"peak_rss_mb", "MB"},
};

constexpr std::array kPerLayer{
    // topology + cluster (set-up)
    MetricDef{"topology.build.self_ms", "ms"},
    MetricDef{"cluster.build.self_ms", "ms"},
    MetricDef{"setup.populate.self_ms", "ms"},
    MetricDef{"cluster.al_ops_mean", "count"},
    MetricDef{"cluster.al_tors_mean", "count"},
    MetricDef{"cluster.degraded_clusters_end", "count"},
    // orchestrator: provision path
    MetricDef{"orchestrator.provision.self_ms", "ms"},
    MetricDef{"orchestrator.teardown.self_ms", "ms"},
    MetricDef{"admission.admitted", "count"},
    MetricDef{"admission.admitted_downgraded", "count"},
    MetricDef{"admission.rejected", "count"},
    MetricDef{"sdn.rules_installed_per_event", "count/event"},
    MetricDef{"sdn.rules_removed_per_event", "count/event"},
    MetricDef{"nfv.deployed", "count"},
    MetricDef{"nfv.terminated", "count"},
    MetricDef{"nfv.capacity_rejected", "count"},
    MetricDef{"placement.oeo_conversions_mean", "count"},
    // orchestrator: bandwidth allocator
    MetricDef{"orchestrator.rebalance_probe.self_ms", "ms"},
    MetricDef{"orchestrator.rebalance_probe_changes", "count"},
    MetricDef{"orchestrator.alloc_rebalances", "count"},
    MetricDef{"orchestrator.alloc_downgrades", "count"},
    MetricDef{"orchestrator.alloc_restores", "count"},
    // orchestrator: fault path, shards, route cache
    MetricDef{"orchestrator.handle_failure.ops.self_ms", "ms"},
    MetricDef{"orchestrator.handle_failure.tor.self_ms", "ms"},
    MetricDef{"orchestrator.handle_failure.server.self_ms", "ms"},
    MetricDef{"orchestrator.handle_failure.link.self_ms", "ms"},
    MetricDef{"orchestrator.handle_recovery.ops.self_ms", "ms"},
    MetricDef{"orchestrator.handle_recovery.tor.self_ms", "ms"},
    MetricDef{"orchestrator.handle_recovery.server.self_ms", "ms"},
    MetricDef{"orchestrator.handle_recovery.link.self_ms", "ms"},
    MetricDef{"shard.chains_visited_per_event", "count/event"},
    MetricDef{"shard.findings_ratio", "ratio"},
    MetricDef{"route_cache.lookups", "count"},
    MetricDef{"route_cache.served_ratio", "ratio"},
    MetricDef{"orchestrator.chains_repaired", "count"},
    MetricDef{"orchestrator.chains_degraded", "count"},
    MetricDef{"orchestrator.chains_restored", "count"},
    MetricDef{"orchestrator.chains_lost", "count"},
    MetricDef{"orchestrator.retry_queue_depth_max", "count"},
    MetricDef{"orchestrator.degraded_dwell_s_p50", "s"},
    MetricDef{"orchestrator.degraded_dwell_s_p99", "s"},
    // elastic
    MetricDef{"elastic.tick.self_ms", "ms"},
    MetricDef{"elastic.scale_outs", "count"},
    MetricDef{"elastic.scale_ins", "count"},
    MetricDef{"elastic.migrations", "count"},
    MetricDef{"elastic.migration_no_target", "count"},
    MetricDef{"elastic.scaling_rejected", "count"},
    MetricDef{"elastic.al_updates_per_migration", "count"},
    MetricDef{"elastic.slo_violation_rate", "ratio"},
    // faults: auditor
    MetricDef{"auditor.audit.self_ms", "ms"},
    // per-call-class latency of the untraced pass (0 with 0 samples: the
    // workload has no call of that class; a p99 reads 0 below 1000)
    MetricDef{"provision_p50_us", "us"},
    MetricDef{"provision_p99_us", "us"},
    MetricDef{"provision_samples", "count"},
    MetricDef{"teardown_p50_us", "us"},
    MetricDef{"teardown_p99_us", "us"},
    MetricDef{"teardown_samples", "count"},
    MetricDef{"fault_p50_us", "us"},
    MetricDef{"fault_p99_us", "us"},
    MetricDef{"fault_samples", "count"},
    MetricDef{"recovery_p50_us", "us"},
    MetricDef{"recovery_p99_us", "us"},
    MetricDef{"recovery_samples", "count"},
    MetricDef{"tick_p50_us", "us"},
    MetricDef{"tick_p99_us", "us"},
    MetricDef{"tick_samples", "count"},
    MetricDef{"op_failure_ratio", "ratio"},
    // benchmark
    MetricDef{"trace.overhead_ratio", "ratio"},
    MetricDef{"trace.driver_overhead_ratio", "ratio"},
};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() noexcept { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() noexcept { return kPerLayer; }

void MetricSet::set(std::string_view name, double value) {
  const bool known = std::any_of(catalog_.begin(), catalog_.end(),
                                 [&](const MetricDef& def) { return name == def.name; });
  if (!known) throw std::invalid_argument("metric not in catalog: " + std::string(name));
  const bool duplicate = std::any_of(values_.begin(), values_.end(),
                                     [&](const auto& entry) { return entry.first == name; });
  if (duplicate) throw std::invalid_argument("metric set twice: " + std::string(name));
  if (!std::isfinite(value)) throw std::invalid_argument("metric not finite: " + std::string(name));
  values_.emplace_back(std::string(name), value);
}

std::vector<std::string> MetricSet::missing() const {
  std::vector<std::string> out;
  for (const MetricDef& def : catalog_) {
    const bool present = std::any_of(values_.begin(), values_.end(),
                                     [&](const auto& entry) { return entry.first == def.name; });
    if (!present) out.emplace_back(def.name);
  }
  return out;
}

std::string MetricSet::to_json() const {
  if (const auto gaps = missing(); !gaps.empty()) {
    throw std::logic_error("metric not set: " + gaps.front());
  }
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : catalog_) {
    const auto it = std::find_if(values_.begin(), values_.end(),
                                 [&](const auto& entry) { return entry.first == def.name; });
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += def.name;
    out += "\": {\"value\": ";
    out += format_number(it->second);
    out += ", \"unit\": \"";
    out += def.unit;
    out += "\"}";
  }
  out += "}";
  return out;
}

void Fnv1a::f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }

std::string hex_digest(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace alvc::e2e
