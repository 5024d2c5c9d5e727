#include "elastic/demand.h"

#include <algorithm>
#include <cmath>

#include "orchestrator/orchestrator.h"
#include "sim/waveform.h"
#include "util/rng.h"

namespace alvc::elastic {

using alvc::orchestrator::ProvisionedChain;
using alvc::util::Rng;

std::uint64_t DemandModel::chain_seed(NfcId id) const noexcept {
  // Splitmix-style scramble of (seed, chain id): adjacent ids must not
  // produce correlated substreams.
  std::uint64_t x = params_.seed;
  x ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id.value()) + 1);
  x ^= x >> 31;
  return x;
}

ChainSeries DemandModel::make_series(NfcId id, double base_gbps) const {
  ChainSeries series;
  series.base_gbps = base_gbps;
  Rng rng(chain_seed(id));
  // Draw order is part of the series' identity: phase first, then the
  // flash schedule, so adding knobs later must append draws, not reorder.
  series.phase_s = rng.uniform(0.0, params_.diurnal_period_s > 0 ? params_.diurnal_period_s : 1.0);
  if (params_.flash_rate_per_s > 0 && params_.horizon_s > 0) {
    alvc::sim::poisson_arrivals(rng, params_.flash_rate_per_s, params_.horizon_s,
                                [&](double t) { series.flash_times_s.push_back(t); });
  }
  return series;
}

void DemandModel::track(NfcId id, double base_gbps) {
  if (series_.contains(id)) return;
  series_.emplace(id, make_series(id, base_gbps));
}

void DemandModel::forget(NfcId id) { series_.erase(id); }

std::vector<double> DemandModel::sync(std::span<const ProvisionedChain* const> chains,
                                      double now_s) {
  std::vector<double> demand;
  demand.reserve(chains.size());
  auto it = series_.begin();
  for (const ProvisionedChain* chain : chains) {
    const NfcId id = chain->record.id;
    while (it != series_.end() && it->first < id) it = series_.erase(it);
    if (it == series_.end() || id < it->first) {
      it = series_.emplace_hint(it, id, make_series(id, chain->record.spec.bandwidth_gbps));
    }
    demand.push_back(evaluate(id, it->second, now_s));
    ++it;
  }
  series_.erase(it, series_.end());
  return demand;
}

double DemandModel::flash_window_s() const noexcept {
  const double hold = std::max(params_.flash_hold_s, 0.0);
  return params_.flash_ramp_s > 0 ? 2.0 * params_.flash_ramp_s + hold : hold;
}

double DemandModel::demand_gbps(NfcId id, double now_s) const {
  const auto it = series_.find(id);
  return it == series_.end() ? 0 : evaluate(id, it->second, now_s);
}

double DemandModel::evaluate(NfcId id, const ChainSeries& s, double now_s) const {
  double factor = 1.0;
  factor += params_.diurnal_amplitude *
            alvc::sim::diurnal_wave(now_s + s.phase_s, params_.diurnal_period_s);
  // Only onsets in [now - window, now] can pulse at now_s; every onset
  // outside contributes exactly +0.0, so visiting the ascending window in
  // order sums the same terms in the same order as a full scan. The slack
  // covers rounding in flash_pulse's arithmetic (an extra onset just adds
  // another +0.0).
  const auto& onsets = s.flash_times_s;
  const double window = flash_window_s();
  const double from = now_s - window - 1e-9 * (window + std::abs(now_s));
  const auto first = std::lower_bound(onsets.begin(), onsets.end(), from);
  const auto last = std::upper_bound(first, onsets.end(), now_s);
  for (auto it = first; it != last; ++it) {
    factor += params_.flash_magnitude *
              alvc::sim::flash_pulse(now_s, *it, params_.flash_ramp_s, params_.flash_hold_s);
  }
  if (params_.churn_amplitude > 0 && params_.churn_bucket_s > 0 && now_s >= 0) {
    const auto bucket = static_cast<std::uint64_t>(now_s / params_.churn_bucket_s);
    const double noise = 2.0 * alvc::sim::hash_noise(chain_seed(id), bucket) - 1.0;
    factor += params_.churn_amplitude * noise;
  }
  return std::max(0.0, s.base_gbps * factor);
}

}  // namespace alvc::elastic
