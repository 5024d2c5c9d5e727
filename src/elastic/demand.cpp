#include "elastic/demand.h"

#include <algorithm>
#include <cmath>
#include <iterator>

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

namespace {

bool id_before(const std::pair<NfcId, ChainSeries>& entry, NfcId id) { return entry.first < id; }

}  // namespace

SeriesTable::const_iterator DemandModel::find(NfcId id) const {
  const auto it = std::lower_bound(series_.begin(), series_.end(), id, id_before);
  return it != series_.end() && it->first == id ? it : series_.end();
}

void DemandModel::track(NfcId id, double base_gbps) {
  const auto it = std::lower_bound(series_.begin(), series_.end(), id, id_before);
  if (it != series_.end() && it->first == id) return;
  series_.emplace(it, id, make_series(id, base_gbps));
}

void DemandModel::forget(NfcId id) {
  const auto it = find(id);
  if (it != series_.end()) series_.erase(it);
}

std::vector<double> DemandModel::sync(std::span<const ProvisionedChain* const> chains,
                                      double now_s) {
  const Instant at = instant(now_s);
  std::vector<double> demand;
  demand.reserve(chains.size());
  const auto observe = [&](NfcId id, ChainSeries& series) {
    advance_cursor(series, at.from_s);
    demand.push_back(evaluate(id, series, at, series.flash_cursor));
  };
  // Most ticks see the set of the last one: walk the table in place while
  // its ids match the snapshot's.
  std::size_t i = 0;
  for (; i < chains.size() && i < series_.size() && series_[i].first == chains[i]->record.id;
       ++i) {
    observe(series_[i].first, series_[i].second);
  }
  if (i == chains.size() && i == series_.size()) return demand;

  // From the first mismatch on, merge the rest into the reused buffer.
  merged_.reserve(chains.size());
  merged_.insert(merged_.end(), std::make_move_iterator(series_.begin()),
                 std::make_move_iterator(series_.begin() + static_cast<std::ptrdiff_t>(i)));
  auto it = series_.begin() + static_cast<std::ptrdiff_t>(i);
  for (const ProvisionedChain* chain : chains.subspan(i)) {
    const NfcId id = chain->record.id;
    while (it != series_.end() && it->first < id) ++it;  // torn down: dropped
    if (it != series_.end() && it->first == id) {
      merged_.push_back(std::move(*it++));
    } else {
      merged_.emplace_back(id, make_series(id, chain->record.spec.bandwidth_gbps));
    }
    observe(id, merged_.back().second);
  }
  series_.swap(merged_);
  merged_.clear();
  return demand;
}

double DemandModel::window_from(double now_s) const noexcept {
  // A pulse can be non-zero for 2 * ramp + hold after its onset, or hold
  // when the edges are vertical (ramp <= 0), so only onsets in
  // [now - window, now] can pulse at now_s. The slack covers rounding in
  // flash_pulse's arithmetic (an extra onset just adds another +0.0).
  const double hold = std::max(params_.flash_hold_s, 0.0);
  const double window = params_.flash_ramp_s > 0 ? 2.0 * params_.flash_ramp_s + hold : hold;
  return now_s - window - 1e-9 * (window + std::abs(now_s));
}

DemandModel::Instant DemandModel::instant(double now_s) const noexcept {
  Instant at;
  at.now_s = now_s;
  at.from_s = window_from(now_s);
  at.churn = params_.churn_amplitude > 0 && params_.churn_bucket_s > 0 && now_s >= 0;
  if (at.churn) at.bucket = static_cast<std::uint64_t>(now_s / params_.churn_bucket_s);
  return at;
}

std::size_t DemandModel::window_begin(const ChainSeries& s, double from_s) {
  const auto& onsets = s.flash_times_s;
  return static_cast<std::size_t>(std::lower_bound(onsets.begin(), onsets.end(), from_s) -
                                  onsets.begin());
}

void DemandModel::advance_cursor(ChainSeries& s, double from_s) {
  // The cursor is lower_bound(onsets, from) for the last synced time, so
  // every onset before it lies below that time's `from`. If the one just
  // before it still lies below this `from`, so do all earlier ones and a
  // forward walk lands on the new lower bound; otherwise time went back.
  const auto& onsets = s.flash_times_s;
  std::size_t& at = s.flash_cursor;
  if (at > 0 && !(onsets[at - 1] < from_s)) {
    at = window_begin(s, from_s);
    return;
  }
  while (at < onsets.size() && onsets[at] < from_s) ++at;
}

double DemandModel::demand_gbps(NfcId id, double now_s) const {
  const auto it = find(id);
  if (it == series_.end()) return 0;
  const Instant at = instant(now_s);
  return evaluate(id, it->second, at, window_begin(it->second, at.from_s));
}

double DemandModel::evaluate(NfcId id, const ChainSeries& s, const Instant& at,
                             std::size_t first) const {
  const double now_s = at.now_s;
  double factor = 1.0;
  factor += params_.diurnal_amplitude *
            alvc::sim::diurnal_wave(now_s + s.phase_s, params_.diurnal_period_s);
  // Every onset before `first` or after now_s contributes exactly +0.0, so
  // visiting the ascending window in order sums the same terms in the same
  // order as a full scan.
  const auto& onsets = s.flash_times_s;
  for (std::size_t i = first; i < onsets.size() && !(now_s < onsets[i]); ++i) {
    factor += params_.flash_magnitude *
              alvc::sim::flash_pulse(now_s, onsets[i], params_.flash_ramp_s, params_.flash_hold_s);
  }
  if (at.churn) {
    const double noise = 2.0 * alvc::sim::hash_noise(chain_seed(id), at.bucket) - 1.0;
    factor += params_.churn_amplitude * noise;
  }
  return std::max(0.0, s.base_gbps * factor);
}

}  // namespace alvc::elastic
