// Seeded per-chain demand model (the elasticity loop's sensor).
//
// Chains are provisioned at a nominal bandwidth, but real traffic moves:
// diurnal waves, flash crowds, and adversarial churn (the usagegen shapes
// ROADMAP names). DemandModel turns a (seed, chain, time) triple into the
// Gbps the chain's tenants are pushing *right now*, as a pure function —
// no wall clock, and no state that changes a value (the per-series flash
// cursor only saves a search) — so the scaling loop, the soak suite, and
// the bench all observe the identical series for a given seed.
//
// The waveform math is shared with faults::OverloadInjector via
// sim/waveform.h: the injector schedules discrete provision/teardown
// events from these shapes, the demand model evaluates their continuous
// twins, and the two stay in agreement by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nfv/nfc.h"
#include "util/ids.h"

namespace alvc::orchestrator {
struct ProvisionedChain;
}

namespace alvc::elastic {

using alvc::util::NfcId;

/// Shape parameters for every tracked chain. Each chain derives its own
/// substream (phase offset, flash schedule, churn stream) from `seed` and
/// its id, so chains are decorrelated but individually reproducible.
struct DemandParams {
  /// Diurnal triangle wave: period and peak-over-base amplitude
  /// (amplitude 1.0 means demand doubles at mid-period).
  double diurnal_period_s = 20.0;
  double diurnal_amplitude = 1.0;
  /// Flash crowds arrive as a per-chain Poisson process over the horizon;
  /// each adds `flash_magnitude` x base at full height.
  double flash_rate_per_s = 0.05;
  double flash_magnitude = 2.0;
  double flash_ramp_s = 0.5;
  double flash_hold_s = 3.0;
  /// Adversarial churn: zero-mean hash noise of this relative amplitude,
  /// re-drawn every `churn_bucket_s` of simulated time.
  double churn_amplitude = 0.15;
  double churn_bucket_s = 1.0;
  /// Flash schedules are materialised up to this horizon at track() time.
  double horizon_s = 60.0;
  std::uint64_t seed = 1;
};

/// Precomputed per-chain series state. The shape fields are fixed at
/// track() time; only the flash cursor moves, and it never changes a value.
struct ChainSeries {
  double base_gbps = 0;
  double phase_s = 0;                  // diurnal phase offset
  std::vector<double> flash_times_s;   // Poisson flash-crowd onsets, ascending
  /// Index of the first onset whose pulse can be non-zero at the last
  /// synced time. sync() moves it forward with time and re-searches when
  /// time goes back, so a tick visits only the onsets in the pulse window.
  std::size_t flash_cursor = 0;
};

/// Tracked series in ascending chain-id order, one entry per chain.
using SeriesTable = std::vector<std::pair<NfcId, ChainSeries>>;

class DemandModel {
 public:
  explicit DemandModel(const DemandParams& params) : params_(params) {}

  /// Starts tracking a chain at `base_gbps` nominal demand, deriving its
  /// substream deterministically from (params.seed, id). Re-tracking an
  /// already-tracked chain is a no-op (the series is stable).
  void track(NfcId id, double base_gbps);

  /// Stops tracking (chain torn down or lost).
  void forget(NfcId id);

  /// Makes the tracked set exactly `chains` (ascending ids, as
  /// NetworkOrchestrator::chains() returns them): chains not yet tracked
  /// start at their nominal bandwidth, tracked ids missing from `chains`
  /// are forgotten. While the ids match series() position by position the
  /// table is updated in place; from the first mismatch on, one lockstep
  /// merge into a reused buffer rebuilds the rest. Returns each chain's
  /// demand at `now_s`, index-aligned with `chains`: the values
  /// demand_gbps(id, now_s) gives, without a lookup per chain, and with
  /// each series' flash cursor moved to `now_s`.
  std::vector<double> sync(std::span<const alvc::orchestrator::ProvisionedChain* const> chains,
                           double now_s);

  [[nodiscard]] bool tracked(NfcId id) const { return find(id) != series_.end(); }
  [[nodiscard]] std::size_t tracked_count() const noexcept { return series_.size(); }

  /// Instantaneous demand of a tracked chain at `now_s`, in Gbps;
  /// 0 for untracked chains. Never negative. Visits only the flash onsets
  /// whose pulse can be non-zero at `now_s` (a binary search over the
  /// ascending onsets), so the cost does not grow with the horizon. Leaves
  /// the cursor alone: the value is the one sync() gives at `now_s`.
  [[nodiscard]] double demand_gbps(NfcId id, double now_s) const;

  [[nodiscard]] const DemandParams& params() const noexcept { return params_; }
  /// Tracked series as a flat table in ascending chain-id order: iteration
  /// is deterministic for audits and gauges, and every lookup by id is a
  /// binary search.
  [[nodiscard]] const SeriesTable& series() const noexcept { return series_; }

 private:
  [[nodiscard]] SeriesTable::const_iterator find(NfcId id) const;
  [[nodiscard]] std::uint64_t chain_seed(NfcId id) const noexcept;
  [[nodiscard]] ChainSeries make_series(NfcId id, double base_gbps) const;
  /// What evaluate() needs of a time that is the same for every chain:
  /// sync() computes it once per call, demand_gbps() once per lookup.
  struct Instant {
    double now_s = 0;
    double from_s = 0;         // window_from(now_s)
    bool churn = false;        // churn noise applies at now_s
    std::uint64_t bucket = 0;  // churn bucket of now_s, when `churn`
  };
  [[nodiscard]] Instant instant(double now_s) const noexcept;
  /// Demand of `s` at `at.now_s`, summing the flash onsets from index
  /// `first` (window_begin(s, at.from_s)) up to `at.now_s`. The one
  /// evaluation body: sync() passes the cursor, demand_gbps() a fresh
  /// binary search.
  [[nodiscard]] double evaluate(NfcId id, const ChainSeries& s, const Instant& at,
                                std::size_t first) const;
  /// Index of the first onset at or after `from_s` (window_from of a time):
  /// the first whose pulse can be non-zero at that time.
  [[nodiscard]] static std::size_t window_begin(const ChainSeries& s, double from_s);
  /// Moves `s.flash_cursor` to window_begin(s, from_s): forward by linear
  /// steps, or by a binary search when time went back past it.
  static void advance_cursor(ChainSeries& s, double from_s);
  /// Earliest onset time whose pulse can be non-zero at `now_s`.
  [[nodiscard]] double window_from(double now_s) const noexcept;

  DemandParams params_;
  SeriesTable series_;
  SeriesTable merged_;  // sync()'s merge target, swapped with series_
};

}  // namespace alvc::elastic
