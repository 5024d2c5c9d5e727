// Seeded waveform primitives shared by load generation and demand modeling.
//
// Two client families consume the same traffic shapes:
//
//   * faults::OverloadInjector emits *discrete* provision/teardown events
//     (flash crowds, diurnal ramps, Poisson churn) onto a sim::EventQueue;
//   * elastic::DemandModel evaluates the *continuous* per-chain demand the
//     scaling loop reacts to (diurnal waves, flash pulses, churn noise).
//
// Both must agree on the math — a flash crowd the injector schedules at t
// is the same flash the demand model ramps through at t — so the timing
// and shape primitives live here, in one header, and each client composes
// them. The discrete helpers reproduce OverloadInjector's original
// arithmetic exactly (same expression shapes, same RNG draw order), which
// is what keeps the 20-seed overload soak byte-identical across the
// refactor.
//
// Everything here is a pure function of its arguments; the only state is
// the caller-owned util::Rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace alvc::sim {

// ---- discrete timing (event-schedule generation) -------------------------

/// Arrival times of an `n`-burst starting at `at`, spaced `spacing_s`
/// apart. Times accumulate (t += spacing) rather than multiply out, so
/// schedules built before this helper existed stay bit-identical.
[[nodiscard]] inline std::vector<double> burst_arrival_times(std::size_t n, double at,
                                                             double spacing_s) {
  std::vector<double> times;
  times.reserve(n);
  double t = at;
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(t);
    if (i + 1 < n) t += spacing_s;
  }
  return times;
}

/// Half-cycle slot width of a diurnal ramp over `spec_count` members: the
/// first half of the period admits one member per slot, the second half
/// retires one per slot, with one slot of margin at each end.
[[nodiscard]] inline double diurnal_slot_s(double period_s, std::size_t spec_count) {
  return period_s / (2.0 * static_cast<double>(spec_count + 1));
}

/// Arrival time of member `i` within the cycle starting at `cycle_start_s`.
[[nodiscard]] inline double diurnal_up_s(double cycle_start_s, double slot_s, std::size_t i) {
  return cycle_start_s + slot_s * static_cast<double>(i + 1);
}

/// Departure time of member `i` within the cycle starting at
/// `cycle_start_s` (mirrors the arrival, half a period later).
[[nodiscard]] inline double diurnal_down_s(double cycle_start_s, double period_s, double slot_s,
                                           std::size_t i) {
  return cycle_start_s + period_s / 2 + slot_s * static_cast<double>(i + 1);
}

/// Drives `on_arrival(t)` at seeded Poisson arrival times with rate
/// `rate_per_s` until `horizon_s`. The callback may draw further values
/// from the same `rng` (e.g. to pick which spec arrives); the inter-arrival
/// draw happens strictly after the callback returns, preserving the
/// historical draw order of OverloadInjector::lopri_churn.
template <typename Fn>
void poisson_arrivals(alvc::util::Rng& rng, double rate_per_s, double horizon_s, Fn&& on_arrival) {
  double t = rng.exponential(rate_per_s);
  while (t < horizon_s) {
    on_arrival(t);
    t += rng.exponential(rate_per_s);
  }
}

// ---- continuous shapes (demand evaluation) -------------------------------

/// std::fmod(t, p), bit for bit, without the libm remainder loop when
/// 0 <= t < 2^52 * p and p is finite and positive (every other input goes
/// to std::fmod). Why the fast path is exact: n = floor(t / p) < 2^52 is a
/// double, and rounding is monotone, so fl(t / p) lies in [n, n + 1] and
/// its truncation q is n or n + 1. With q = n, t - q * p is the true
/// remainder r in [0, p), which is always a double. fl(t / p) reaches
/// n + 1 only when t / p - n >= 3/4 (the double below n + 1 is at least
/// n + 1/2), so with q = n + 1, r >= 3p/4 and t - q * p = r - p is a
/// double too (Sterbenz). The fma returns an exact result unrounded, and
/// r - p + p is then exactly r. glibc's fma picks the hardware
/// instruction at load time; no -mfma is needed.
[[nodiscard]] inline double fmod_exact(double t, double p) {
  constexpr double kTwo52 = 0x1p52;
  if (!(p < std::numeric_limits<double>::infinity() && p > 0 && t >= 0 && t < kTwo52 * p)) {
    return std::fmod(t, p);
  }
  const double q = static_cast<double>(static_cast<std::int64_t>(t / p));
  const double r = std::fma(-q, p, t);
  return r < 0 ? r + p : r;
}

/// Diurnal triangle wave in [0, 1]: climbs through the first half of each
/// period and falls through the second — the continuous twin of the
/// member-by-member ramp above. 0 at cycle boundaries, 1 at mid-period.
[[nodiscard]] inline double diurnal_wave(double t_s, double period_s) {
  if (period_s <= 0) return 0;
  double phase = fmod_exact(t_s, period_s) / period_s;
  if (phase < 0) phase += 1.0;
  return phase < 0.5 ? phase * 2.0 : 2.0 - phase * 2.0;
}

/// Flash-crowd pulse in [0, 1]: zero before `at_s`, linear rise over
/// `ramp_s`, flat top for `hold_s`, linear fall over `ramp_s`, zero after.
/// A non-positive `ramp_s` makes the edges vertical.
[[nodiscard]] inline double flash_pulse(double t_s, double at_s, double ramp_s, double hold_s) {
  const double since = t_s - at_s;
  if (since < 0) return 0;
  if (ramp_s <= 0) return since <= hold_s ? 1.0 : 0.0;
  if (since < ramp_s) return since / ramp_s;
  if (since < ramp_s + hold_s) return 1.0;
  const double falling = since - ramp_s - hold_s;
  if (falling < ramp_s) return 1.0 - falling / ramp_s;
  return 0;
}

/// Stateless hash noise in [0, 1): a splitmix64 finalizer over (seed,
/// bucket), so adversarial churn is reproducible without carrying RNG
/// state per chain — demand stays a pure function of (seed, chain, time).
[[nodiscard]] inline double hash_noise(std::uint64_t seed, std::uint64_t bucket) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (bucket + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace alvc::sim
