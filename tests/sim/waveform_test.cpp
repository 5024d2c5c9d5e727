// sim::fmod_exact and sim::diurnal_wave against std::fmod, bit for bit.
//
// The demand model evaluates the diurnal wave once per chain per tick, so
// its remainder skips libm on the common inputs. Every demand value, and
// with it every scaling decision, must stay what std::fmod gives; these
// cases sweep the inputs where a quotient-based remainder can go wrong:
// exact multiples and their 1-ulp neighbours (the quotient rounds up past
// the true one), t just below p, tiny, subnormal, huge and non-integer
// periods, and every input the fast path hands back to std::fmod.
#include "sim/waveform.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace alvc::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kTwo52 = 0x1p52;

/// diurnal_wave as written with std::fmod: the independent reference.
double reference_wave(double t_s, double period_s) {
  if (period_s <= 0) return 0;
  double phase = std::fmod(t_s, period_s) / period_s;
  if (phase < 0) phase += 1.0;
  return phase < 0.5 ? phase * 2.0 : 2.0 - phase * 2.0;
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Counts compared pairs and keeps the first mismatch; one gtest assertion
/// per pair would cost more than the ten million pairs themselves.
struct Checker {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  double bad_t = 0, bad_p = 0;

  void check(double t, double p) {
    ++compared;
    if (same(fmod_exact(t, p), std::fmod(t, p)) && same(diurnal_wave(t, p), reference_wave(t, p))) {
      return;
    }
    if (mismatches++ == 0) {
      bad_t = t;
      bad_p = p;
    }
  }

  /// t, and its neighbours one ulp down and up.
  void check_around(double t, double p) {
    check(std::nextafter(t, -kInf), p);
    check(t, p);
    check(std::nextafter(t, kInf), p);
  }

  void expect_clean() const {
    EXPECT_EQ(mismatches, 0u) << "first mismatch: t=" << std::hexfloat << bad_t << " p=" << bad_p
                              << " fmod_exact=" << fmod_exact(bad_t, bad_p)
                              << " std::fmod=" << std::fmod(bad_t, bad_p);
  }
};

/// Log-uniform in [2^lo, 2^hi).
double log_uniform(alvc::util::Rng& rng, double lo, double hi) {
  return std::exp2(rng.uniform(lo, hi));
}

/// The periods every sweep runs over: the demand model's default, integer,
/// non-integer, tiny, subnormal and huge ones.
std::vector<double> periods() {
  return {20.0,    1.0,     3.0,      0.1,      1.0 / 3.0, 7.77,    86400.0, 1e-300,
          3e-310,  5e-324,  0x1p-1022, 1e300,   1.7e308,  0x1p971, 0x1p973, 123456.789};
}

TEST(WaveformRemainderTest, ExactMultiplesAndTheirNeighboursMatchStdFmod) {
  Checker c;
  alvc::util::Rng rng(1);
  for (const double p : periods()) {
    for (std::uint64_t k = 0; k < 4096; ++k) c.check_around(static_cast<double>(k) * p, p);
    for (int i = 0; i < 150000; ++i) {
      // Quotients up to and past 2^52, where q = t / p rounds the most.
      const double k = std::floor(log_uniform(rng, 0, 53));
      c.check_around(k * p, p);
    }
  }
  c.expect_clean();
  EXPECT_GT(c.compared, 7'000'000u);
}

TEST(WaveformRemainderTest, RandomRatiosMatchStdFmod) {
  Checker c;
  alvc::util::Rng rng(2);
  for (const double p : periods()) {
    // t just below p, the largest remainder.
    c.check(std::nextafter(p, 0.0), p);
    for (int e = 1; e < 60; ++e) c.check(p - std::ldexp(p, -e), p);
    for (int i = 0; i < 60000; ++i) c.check(log_uniform(rng, -60, 52) * p, p);
  }
  // Random non-integer periods with the tick-loop's t range and beyond.
  for (int i = 0; i < 1'000'000; ++i) {
    const double p = log_uniform(rng, -30, 30);
    c.check(rng.uniform(0.0, 2000.0), p);
    c.check(log_uniform(rng, -40, 52) * p, p);
  }
  c.expect_clean();
  EXPECT_GT(c.compared, 2'900'000u);
}

TEST(WaveformRemainderTest, FallbackInputsMatchStdFmod) {
  Checker c;
  alvc::util::Rng rng(3);
  std::vector<double> ps = periods();
  ps.insert(ps.end(), {kInf, kNaN, 0.0, -0.0, -20.0, -kInf});
  for (const double p : ps) {
    // Negative t, the quotient bound 2^52 * p and past it, and non-finite t.
    for (const double t : {-0.0, 0.0, -p, -1.0, -1e300, kTwo52 * p, 0x1p53 * p, 0x1p80 * p, kInf,
                           -kInf, kNaN, -kNaN}) {
      c.check_around(t, p);
    }
    for (int i = 0; i < 20000; ++i) {
      c.check(-log_uniform(rng, -60, 60) * p, p);
      c.check(log_uniform(rng, 52, 100) * p, p);
      c.check(rng.uniform(-2000.0, 2000.0), p);
    }
  }
  c.expect_clean();
  EXPECT_GT(c.compared, 1'000'000u);
}

TEST(WaveformRemainderTest, DiurnalWaveKeepsItsShape) {
  // The remainder change must not move the wave's landmarks.
  EXPECT_EQ(diurnal_wave(0.0, 20.0), 0.0);
  EXPECT_EQ(diurnal_wave(5.0, 20.0), 0.5);
  EXPECT_EQ(diurnal_wave(10.0, 20.0), 1.0);
  EXPECT_EQ(diurnal_wave(15.0, 20.0), 0.5);
  EXPECT_EQ(diurnal_wave(20.0, 20.0), 0.0);
  EXPECT_EQ(diurnal_wave(-5.0, 20.0), 0.5);
  EXPECT_EQ(diurnal_wave(7.0, 0.0), 0.0);
  EXPECT_EQ(diurnal_wave(7.0, -1.0), 0.0);
}

}  // namespace
}  // namespace alvc::sim
