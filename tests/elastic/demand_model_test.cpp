// DemandModel: determinism, shape bounds, and the shared-waveform
// contract — the discrete schedules OverloadInjector emits and the
// continuous series DemandModel evaluates must flow from the same
// sim/waveform.h primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "elastic/demand.h"
#include "faults/fault_injector.h"
#include "nfv/catalog.h"
#include "orchestrator/orchestrator.h"
#include "sim/waveform.h"
#include "util/rng.h"

namespace alvc::elastic {
namespace {

using alvc::faults::LoadEvent;
using alvc::faults::OverloadInjector;
using alvc::util::NfcId;
using alvc::util::Rng;

DemandParams quiet_params() {
  DemandParams p;
  p.diurnal_amplitude = 0;
  p.flash_rate_per_s = 0;
  p.churn_amplitude = 0;
  return p;
}

TEST(DemandModelTest, UntrackedChainHasZeroDemand) {
  DemandModel model{DemandParams{}};
  EXPECT_DOUBLE_EQ(model.demand_gbps(NfcId{3}, 5.0), 0.0);
  EXPECT_FALSE(model.tracked(NfcId{3}));
}

TEST(DemandModelTest, QuietParamsHoldTheBaseline) {
  DemandModel model{quiet_params()};
  model.track(NfcId{1}, 4.0);
  for (double t = 0; t < 60.0; t += 0.7) {
    EXPECT_DOUBLE_EQ(model.demand_gbps(NfcId{1}, t), 4.0);
  }
}

TEST(DemandModelTest, SeriesIsDeterministicAndStableUnderRetrack) {
  DemandParams params;
  params.seed = 42;
  DemandModel a{params};
  DemandModel b{params};
  a.track(NfcId{7}, 2.0);
  b.track(NfcId{7}, 2.0);
  b.track(NfcId{7}, 999.0);  // re-track must not rebuild the series
  for (double t = 0; t < 40.0; t += 0.31) {
    EXPECT_DOUBLE_EQ(a.demand_gbps(NfcId{7}, t), b.demand_gbps(NfcId{7}, t));
  }
  // Distinct chains under the same seed get decorrelated substreams.
  a.track(NfcId{8}, 2.0);
  bool differs = false;
  for (double t = 0; t < 40.0 && !differs; t += 0.31) {
    differs = std::abs(a.demand_gbps(NfcId{7}, t) - a.demand_gbps(NfcId{8}, t)) > 1e-9;
  }
  EXPECT_TRUE(differs);
}

TEST(DemandModelTest, DiurnalWaveStaysInsideItsEnvelopeAndActuallyMoves) {
  DemandParams params = quiet_params();
  params.diurnal_amplitude = 1.0;
  params.diurnal_period_s = 10.0;
  DemandModel model{params};
  model.track(NfcId{1}, 3.0);
  double lo = 1e18, hi = -1e18;
  for (double t = 0; t < 20.0; t += 0.05) {
    const double d = model.demand_gbps(NfcId{1}, t);
    EXPECT_GE(d, 3.0 - 1e-9);
    EXPECT_LE(d, 6.0 + 1e-9);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // A full period was sampled, so both extremes must have been visited.
  EXPECT_NEAR(lo, 3.0, 0.1);
  EXPECT_NEAR(hi, 6.0, 0.1);
}

TEST(DemandModelTest, FlashCrowdsSpikeAboveTheDiurnalCeiling) {
  DemandParams params = quiet_params();
  params.flash_rate_per_s = 0.5;  // essentially guaranteed within the horizon
  params.flash_magnitude = 3.0;
  params.horizon_s = 60.0;
  DemandModel model{params};
  model.track(NfcId{1}, 2.0);
  double hi = 0;
  for (double t = 0; t < 60.0; t += 0.05) hi = std::max(hi, model.demand_gbps(NfcId{1}, t));
  EXPECT_GT(hi, 2.0 * (1.0 + params.flash_magnitude) - 0.5) << "no flash reached full height";
}

TEST(DemandModelTest, ChurnNoiseIsBoundedAndZeroMeanish) {
  DemandParams params = quiet_params();
  params.churn_amplitude = 0.2;
  params.churn_bucket_s = 0.5;
  DemandModel model{params};
  model.track(NfcId{1}, 10.0);
  double sum = 0;
  std::size_t n = 0;
  for (double t = 0; t < 200.0; t += 0.5) {
    const double d = model.demand_gbps(NfcId{1}, t);
    EXPECT_GE(d, 8.0 - 1e-9);
    EXPECT_LE(d, 12.0 + 1e-9);
    sum += d;
    ++n;
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 10.0, 0.5);
}

// ---- windowed flash lookup == full scan ----------------------------------

/// The diurnal triangle wave with its own std::fmod, independent of the
/// remainder sim::diurnal_wave computes.
double reference_diurnal_wave(double t_s, double period_s) {
  if (period_s <= 0) return 0;
  double phase = std::fmod(t_s, period_s) / period_s;
  if (phase < 0) phase += 1.0;
  return phase < 0.5 ? phase * 2.0 : 2.0 - phase * 2.0;
}

/// Reference for demand_gbps: the same terms in the same order, but summing
/// the pulse of every flash onset of the series, as the model did before
/// it looked up only the onsets near `now_s`. The churn substream seed is
/// the model's (seed, chain id) scramble. Sets `pulsing` when some flash
/// term is non-zero.
double full_scan_demand_gbps(const DemandParams& p, NfcId id, const ChainSeries& s, double now_s,
                             bool& pulsing) {
  double factor = 1.0;
  factor += p.diurnal_amplitude * reference_diurnal_wave(now_s + s.phase_s, p.diurnal_period_s);
  pulsing = false;
  for (double at : s.flash_times_s) {
    const double pulse = alvc::sim::flash_pulse(now_s, at, p.flash_ramp_s, p.flash_hold_s);
    pulsing = pulsing || pulse != 0.0;
    factor += p.flash_magnitude * pulse;
  }
  if (p.churn_amplitude > 0 && p.churn_bucket_s > 0 && now_s >= 0) {
    std::uint64_t seed = p.seed;
    seed ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id.value()) + 1);
    seed ^= seed >> 31;
    const auto bucket = static_cast<std::uint64_t>(now_s / p.churn_bucket_s);
    factor += p.churn_amplitude * (2.0 * alvc::sim::hash_noise(seed, bucket) - 1.0);
  }
  return std::max(0.0, s.base_gbps * factor);
}

TEST(DemandModelTest, WindowedFlashLookupEqualsTheFullScanBitForBit) {
  struct Shape {
    double ramp_s, hold_s, rate_per_s;
  };
  // Default pulses, overlapping pulses, vertical edges, no hold, both.
  constexpr Shape kShapes[] = {{0.5, 3.0, 0.05}, {0.5, 3.0, 1.5}, {0.0, 3.0, 0.4},
                               {0.5, 0.0, 0.4},  {0.0, 0.0, 0.4}, {0.25, 0.1, 4.0}};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t compared = 0, edges = 0, pulsing = 0, past_horizon = 0;
  for (const std::uint64_t seed : {1u, 2u, 5u, 42u}) {
    for (const double horizon_s : {10.0, 60.0, 1500.0}) {
      for (const Shape& shape : kShapes) {
        // The reference costs O(onsets) per time and each onset adds 12
        // edge times, so keep the onset count per chain in the hundreds.
        if (shape.rate_per_s * horizon_s > 800) continue;
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " horizon " << horizon_s
                                          << " ramp " << shape.ramp_s << " hold "
                                          << shape.hold_s << " rate " << shape.rate_per_s);
        DemandParams params;
        params.seed = seed;
        params.horizon_s = horizon_s;
        params.flash_ramp_s = shape.ramp_s;
        params.flash_hold_s = shape.hold_s;
        params.flash_rate_per_s = shape.rate_per_s;
        DemandModel model{params};
        for (std::uint32_t id = 0; id < 4; ++id) model.track(NfcId{id}, 1.0 + id);
        for (const auto& [id, series] : model.series()) {
          std::vector<double> times;
          for (const double at : series.flash_times_s) {
            const double ramp = shape.ramp_s, hold = shape.hold_s;
            for (const double edge : {at, at + ramp, at + ramp + hold, at + 2 * ramp + hold}) {
              times.insert(times.end(),
                           {std::nextafter(edge, -kInf), edge, std::nextafter(edge, kInf)});
            }
          }
          edges += times.size();
          for (double t = -1.0; t < horizon_s + 10; t += horizon_s / 97) times.push_back(t);
          times.insert(times.end(), {horizon_s, horizon_s + 5, 2 * horizon_s});
          for (const double t : times) {
            bool pulse = false;
            const double want = full_scan_demand_gbps(params, id, series, t, pulse);
            const double got = model.demand_gbps(id, t);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
                << "chain " << id.value() << " t=" << t << ": " << got << " vs " << want;
            ++compared;
            pulsing += pulse ? 1 : 0;
            past_horizon += t > horizon_s ? 1 : 0;
          }
        }
      }
    }
  }
  // Non-vacuous: pulse edges, live pulses and times past the horizon were
  // all compared.
  EXPECT_GT(edges, 10000u);
  EXPECT_GT(pulsing, 10000u);
  EXPECT_GT(past_horizon, 100u);
  EXPECT_GT(compared, edges);
}

// ---- sync's flash cursor == full scan --------------------------------------

/// Times a tick loop could hand sync(), in order: a monotone sweep, repeated
/// times, pulse edges of `edge_onsets` (+-1 ulp) forwards and then
/// backwards, random jumps both ways, a jump back to the start, and times
/// past the horizon with a step back among them.
std::vector<double> cursor_times(const DemandParams& p, const std::vector<double>& edge_onsets,
                                 std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double horizon_s = p.horizon_s;
  std::vector<double> times;
  for (double t = -1.0; t < horizon_s + 5; t += horizon_s / 211) times.push_back(t);
  for (double t = 0; t < horizon_s; t += horizon_s / 37) times.insert(times.end(), {t, t, t});
  std::vector<double> edges;
  for (std::size_t i = 0; i < edge_onsets.size() && i < 40; ++i) {
    const double at = edge_onsets[i], ramp = p.flash_ramp_s, hold = p.flash_hold_s;
    for (const double edge : {at, at + ramp, at + ramp + hold, at + 2 * ramp + hold}) {
      edges.insert(edges.end(), {std::nextafter(edge, -kInf), edge, std::nextafter(edge, kInf)});
    }
  }
  times.insert(times.end(), edges.begin(), edges.end());
  times.insert(times.end(), edges.rbegin(), edges.rend());
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) times.push_back(rng.uniform(-1.0, horizon_s + 5));
  for (double t = 0; t < horizon_s; t += horizon_s / 53) times.push_back(t);
  times.insert(times.end(), {horizon_s, horizon_s + 1, 2 * horizon_s, 2 * horizon_s - 3,
                             horizon_s - 1});
  return times;
}

TEST(DemandModelTest, SyncCursorEqualsTheFullScanBitForBit) {
  using alvc::orchestrator::ProvisionedChain;
  struct Shape {
    double ramp_s, hold_s, rate_per_s;
  };
  // Default pulses, overlapping pulses, vertical edges, short dense pulses.
  constexpr Shape kShapes[] = {{0.5, 3.0, 0.05}, {0.5, 3.0, 1.5}, {0.0, 3.0, 0.4},
                               {0.25, 0.1, 4.0}};
  std::size_t compared = 0, pulsing = 0, fallbacks = 0, past_horizon = 0, churned = 0;
  for (const std::uint64_t seed : {1u, 42u}) {
    for (const double horizon_s : {10.0, 60.0}) {
      for (const Shape& shape : kShapes) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " horizon " << horizon_s
                                          << " ramp " << shape.ramp_s << " hold "
                                          << shape.hold_s << " rate " << shape.rate_per_s);
        DemandParams params;
        params.seed = seed;
        params.horizon_s = horizon_s;
        params.flash_ramp_s = shape.ramp_s;
        params.flash_hold_s = shape.hold_s;
        params.flash_rate_per_s = shape.rate_per_s;
        DemandModel model{params};

        // The live population, ascending ids as NetworkOrchestrator::chains()
        // gives it. Chain 0 stays throughout; its onsets supply the edges.
        std::vector<ProvisionedChain> live(6);
        for (std::uint32_t i = 0; i < live.size(); ++i) {
          live[i].record.id = NfcId{i};
          live[i].record.spec.bandwidth_gbps = 1.0 + i;
        }
        std::uint32_t next_id = static_cast<std::uint32_t>(live.size());
        model.track(NfcId{0}, 1.0);
        const std::vector<double> edge_onsets = model.series().front().second.flash_times_s;

        std::vector<std::size_t> last_cursor(live.size() + 1000, 0);
        const std::vector<double> times = cursor_times(params, edge_onsets, seed);
        for (std::size_t step = 0; step < times.size(); ++step) {
          const double t = times[step];
          // Between syncs, as the reprovision hook and tear-downs do: swap a
          // chain for a new id, forget a chain that stays live, track one
          // that is not.
          if (step % 17 == 16) {
            const auto moved =
                live.begin() + static_cast<std::ptrdiff_t>(1 + (step / 17) % (live.size() - 1));
            const NfcId old_id = moved->record.id;
            moved->record.id = NfcId{next_id++};  // the newest id: rotate it to the end
            std::rotate(moved, moved + 1, live.end());
            model.forget(old_id);
            model.track(live.back().record.id, live.back().record.spec.bandwidth_gbps);
            ++churned;
          }
          if (step % 23 == 22) {
            model.forget(live[2].record.id);  // re-tracked by the sync, cursor at 0
            last_cursor[live[2].record.id.value()] = 0;
          }
          if (step % 29 == 28) model.track(NfcId{next_id + 500}, 3.0);

          std::vector<const ProvisionedChain*> snapshot;
          for (const auto& chain : live) snapshot.push_back(&chain);
          ASSERT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end(),
                                     [](const auto* a, const auto* b) {
                                       return a->record.id < b->record.id;
                                     }));
          const std::vector<double> demand = model.sync(snapshot, t);
          ASSERT_EQ(demand.size(), live.size());
          ASSERT_EQ(model.series().size(), live.size());
          for (std::size_t i = 0; i < live.size(); ++i) {
            const NfcId id = live[i].record.id;
            const auto& [tracked_id, series] = model.series()[i];
            ASSERT_EQ(tracked_id, id);
            bool pulse = false;
            const double want = full_scan_demand_gbps(params, id, series, t, pulse);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(demand[i]), std::bit_cast<std::uint64_t>(want))
                << "step " << step << " chain " << id.value() << " t=" << t << ": "
                << demand[i] << " vs " << want;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(model.demand_gbps(id, t)),
                      std::bit_cast<std::uint64_t>(want));
            ++compared;
            pulsing += pulse ? 1 : 0;
            past_horizon += t > horizon_s ? 1 : 0;
            if (id.value() < last_cursor.size()) {
              fallbacks += series.flash_cursor < last_cursor[id.value()] ? 1 : 0;
              last_cursor[id.value()] = series.flash_cursor;
            }
          }
        }
      }
    }
  }
  // Non-vacuous: live pulses, cursors moving back, times past the horizon
  // and tracked-set churn between syncs were all exercised.
  EXPECT_GT(pulsing, 20000u);
  EXPECT_GT(fallbacks, 5000u);
  EXPECT_GT(past_horizon, 5000u);
  EXPECT_GT(churned, 500u);
  EXPECT_GT(compared, 100000u);
}

// ---- shared-waveform contract with OverloadInjector ----------------------

std::vector<alvc::nfv::NfcSpec> three_specs() {
  const auto catalog = alvc::nfv::VnfCatalog::make_default();
  alvc::nfv::NfcSpec spec;
  spec.functions = {*catalog.find_by_type(alvc::nfv::VnfType::kFirewall)};
  return {spec, spec, spec};
}

TEST(DemandModelTest, SyncMergesTheTrackedSetWithTheChainSnapshot) {
  using alvc::orchestrator::ProvisionedChain;
  const auto make_chain = [](std::uint32_t id, double gbps) {
    ProvisionedChain chain;
    chain.record.id = NfcId{id};
    chain.record.spec.bandwidth_gbps = gbps;
    return chain;
  };
  DemandParams params;
  params.seed = 9;
  DemandModel synced{params};
  DemandModel reference{params};
  // Tracked before the sync: 1 and 4 survive, 0, 3 and 9 (past the last
  // chain) are stale.
  for (std::uint32_t id : {0u, 1u, 3u, 4u, 9u}) {
    synced.track(NfcId{id}, 1.0);
  }
  reference.track(NfcId{1}, 1.0);
  reference.track(NfcId{4}, 1.0);
  const std::vector<ProvisionedChain> chains{make_chain(1, 5.0), make_chain(2, 2.0),
                                             make_chain(4, 7.0), make_chain(6, 3.0)};
  std::vector<const ProvisionedChain*> snapshot;
  for (const auto& chain : chains) snapshot.push_back(&chain);
  // New chains start at their nominal bandwidth; tracked ones keep theirs.
  reference.track(NfcId{2}, 2.0);
  reference.track(NfcId{6}, 3.0);

  for (double now_s : {0.0, 7.25, 31.5}) {
    const std::vector<double> demand = synced.sync(snapshot, now_s);
    ASSERT_EQ(demand.size(), chains.size());
    ASSERT_EQ(synced.tracked_count(), chains.size());
    for (std::size_t i = 0; i < chains.size(); ++i) {
      const NfcId id = chains[i].record.id;
      EXPECT_TRUE(synced.tracked(id));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(demand[i]),
                std::bit_cast<std::uint64_t>(reference.demand_gbps(id, now_s)))
          << "chain " << id.value() << " at " << now_s;
      EXPECT_EQ(demand[i], synced.demand_gbps(id, now_s));
    }
  }
  for (std::uint32_t id : {0u, 3u, 9u}) EXPECT_FALSE(synced.tracked(NfcId{id}));

  // An empty snapshot forgets everything.
  EXPECT_TRUE(synced.sync({}, 1.0).empty());
  EXPECT_EQ(synced.tracked_count(), 0u);
}

/// Bitwise equality of two series tables: ids, shape fields, onsets and
/// the flash cursor.
void expect_same_series(const SeriesTable& got, const SeriesTable& want, double now_s) {
  ASSERT_EQ(got.size(), want.size()) << "at " << now_s;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [got_id, g] = got[i];
    const auto& [want_id, w] = want[i];
    ASSERT_EQ(got_id, want_id) << "entry " << i << " at " << now_s;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.base_gbps), std::bit_cast<std::uint64_t>(w.base_gbps));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.phase_s), std::bit_cast<std::uint64_t>(w.phase_s));
    EXPECT_EQ(g.flash_times_s, w.flash_times_s);
    EXPECT_EQ(g.flash_cursor, w.flash_cursor) << "chain " << got_id.value() << " at " << now_s;
  }
}

TEST(DemandModelTest, InPlaceSyncEqualsTheMerge) {
  using alvc::orchestrator::ProvisionedChain;
  DemandParams params;
  params.seed = 3;
  params.flash_rate_per_s = 0.5;  // cursors that move every few ticks
  params.horizon_s = 40.0;
  // `merging` tracks chain 0, which never appears in a snapshot, before
  // every sync: its table never matches the snapshot from the first entry,
  // so each of its syncs takes the merge for the whole set.
  DemandModel in_place{params};
  DemandModel merging{params};
  std::vector<ProvisionedChain> live(8);
  for (std::uint32_t i = 0; i < live.size(); ++i) {
    live[i].record.id = NfcId{i + 1};
    live[i].record.spec.bandwidth_gbps = 1.0 + i;
  }
  std::uint32_t next_id = static_cast<std::uint32_t>(live.size()) + 1;
  std::size_t steps = 0;
  const auto sync_both = [&](double now_s) {
    std::vector<const ProvisionedChain*> snapshot;
    for (const auto& chain : live) snapshot.push_back(&chain);
    merging.track(NfcId{0}, 1.0);
    const std::vector<double> got = in_place.sync(snapshot, now_s);
    const std::vector<double> want = merging.sync(snapshot, now_s);
    ASSERT_EQ(got.size(), live.size());
    ASSERT_EQ(want.size(), live.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "chain " << live[i].record.id.value() << " at " << now_s;
    }
    ASSERT_FALSE(merging.tracked(NfcId{0}));
    expect_same_series(in_place.series(), merging.series(), now_s);
    ++steps;
  };

  double t = 0;
  // Unchanged set, tick after tick.
  for (int i = 0; i < 40; ++i, t += 0.5) sync_both(t);
  // A chain removed from the middle.
  live.erase(live.begin() + 3);
  for (int i = 0; i < 5; ++i, t += 0.5) sync_both(t);
  // A chain appended (the newest id goes last).
  live.emplace_back();
  live.back().record.id = NfcId{next_id++};
  live.back().record.spec.bandwidth_gbps = 2.5;
  for (int i = 0; i < 5; ++i, t += 0.5) sync_both(t);
  // Removed from the middle and appended between the same two syncs.
  live.erase(live.begin() + 1);
  live.emplace_back();
  live.back().record.id = NfcId{next_id++};
  live.back().record.spec.bandwidth_gbps = 4.0;
  sync_both(t);
  // The first and the last chain torn down.
  live.erase(live.begin());
  live.pop_back();
  sync_both(t += 0.5);
  // Time going back, over an unchanged set: cursors move back in place.
  for (const double back : {t - 7.0, 3.0, 3.0, 0.25, 21.0, -1.0, 12.0}) sync_both(back);
  // A chain tracked between syncs ahead of its snapshot entry.
  live.emplace_back();
  live.back().record.id = NfcId{next_id};
  live.back().record.spec.bandwidth_gbps = 1.5;
  in_place.track(NfcId{next_id}, 1.5);
  sync_both(30.0);
  // An empty snapshot forgets everything on both sides.
  live.clear();
  sync_both(31.0);
  EXPECT_EQ(in_place.tracked_count(), 0u);
  EXPECT_EQ(steps, 61u);
}

TEST(SharedWaveformTest, FlashCrowdArrivalsAreBurstArrivalTimes) {
  const auto specs = three_specs();
  const auto events = OverloadInjector::flash_crowd(specs, 13.0, 0.3, 10.0, 100);
  const auto expected = alvc::sim::burst_arrival_times(specs.size(), 13.0, 0.3);
  std::size_t arrivals = 0;
  for (const LoadEvent& e : events) {
    if (!e.provision) {
      // Joint departure: last arrival + hold.
      EXPECT_DOUBLE_EQ(e.time_s, expected.back() + 10.0);
      continue;
    }
    ASSERT_LT(arrivals, expected.size());
    EXPECT_DOUBLE_EQ(e.time_s, expected[arrivals++]);
  }
  EXPECT_EQ(arrivals, expected.size());
}

TEST(SharedWaveformTest, DiurnalRampTimesComeFromTheSharedSlotMath) {
  const auto specs = three_specs();
  const double period = 20.0, horizon = 40.0;
  const auto events = OverloadInjector::diurnal_ramp(specs, period, horizon, 0);
  const double slot = alvc::sim::diurnal_slot_s(period, specs.size());
  std::vector<double> expected;
  for (std::size_t cycle = 0; cycle * period < horizon; ++cycle) {
    const double start = static_cast<double>(cycle) * period;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double up = alvc::sim::diurnal_up_s(start, slot, i);
      const double down = alvc::sim::diurnal_down_s(start, period, slot, i);
      if (up >= horizon) break;
      expected.push_back(up);
      if (down < horizon) expected.push_back(down);
    }
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].time_s, expected[i]);
  }
}

TEST(SharedWaveformTest, LopriChurnPreservesTheHistoricalDrawOrder) {
  const auto specs = three_specs();
  const std::uint64_t seed = 77;
  const auto events = OverloadInjector::lopri_churn(specs, 0.4, 5.0, 40.0, seed, 0);
  // Replay the exact draw order by hand: inter-arrival draw, then the
  // spec pick from the same stream, repeated.
  Rng rng(seed);
  std::vector<std::pair<double, std::size_t>> expected;  // (arrival, spec index)
  alvc::sim::poisson_arrivals(rng, 0.4, 40.0, [&](double t) {
    expected.emplace_back(t, rng.uniform_index(specs.size()));
  });
  std::size_t arrivals = 0;
  for (const LoadEvent& e : events) {
    if (!e.provision) continue;
    ASSERT_LT(arrivals, expected.size());
    EXPECT_DOUBLE_EQ(e.time_s, expected[arrivals].first);
    EXPECT_EQ(e.spec.priority, alvc::nfv::PriorityClass::kLopri);
    ++arrivals;
  }
  EXPECT_EQ(arrivals, expected.size());
}

}  // namespace
}  // namespace alvc::elastic
