// Tag timing recovery: period estimation (paper Fig. 6) and period-folded
// windowing.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "tag/period_estimator.hpp"
#include "tag/periodic_gate.hpp"

namespace bis::tag {
namespace {

constexpr double kFs = 500e3;

/// Synthesize an envelope burst train: DC pedestal + tone during the active
/// part of each period, noise elsewhere.
dsp::RVec burst_train(std::size_t n_periods, double period_s,
                      const std::vector<double>& durations_s, double tone_hz,
                      double noise_rms, std::uint64_t seed, double level = 0.5) {
  Rng rng(seed);
  const auto period_n = static_cast<std::size_t>(std::llround(period_s * kFs));
  dsp::RVec x(n_periods * period_n, 0.0);
  for (std::size_t k = 0; k < n_periods; ++k) {
    const double dur = durations_s[k % durations_s.size()];
    const auto active = static_cast<std::size_t>(std::llround(dur * kFs));
    for (std::size_t i = 0; i < period_n; ++i) {
      const std::size_t idx = k * period_n + i;
      if (i < active) {
        const double t = static_cast<double>(i) / kFs;
        x[idx] = level * (1.0 + std::cos(kTwoPi * tone_hz * t + 0.4));
      }
      x[idx] += rng.gaussian(0.0, noise_rms);
    }
  }
  return x;
}

TEST(PeriodEstimator, RecoversKnownPeriod) {
  const auto x = burst_train(10, 120e-6, {50e-6}, 60e3, 0.01, 1);
  PeriodEstimatorConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_period_s = 50e-6;
  cfg.max_period_s = 300e-6;
  PeriodEstimator pe(cfg);
  const auto p = pe.estimate(x);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 120e-6, 2e-6);
}

TEST(PeriodEstimator, WorksWithMixedDurations) {
  // CSSK payload: durations vary per chirp; the cadence stays fixed.
  const auto x = burst_train(12, 120e-6, {40e-6, 60e-6, 90e-6, 50e-6}, 60e3,
                             0.02, 2);
  PeriodEstimatorConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_period_s = 50e-6;
  cfg.max_period_s = 300e-6;
  PeriodEstimator pe(cfg);
  const auto p = pe.estimate(x);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 120e-6, 3e-6);
}

TEST(PeriodEstimator, HeaderRunDefeatsAlternatingPayloadHarmonic) {
  // A strictly alternating {40, 90} µs payload *is* 240 µs-periodic, so a
  // payload-only signal may legitimately lock to the harmonic. The packet
  // structure guarantees a uniform header run first (paper §3.1): the
  // estimator analyses the leading periods and must find the chirp cadence.
  auto header = burst_train(8, 120e-6, {36e-6}, 150e3, 0.02, 3);
  const auto payload = burst_train(8, 120e-6, {40e-6, 90e-6}, 60e3, 0.02, 4);
  header.insert(header.end(), payload.begin(), payload.end());
  PeriodEstimatorConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_period_s = 50e-6;
  cfg.max_period_s = 400e-6;
  PeriodEstimator pe(cfg);
  const auto p = pe.estimate(header);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(*p, 120e-6, 4e-6);
}

TEST(PeriodEstimator, RejectsPureNoise) {
  Rng rng(5);
  dsp::RVec x(3000);
  for (auto& v : x) v = rng.gaussian(0.0, 1.0);
  PeriodEstimatorConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_period_s = 50e-6;
  cfg.max_period_s = 300e-6;
  PeriodEstimator pe(cfg);
  EXPECT_FALSE(pe.estimate(x).has_value());
}

TEST(PeriodEstimator, TooShortStreamRejected) {
  dsp::RVec x(20, 1.0);
  PeriodEstimatorConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_period_s = 50e-6;
  cfg.max_period_s = 300e-6;
  PeriodEstimator pe(cfg);
  EXPECT_FALSE(pe.estimate(x).has_value());
}

TEST(PeriodicGate, WindowsAlignToChirpStarts) {
  const std::vector<double> durs = {40e-6, 60e-6, 90e-6, 50e-6};
  const auto x = burst_train(12, 120e-6, durs, 60e3, 0.01, 6);
  PeriodicGateConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_burst_s = 16e-6;
  PeriodicGate gate(cfg);
  const auto w = gate.slice(x, 120e-6);
  ASSERT_TRUE(w.has_value());
  EXPECT_GE(w->size(), 12u);
  for (std::size_t k = 0; k < 12; ++k) {
    EXPECT_TRUE((*w)[k].burst_present) << k;
    // Start within a few samples of k·60.
    EXPECT_NEAR(static_cast<double>((*w)[k].start), static_cast<double>(k * 60),
                4.0)
        << k;
  }
}

TEST(PeriodicGate, MarksQuietPeriodsAbsent) {
  // Periods 3 and 7 carry no burst (reflective chirps in integrated mode).
  auto x = burst_train(10, 120e-6, {60e-6}, 60e3, 0.005, 7);
  for (std::size_t k : {3u, 7u}) {
    for (std::size_t i = 0; i < 48; ++i) x[k * 60 + i] = 0.0;
  }
  PeriodicGateConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_burst_s = 16e-6;
  PeriodicGate gate(cfg);
  const auto w = gate.slice(x, 120e-6);
  ASSERT_TRUE(w.has_value());
  EXPECT_FALSE((*w)[3].burst_present);
  EXPECT_FALSE((*w)[7].burst_present);
  EXPECT_TRUE((*w)[2].burst_present);
  EXPECT_TRUE((*w)[4].burst_present);
}

TEST(PeriodicGate, SurvivesLowToneTroughs) {
  // A 13 kHz beat swings the envelope through zero for ~19 samples — longer
  // than the inter-chirp idle. Presence must still hold for every period.
  const auto x = burst_train(10, 120e-6, {96e-6}, 13e3, 0.01, 8);
  PeriodicGateConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.min_burst_s = 16e-6;
  PeriodicGate gate(cfg);
  const auto w = gate.slice(x, 120e-6);
  ASSERT_TRUE(w.has_value());
  std::size_t present = 0;
  for (const auto& win : *w)
    if (win.burst_present) ++present;
  EXPECT_GE(present, 9u);
}

TEST(PeriodicGate, RejectsFlatNoise) {
  Rng rng(9);
  dsp::RVec x(1200);
  for (auto& v : x) v = rng.gaussian(0.0, 0.5);
  PeriodicGateConfig cfg;
  cfg.sample_rate_hz = kFs;
  PeriodicGate gate(cfg);
  EXPECT_FALSE(gate.slice(x, 120e-6).has_value());
}

}  // namespace
}  // namespace bis::tag
