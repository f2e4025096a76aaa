// Symbol classification (Goertzel/GLRT bank) and the one-time calibration
// procedure (paper §3.2.1, §5).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "phy/slope_alphabet.hpp"
#include "tag/calibration.hpp"
#include "tag/symbol_demod.hpp"
#include "tag/tag_frontend.hpp"

namespace bis::tag {
namespace {

constexpr double kFs = 500e3;

phy::SlopeAlphabet make_alphabet(std::size_t bits = 5) {
  phy::SlopeAlphabetConfig c;
  c.bandwidth_hz = 1e9;
  c.start_frequency_hz = 9e9;
  c.chirp_period_s = 120e-6;
  c.min_chirp_duration_s = 36e-6;
  c.bits_per_symbol = bits;
  c.delay_line.length_diff_m = 45.0 * 0.0254;
  return phy::SlopeAlphabet::design(c);
}

TagFrontendConfig frontend_config() {
  TagFrontendConfig cfg;
  cfg.delay_line.length_diff_m = 45.0 * 0.0254;
  cfg.envelope.conversion_gain = 1900.0;
  cfg.envelope.output_noise_density = 1e-10;
  cfg.adc.sample_rate_hz = kFs;
  cfg.adc.full_scale = 1.65;
  return cfg;
}

PeriodicGateConfig gate_config(const phy::SlopeAlphabet& a) {
  PeriodicGateConfig g;
  g.sample_rate_hz = kFs;
  g.min_burst_s = 0.5 * a.duration(a.header_slot());
  return g;
}

TEST(SymbolDemod, ClassifiesSyntheticTones) {
  std::vector<double> freqs = {20e3, 40e3, 60e3, 80e3};
  SymbolDemodConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.slot_beat_freqs_hz = freqs;
  SymbolDemod demod(cfg);
  Rng rng(1);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::vector<double> window(48);
    for (std::size_t n = 0; n < window.size(); ++n) {
      window[n] = 0.5 + std::cos(kTwoPi * freqs[i] * static_cast<double>(n) / kFs) +
                  rng.gaussian(0.0, 0.05);
    }
    const auto r = demod.classify(window);
    EXPECT_EQ(r.slot, i);
    EXPECT_GT(r.confidence, 1.0);
  }
}

TEST(SymbolDemod, AnalysisLengthGuards) {
  EXPECT_EQ(SymbolDemod::analysis_length(96e-6, kFs), 46u);  // 48 − 2
  EXPECT_EQ(SymbolDemod::analysis_length(1e-6, kFs), 4u);    // floor
}

TEST(Calibration, NominalTableMatchesAlphabet) {
  const auto a = make_alphabet();
  const auto t = CalibrationTable::nominal(a);
  EXPECT_FALSE(t.calibrated);
  EXPECT_EQ(t.slot_beat_freqs_hz, a.nominal_beat_frequencies());
}

TEST(Calibration, MeasuresDispersionShift) {
  // With dielectric dispersion the actual Δf differs from nominal; the
  // calibrated table must land near the physical value, not the nominal.
  const auto a = make_alphabet();
  auto fc = frontend_config();
  fc.delay_line.dispersion_per_ghz = 0.01;  // exaggerated for visibility
  TagFrontend fe(fc, Rng(2));
  const auto table = run_calibration(fe, a, 1e-4, gate_config(a));
  ASSERT_TRUE(table.calibrated);

  const rf::DelayLinePair line(fc.delay_line);
  for (std::size_t s : {a.sync_slot(), a.slot_for_data(7)}) {
    const auto chirp = a.chirp(s);
    const double physical = chirp.slope() * line.delta_t(chirp.center_frequency_hz());
    const double nominal = a.nominal_beat_frequency(s);
    EXPECT_GT(std::abs(nominal - physical), 250.0) << "dispersion too small to test";
    // Calibrated value is closer to physical than nominal is (the estimator
    // has its own window bias, so exact equality is not expected).
    EXPECT_LT(std::abs(table.slot_beat_freqs_hz[s] - physical),
              std::abs(nominal - physical))
        << s;
  }
}

TEST(Calibration, TableMostlyMonotone) {
  const auto a = make_alphabet();
  TagFrontend fe(frontend_config(), Rng(3));
  const auto table = run_calibration(fe, a, 1e-4, gate_config(a));
  std::size_t inversions = 0;
  for (std::size_t s = 1; s < table.slot_beat_freqs_hz.size(); ++s)
    if (table.slot_beat_freqs_hz[s] < table.slot_beat_freqs_hz[s - 1]) ++inversions;
  EXPECT_LE(inversions, 3u);
}

TEST(Calibration, PhasesRecorded) {
  const auto a = make_alphabet(3);
  TagFrontend fe(frontend_config(), Rng(4));
  const auto table = run_calibration(fe, a, 1e-4, gate_config(a));
  ASSERT_EQ(table.slot_phases_rad.size(), a.slot_count());
  for (double p : table.slot_phases_rad) {
    EXPECT_GE(p, -kPi - 1e-9);
    EXPECT_LE(p, kPi + 1e-9);
  }
}

TEST(Calibration, ClassificationUsesCalibratedTable) {
  // End-to-end: calibrate, then classify fresh chirps of every data slot.
  const auto a = make_alphabet(4);
  TagFrontend fe(frontend_config(), Rng(5));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  const auto table = run_calibration(fe, a, 1e-4, gate_config(a));

  SymbolDemodConfig dc;
  dc.sample_rate_hz = kFs;
  dc.slot_beat_freqs_hz = table.slot_beat_freqs_hz;
  SymbolDemod demod(dc);

  fe.auto_gain(paths);
  std::size_t correct = 0;
  const std::size_t trials = a.slot_count();
  for (std::size_t s = 0; s < trials; ++s) {
    const auto chirp = a.chirp(s);
    const auto samples = fe.receive_chirp_period(chirp, paths, true);
    const auto len = SymbolDemod::analysis_length(chirp.duration_s, kFs);
    const auto r =
        demod.classify(std::span<const double>(samples.data(), len));
    if (r.slot == s) ++correct;
  }
  // High SNR: expect near-perfect classification.
  EXPECT_GE(correct, trials - 1);
}

// ---------------------------------------------------------------------------
// Batched calibration

/// Five tags with their own noise seeds, amplitudes and gates; the last
/// tag's gate never finds a chirp start, so its table stays nominal.
struct BatchTags {
  std::vector<std::unique_ptr<TagFrontend>> frontends;
  std::vector<CalibrationTarget> targets;

  explicit BatchTags(const phy::SlopeAlphabet& a) {
    for (std::size_t k = 0; k < 5; ++k) {
      frontends.push_back(std::make_unique<TagFrontend>(frontend_config(), Rng(40 + k)));
      PeriodicGateConfig gate = gate_config(a);
      gate.smooth_window = 3 + k;
      if (k == 4) gate.min_contrast = 1e9;
      targets.push_back({frontends.back().get(), 1e-4 * (0.6 + 0.2 * k), gate});
    }
  }
};

TEST(CalibrationBatch, MatchesOneAtATimeAtAnyThreadCount) {
  const auto a = make_alphabet();
  BatchTags solo(a);
  std::vector<CalibrationTable> expected;
  for (const auto& t : solo.targets)
    expected.push_back(
        run_calibration(*t.frontend, a, t.incident_amplitude_v, t.gate));
  EXPECT_NE(expected[0].slot_beat_freqs_hz, a.nominal_beat_frequencies());
  EXPECT_EQ(expected[4].slot_beat_freqs_hz, a.nominal_beat_frequencies());
  const std::vector<IncidentPath> paths = {{2e-4, 0.0, 0.0}, {5e-5, 4e-9, 0.5}};
  const auto next_frame = [&](TagFrontend& fe) {
    const std::vector<rf::ChirpParams> chirps = {a.chirp(3), a.chirp(20), a.chirp(3)};
    const bool flags[] = {true, false, true};
    fe.auto_gain(paths);
    return fe.receive_frame(chirps, paths, flags);
  };
  std::vector<dsp::RVec> expected_next;
  for (auto& fe : solo.frontends) expected_next.push_back(next_frame(*fe));

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    BatchTags batch(a);
    const auto tables = run_calibration(batch.targets, a, &pool);
    ASSERT_EQ(tables.size(), expected.size());
    for (std::size_t k = 0; k < tables.size(); ++k) {
      EXPECT_TRUE(tables[k].calibrated);
      EXPECT_EQ(tables[k].slot_beat_freqs_hz, expected[k].slot_beat_freqs_hz) << k;
      EXPECT_EQ(tables[k].slot_phases_rad, expected[k].slot_phases_rad) << k;
      EXPECT_EQ(next_frame(*batch.frontends[k]), expected_next[k]) << k;
    }
  }
}

TEST(CalibrationBatch, OneBankPerSlot) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto a = make_alphabet();
  const obs::Counter& banks =
      obs::Registry::instance().counter("bis.tag.calibration_banks");
  BatchTags batch(a);
  const std::uint64_t before = banks.value();
  run_calibration(batch.targets, a);
  EXPECT_EQ(banks.value() - before, a.slot_count());
  obs::set_enabled(was_enabled);
}

TEST(CalibrationBatch, RejectsTagsThatCannotShareAPlan) {
  const auto a = make_alphabet(3);
  BatchTags batch(a);
  // The same frontend twice.
  std::vector<CalibrationTarget> twice = {batch.targets[0], batch.targets[0]};
  EXPECT_THROW(run_calibration(twice, a), std::exception);
  // Another ADC rate: the slot's window lengths and bank would differ.
  auto cfg = frontend_config();
  cfg.adc.sample_rate_hz = 2.0 * kFs;
  TagFrontend fast(cfg, Rng(9));
  std::vector<CalibrationTarget> mixed = {batch.targets[0],
                                          {&fast, 1e-4, gate_config(a)}};
  EXPECT_THROW(run_calibration(mixed, a), std::exception);
  EXPECT_THROW(run_calibration(std::span<const CalibrationTarget>(), a),
               std::exception);
}

}  // namespace
}  // namespace bis::tag
