// DC-nuisance GLRT tone scoring — the tag demodulator's estimator, designed
// to survive windows holding only ~1 beat cycle on a large pedestal.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/tone_fit.hpp"
#include "dsp/window.hpp"

namespace bis::dsp {
namespace {

std::vector<double> tone_plus_dc(std::size_t n, double freq, double fs, double amp,
                                 double phase, double dc) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = dc + amp * std::cos(kTwoPi * freq * static_cast<double>(i) / fs + phase);
  return x;
}

TEST(ToneGlrtBank, InvalidInputsThrow) {
  const double fs = 500e3;
  for (const double bad : {0.0, -1.0, fs / 2.0, 300e3}) {
    const std::vector<double> freqs = {10e3, bad};
    EXPECT_THROW(ToneGlrtBank(freqs, fs, 8), std::invalid_argument) << bad;
  }
  const std::vector<double> freqs = {10e3, 20e3};
  const ToneGlrtBank bank(freqs, fs, 8);
  const std::vector<double> w8(8, 1.0), x7(7, 1.0), x8(8, 1.0), x9(9, 1.0);
  const auto win = bank.window(w8);
  std::vector<double> out(freqs.size());
  EXPECT_THROW(bank.scores(x7, win, out), std::invalid_argument);  // x ≠ weights
  EXPECT_THROW(bank.scores(x9, win, out), std::invalid_argument);  // x > max
  EXPECT_THROW(bank.window(std::vector<double>(9, 1.0)), std::invalid_argument);
  std::vector<double> short_out(1);
  EXPECT_THROW(bank.scores(x8, win, short_out), std::invalid_argument);
  // A window planned against a bank of another width.
  const ToneGlrtBank wide(std::vector<double>(9, 10e3), fs, 8);
  EXPECT_THROW(bank.scores(x8, wide.window(w8), out), std::invalid_argument);
}

TEST(ToneGlrt, PeaksAtTrueFrequencyManyCycles) {
  const double fs = 500e3;
  const auto x = tone_plus_dc(100, 60e3, fs, 1.0, 0.7, 5.0);
  const double at = tone_glrt_score(x, 60e3, fs);
  EXPECT_GT(at, tone_glrt_score(x, 45e3, fs));
  EXPECT_GT(at, tone_glrt_score(x, 75e3, fs));
}

TEST(ToneGlrt, WorksAtOneCycle) {
  // ~1.2 cycles in the window, huge DC pedestal: mean-removal + DFT-bin
  // methods collapse here; the GLRT must still prefer the true frequency.
  const double fs = 500e3;
  const std::size_t n = 46;
  const double f_true = 13e3;  // 1.2 cycles over 92 µs
  const auto x = tone_plus_dc(n, f_true, fs, 1.0, 0.4, 10.0);
  const double at = tone_glrt_score(x, f_true, fs);
  EXPECT_GT(at, tone_glrt_score(x, 8e3, fs));
  EXPECT_GT(at, tone_glrt_score(x, 20e3, fs));
}

TEST(ToneGlrt, DcOnlyScoresNearZero) {
  std::vector<double> x(64, 7.0);
  EXPECT_NEAR(tone_glrt_score(x, 50e3, 500e3), 0.0, 1e-9);
}

TEST(ToneGlrt, ScoreScalesWithAmplitudeSquared) {
  const double fs = 500e3;
  const auto x1 = tone_plus_dc(128, 40e3, fs, 1.0, 0.0, 2.0);
  const auto x2 = tone_plus_dc(128, 40e3, fs, 2.0, 0.0, 2.0);
  EXPECT_NEAR(tone_glrt_score(x2, 40e3, fs) / tone_glrt_score(x1, 40e3, fs), 4.0,
              0.05);
}

TEST(ToneGlrt, WeightsAccepted) {
  const double fs = 500e3;
  const auto x = tone_plus_dc(64, 50e3, fs, 1.0, 0.2, 1.0);
  auto w = make_window(WindowType::kHann, 64);
  for (double& v : w) v = std::sqrt(v);
  const double s = tone_glrt_score(x, 50e3, fs, w);
  EXPECT_GT(s, 0.0);
  EXPECT_GT(s, tone_glrt_score(x, 90e3, fs, w));
}

TEST(ToneGlrt, BankEvaluation) {
  const double fs = 500e3;
  const auto x = tone_plus_dc(100, 70e3, fs, 1.0, 0.0, 3.0);
  std::vector<double> freqs = {30e3, 50e3, 70e3, 90e3};
  const auto scores = tone_glrt_scores(x, freqs, fs);
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i)
    if (scores[i] > scores[best]) best = i;
  EXPECT_EQ(best, 2u);
}

TEST(ToneFitCoeffs, RecoversAmplitudePhaseDc) {
  const double fs = 500e3;
  const double f = 40e3;
  const double phase = 1.1;
  const auto x = tone_plus_dc(200, f, fs, 2.5, phase, 3.3);
  const auto fit = tone_fit(x, f, fs);
  EXPECT_NEAR(fit.dc, 3.3, 1e-6);
  EXPECT_NEAR(std::hypot(fit.a, fit.b), 2.5, 1e-6);
  // cos(ωn+φ): recovered phase matches the synthesis phase (mod 2π).
  EXPECT_NEAR(std::remainder(fit.phase_rad - phase, kTwoPi), 0.0, 1e-6);
}

TEST(ToneKnownPhase, CorrectPhaseBeatsWrongPhase) {
  const double fs = 500e3;
  const double f = 13e3;
  const double phase = 0.9;
  // Low-cycle window where phase knowledge matters most.
  const auto x = tone_plus_dc(46, f, fs, 1.0, phase, 5.0);
  const double right = tone_known_phase_score(x, f, phase, fs);
  const double wrong = tone_known_phase_score(x, f, phase + kPi / 2.0, fs);
  EXPECT_GT(right, 2.0 * wrong);
}

TEST(ToneKnownPhase, NoiseRobustness) {
  Rng rng(3);
  const double fs = 500e3;
  const double f = 25e3;
  auto x = tone_plus_dc(64, f, fs, 1.0, 0.3, 2.0);
  for (auto& v : x) v += rng.gaussian(0.0, 0.1);
  EXPECT_GT(tone_known_phase_score(x, f, 0.3, fs),
            tone_known_phase_score(x, 55e3, 0.3, fs));
}

TEST(ToneGlrt, InvalidInputsThrow) {
  std::vector<double> x(16, 1.0);
  EXPECT_THROW(tone_glrt_score(x, -1.0, 500e3), std::invalid_argument);
  EXPECT_THROW(tone_glrt_score(x, 300e3, 500e3), std::invalid_argument);
  std::vector<double> w(4, 1.0);
  EXPECT_THROW(tone_glrt_score(x, 10e3, 500e3, w), std::invalid_argument);
}

TEST(ToneGlrt, TinyWindowReturnsZero) {
  std::vector<double> x(3, 1.0);
  EXPECT_EQ(tone_glrt_score(x, 10e3, 500e3), 0.0);
}

}  // namespace
}  // namespace bis::dsp
