// DC-nuisance GLRT tone scoring — the tag demodulator's estimator, designed
// to survive windows holding only ~1 beat cycle on a large pedestal.

#include <gtest/gtest.h>

#include <cmath>
#include <span>

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

/// The per-sample scorer the planned bank replaced, kept as its reference:
/// libm cos/sin at every sample, all eleven sums in one pass, Cramer solve.
double reference_glrt(std::span<const double> x, double freq, double fs,
                      std::span<const double> weights) {
  const std::size_t n = x.size();
  if (n < 4) return 0.0;
  const double omega = kTwoPi * freq / fs;
  double g[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  double b[3] = {0, 0, 0};
  double uu = 0.0, ux = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const double c = w * std::cos(omega * static_cast<double>(i));
    const double s = w * std::sin(omega * static_cast<double>(i));
    const double u = w;
    const double xv = w * x[i];
    g[0][0] += c * c;
    g[0][1] += c * s;
    g[0][2] += c * u;
    g[1][1] += s * s;
    g[1][2] += s * u;
    g[2][2] += u * u;
    b[0] += c * xv;
    b[1] += s * xv;
    b[2] += u * xv;
    uu += u * u;
    ux += u * xv;
  }
  g[1][0] = g[0][1];
  g[2][0] = g[0][2];
  g[2][1] = g[1][2];
  const auto det3 = [](const double m[3][3]) {
    return m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
           m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
           m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  };
  const double det = det3(g);
  double full = 0.0;
  if (std::abs(det) >= 1e-30) {
    const double inv_det = 1.0 / det;
    double theta[3];
    for (int k = 0; k < 3; ++k) {
      double m[3][3];
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) m[r][c] = g[r][c];
      for (int r = 0; r < 3; ++r) m[r][k] = b[r];
      theta[k] = det3(m) * inv_det;
    }
    full = b[0] * theta[0] + b[1] * theta[1] + b[2] * theta[2];
  }
  const double dc_only = uu > 0.0 ? ux * ux / uu : 0.0;
  return std::max(0.0, full - dc_only);
}

TEST(ToneGlrtBank, MatchesReferenceBitForBit) {
  // Frequencies near 0 and near fs/2 around the tag's beat band; every
  // length 4…64 (shorter than and equal to the planned length), unit and
  // √Hann weights, through the bank and through the one-off wrappers.
  const double fs = 500e3;
  const std::size_t max_len = 64;
  const std::vector<double> freqs = {0.5,    13.0,    2.52e3,  13e3,   47.9e3,
                                     101.3e3, 187e3, 249.9e3, 249999.99};
  const ToneGlrtBank bank(freqs, fs, max_len);
  ASSERT_EQ(bank.size(), freqs.size());
  ASSERT_EQ(bank.max_length(), max_len);
  Rng rng(21);
  std::vector<double> got(freqs.size());
  for (std::size_t n = 4; n <= max_len; ++n) {
    auto x = tone_plus_dc(n, 31e3, fs, 0.8, 0.3, 6.0);
    for (auto& v : x) v += rng.gaussian(0.0, 0.2);
    auto hann = make_window(WindowType::kHann, n);
    for (double& v : hann) v = std::sqrt(v);
    const RVec ones(n, 1.0);
    for (const bool weighted : {false, true}) {
      const std::span<const double> w =
          weighted ? std::span<const double>(hann) : std::span<const double>();
      bank.scores(x, bank.window(weighted ? hann : ones), got);
      const auto wrapped = tone_glrt_scores(x, freqs, fs, w);
      for (std::size_t f = 0; f < freqs.size(); ++f) {
        const double want = reference_glrt(x, freqs[f], fs, w);
        EXPECT_EQ(got[f], want) << "n " << n << " f " << freqs[f] << " weighted " << weighted;
        EXPECT_EQ(wrapped[f], want) << "n " << n << " f " << freqs[f];
        EXPECT_EQ(tone_glrt_score(x, freqs[f], fs, w), want)
            << "n " << n << " f " << freqs[f];
      }
    }
  }
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
