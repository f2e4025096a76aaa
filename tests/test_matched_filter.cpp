// The square-wave slow-time signature and its score, used by the tag
// detector (Millimetro-style matched filtering, paper §3.3).

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace bis::dsp {
namespace {

TEST(SquareWaveSignature, PlacesOddHarmonics) {
  const double period = 120e-6;
  const double f_mod = 800.0;
  const std::size_t n_fft = 1024;
  const auto sig = square_wave_signature(f_mod, 0.5, 256, period, n_fft, 3);
  const double bin_hz = (1.0 / period) / static_cast<double>(n_fft);
  const auto b1 = static_cast<std::size_t>(std::llround(f_mod / bin_hz));
  const auto b2 = static_cast<std::size_t>(std::llround(2 * f_mod / bin_hz));
  const auto b3 = static_cast<std::size_t>(std::llround(3 * f_mod / bin_hz));
  EXPECT_GT(sig[b1], 0.0);
  // 50% duty square wave: even harmonics vanish, 3rd harmonic present.
  EXPECT_NEAR(sig[b2], 0.0, 1e-12);
  EXPECT_GT(sig[b3], 0.0);
  EXPECT_GT(sig[b1], sig[b3]);
}

TEST(SquareWaveSignature, AsymmetricDutyHasEvenHarmonics) {
  const auto sig = square_wave_signature(800.0, 0.25, 256, 120e-6, 1024, 3);
  const double bin_hz = (1.0 / 120e-6) / 1024.0;
  const auto b2 = static_cast<std::size_t>(std::llround(1600.0 / bin_hz));
  EXPECT_GT(sig[b2], 0.0);
}

TEST(SignatureScore, RealSquareWaveScoresHigh) {
  // Synthesize an actual on/off series and check its spectrum matches.
  const double period = 120e-6;
  const double f_mod = 800.0;
  const std::size_t n = 256;
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * period;
    const double ph = t * f_mod - std::floor(t * f_mod);
    series[i] = ph < 0.5 ? 1.0 : 0.0;
  }
  const auto centred = remove_dc(series);
  const auto w = make_window(WindowType::kHann, n);
  const auto xw = apply_window(centred, w);
  const auto spec = fft_real_padded(xw, 1024);
  RVec power(513);
  for (std::size_t k = 0; k < power.size(); ++k) power[k] = std::norm(spec[k]);

  const auto sig = square_wave_signature(f_mod, 0.5, n, period, 1024, 3);
  EXPECT_GT(signature_score(power, sig), 0.8);

  // A wrong-frequency signature scores much lower.
  const auto wrong = square_wave_signature(2100.0, 0.5, n, period, 1024, 3);
  EXPECT_LT(signature_score(power, wrong), 0.3);
}

TEST(SignatureScore, NoiseScoresLow) {
  Rng rng(5);
  RVec spectrum(513);
  for (auto& v : spectrum) v = std::abs(rng.gaussian());
  const auto sig = square_wave_signature(800.0, 0.5, 256, 120e-6, 1024, 3);
  EXPECT_LT(signature_score(spectrum, sig), 0.6);
}

TEST(SignatureScore, EmptySignatureIsZero) {
  RVec spectrum(16, 1.0);
  RVec sig(16, 0.0);
  EXPECT_EQ(signature_score(spectrum, sig), 0.0);
}

TEST(SquareWaveSignature, NyquistTruncation) {
  // Harmonics above slow-time Nyquist are simply absent; no crash.
  const auto sig = square_wave_signature(4000.0, 0.5, 64, 120e-6, 256, 5);
  double total = 0.0;
  for (double v : sig) total += v;
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace bis::dsp
