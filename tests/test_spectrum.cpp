// Spectral estimation: periodogram normalization and tone frequency
// estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/spectrum.hpp"

namespace bis::dsp {
namespace {

std::vector<double> tone(std::size_t n, double freq, double fs, double amp = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::cos(kTwoPi * freq * static_cast<double>(i) / fs);
  return x;
}

TEST(Periodogram, ToneAmplitudeNormalization) {
  // With the window-sum normalization, a unit real tone at a bin centre
  // yields |X|² = 1/4 in its bin (half amplitude to each of ±f).
  const double fs = 1000.0;
  const auto x = tone(256, 125.0, fs, 1.0);  // bin 32 of 256
  const auto p = periodogram(x, 256, WindowType::kRectangular);
  EXPECT_NEAR(p[32], 0.25, 1e-9);
}

TEST(Periodogram, PeakAtToneForHann) {
  const double fs = 500e3;
  const auto x = tone(200, 60e3, fs);
  const auto p = periodogram(x, 1024, WindowType::kHann);
  std::size_t best = 0;
  for (std::size_t k = 1; k < p.size(); ++k)
    if (p[k] > p[best]) best = k;
  EXPECT_NEAR(static_cast<double>(best) * fs / 1024.0, 60e3, fs / 1024.0 * 1.5);
}

TEST(EstimateTone, SubBinAccuracy) {
  const double fs = 500e3;
  for (double f : {23.4e3, 57.1e3, 110.9e3}) {
    const auto x = tone(300, f, fs);
    const double est = estimate_tone_frequency(x, fs, 5e3, 200e3);
    EXPECT_NEAR(est, f, 150.0) << f;
  }
}

TEST(EstimateTone, RespectsSearchBand) {
  const double fs = 500e3;
  auto x = tone(300, 50e3, fs);
  const auto weak = tone(300, 150e3, fs, 0.2);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += weak[i];
  // Restricting the band to the weak tone finds it, not the strong one.
  const double est = estimate_tone_frequency(x, fs, 120e3, 180e3);
  EXPECT_NEAR(est, 150e3, 300.0);
}

TEST(EstimateTone, EmptyBandReturnsZero) {
  const auto x = tone(100, 50e3, 500e3);
  EXPECT_EQ(estimate_tone_frequency(x, 500e3, 1.0, 2.0, 64), 0.0);
}

}  // namespace
}  // namespace bis::dsp
