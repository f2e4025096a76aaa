// Goertzel evaluator: agreement with the FFT, off-grid frequencies, and
// pinned bit patterns on every kernel target.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/kernels/kernels.hpp"

namespace bis::dsp {
namespace {

std::vector<double> tone(std::size_t n, double freq, double fs, double amp,
                         double phase) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::cos(kTwoPi * freq * static_cast<double>(i) / fs + phase);
  return x;
}

TEST(Goertzel, MatchesFftAtBinCentres) {
  Rng rng(1);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.gaussian();
  const auto spec = fft_real(x);
  const double fs = 6400.0;
  for (std::size_t k = 1; k < 32; k += 5) {
    const double f = static_cast<double>(k) * fs / 64.0;
    const auto g = goertzel(x, f, fs);
    EXPECT_NEAR(std::abs(g), std::abs(spec[k]), 1e-8) << "bin " << k;
  }
}

TEST(Goertzel, PeaksAtToneFrequency) {
  const double fs = 500e3;
  const auto x = tone(100, 57e3, fs, 1.0, 0.3);
  const double at_tone = goertzel_power(x, 57e3, fs);
  const double off_tone = goertzel_power(x, 90e3, fs);
  EXPECT_GT(at_tone, 20.0 * off_tone);
}

TEST(Goertzel, AmplitudeScaling) {
  const double fs = 100e3;
  const auto x1 = tone(200, 10e3, fs, 1.0, 0.0);
  const auto x3 = tone(200, 10e3, fs, 3.0, 0.0);
  EXPECT_NEAR(goertzel_power(x3, 10e3, fs) / goertzel_power(x1, 10e3, fs), 9.0,
              1e-6);
}

TEST(Goertzel, PowersArePinned) {
  // Absolute bit patterns of goertzel()'s real and imaginary parts and of
  // goertzel_power() on fixed series (an LCG, so no RNG library is
  // involved): two FFT-grid frequencies and one between bins per length,
  // with 300 samples past the 256 at which the kernel layer once rerouted
  // the recurrence to its scalar backend. The uplink decoder scores every
  // symbol with goertzel_power, so these pin its tone powers on every
  // kernel target. Recorded while the recurrence ran in the kernel layer.
  const auto det = [](std::uint64_t i) {
    std::uint64_t s = i * 6364136223846793005ull + 1442695040888963407ull;
    s ^= s >> 33;
    return static_cast<double>(static_cast<std::int64_t>(s)) / 9.3e18;
  };
  struct Case {
    std::size_t n;
    double freq;
    std::uint64_t re, im, power;
  };
  const double fs = 4800.0;  // bin spacing 300, 75 and 16 Hz
  const Case cases[] = {
      {16, 600.0, 0xbfde776323c2ac98ull, 0xbfd4f8458ff0fa24ull, 0x3fd55fba3c2ad403ull},
      {16, 1500.0, 0x3ff81ea797c0c460ull, 0xbfd45b624b26ee66ull, 0x4002fd4cbeae0b03ull},
      {16, 1000.3, 0x3ff106ef5c36b82eull, 0x3feaa43883e9a237ull, 0x3ffd35d2f27a0e77ull},
      {64, 225.0, 0xbff9fd356418037cull, 0xc0001e072e32e4dfull, 0x401aca0237d4ec82ull},
      {64, 1425.0, 0xbff519d8e77d45f2ull, 0xc00044f0f3d3cc6full, 0x4017800bbe2af015ull},
      {64, 1111.1, 0xbff24daf943a22ceull, 0xc00712996f895f21ull, 0x402340cfe7b22f17ull},
      {300, 112.0, 0xbff26dd5a1831a50ull, 0xc007847378d04c70ull, 0x4023efcc8c99517cull},
      {300, 1936.0, 0xbfed32e1746466e8ull, 0x4009cfcb579c46c6ull, 0x40267c3ba5492713ull},
      {300, 2345.67, 0x3fce5cccac8d9180ull, 0x3febcfdde798f105ull, 0x3fe9f8fd89d19a8bull},
  };
  const auto saved = kernels::active_target();
  for (const auto t : {kernels::SimdTarget::kScalar, kernels::SimdTarget::kSse2,
                       kernels::SimdTarget::kAvx2}) {
    if (!kernels::set_target(t)) continue;
    SCOPED_TRACE(kernels::target_name(t));
    for (const auto& c : cases) {
      std::vector<double> x(c.n);
      for (std::size_t i = 0; i < c.n; ++i) x[i] = det(i + 1000 * c.n);
      const auto g = goertzel(x, c.freq, fs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.real()), c.re)
          << "n=" << c.n << " f=" << c.freq << ": " << g.real();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.imag()), c.im)
          << "n=" << c.n << " f=" << c.freq << ": " << g.imag();
      const double p = goertzel_power(x, c.freq, fs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(p), c.power)
          << "n=" << c.n << " f=" << c.freq << ": " << p;
    }
  }
  kernels::set_target(saved);
}

}  // namespace
}  // namespace bis::dsp
