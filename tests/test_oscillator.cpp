// Oscillator-recurrence synthesis kernels: phase drift against the libm
// per-sample reference must stay below ~1e-12 over a full-length chirp, for
// both the complex (radar IF) and real (tag envelope) accumulators, and the
// one-pass tone bank must equal one recurrence per tone bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/constants.hpp"
#include "dsp/oscillator.hpp"

namespace bis::dsp {
namespace {

/// The per-tone recurrence as it ran before the tone bank, written out here
/// so the bank is checked against an independent copy: re-anchor to the
/// exact libm phase every kOscResyncInterval samples, z ← z·w in between.
template <typename Sample>
void per_tone_reference(std::span<Sample> out, const Tone& tone, double dt) {
  const double step = kTwoPi * tone.freq_hz * dt;
  const double wr = std::cos(step), wi = std::sin(step);
  std::size_t i = 0;
  while (i < out.size()) {
    const double t = static_cast<double>(i) * dt;
    const double phase = kTwoPi * tone.freq_hz * t + tone.phase0_rad;
    double zr = std::cos(phase), zi = std::sin(phase);
    const std::size_t stop = std::min(out.size(), i + kOscResyncInterval);
    for (; i < stop; ++i) {
      if constexpr (std::is_same_v<Sample, cdouble>)
        out[i] += cdouble(tone.amplitude * zr, tone.amplitude * zi);
      else
        out[i] += tone.amplitude * zr;
      const double nr = zr * wr - zi * wi;
      zi = zr * wi + zi * wr;
      zr = nr;
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(cdouble a, cdouble b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

/// Bank against one reference pass per tone, and against accumulate_tone
/// per tone, on top of existing non-zero content.
template <typename Sample>
void check_bank(std::size_t n, const std::vector<Tone>& tones, double dt) {
  std::vector<Sample> base(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = 0.25 * std::sin(0.37 * static_cast<double>(i));
    if constexpr (std::is_same_v<Sample, cdouble>)
      base[i] = cdouble(v, -0.5 * v);
    else
      base[i] = v;
  }
  std::vector<Sample> bank = base, ref = base, one = base;
  accumulate_tones(std::span<Sample>(bank), tones, dt);
  for (const Tone& t : tones) {
    per_tone_reference(std::span<Sample>(ref), t, dt);
    accumulate_tone(std::span<Sample>(one), t.amplitude, t.freq_hz, dt,
                    t.phase0_rad);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(same_bits(bank[i], ref[i]))
        << tones.size() << " tones, n = " << n << ", sample " << i;
    ASSERT_TRUE(same_bits(one[i], ref[i]))
        << tones.size() << " tones, n = " << n << ", sample " << i;
  }
}

TEST(Oscillator, ToneBankMatchesPerToneBitForBit) {
  // 0–9 tones cover an empty bank, a partial, a full and a second pass;
  // every third tone has zero amplitude (it still adds ±0.0 to each
  // sample). The lengths straddle the re-anchor interval.
  const double dt = 1.0 / 2e6;
  const std::size_t lengths[] = {1, 7, kOscResyncInterval - 1,
                                 kOscResyncInterval + 1,
                                 3 * kOscResyncInterval + 7};
  for (std::size_t n_tones = 0; n_tones <= 9; ++n_tones) {
    std::vector<Tone> tones;
    for (std::size_t k = 0; k < n_tones; ++k) {
      const double x = static_cast<double>(k);
      tones.push_back({k % 3 == 2 ? 0.0 : 1e-3 * (1.0 + x), 17.3e3 + 41.7e3 * x,
                       0.3 - 0.9 * x});
    }
    for (const std::size_t n : lengths) {
      check_bank<cdouble>(n, tones, dt);
      check_bank<double>(n, tones, dt);
    }
  }
}

TEST(Oscillator, ComplexDriftBoundOverFullChirp) {
  // Radar-side: 2 MS/s IF ADC. CSSK chirps are 20–200 µs (40–400 samples);
  // 500 µs = 1000 samples exceeds every chirp the alphabet can produce and
  // spans two exact-phase resyncs. (The synthesizer re-anchors per chirp —
  // phase drift cannot accumulate across chirps by construction.)
  const std::size_t n = 1000;
  const double fs = 2e6, f = 173.456e3, amp = 2.5e-4, phi0 = 1.2345;
  CVec fast(n, cdouble(0.0, 0.0)), ref(n, cdouble(0.0, 0.0));
  accumulate_tone(std::span<cdouble>(fast), amp, f, 1.0 / fs, phi0);
  accumulate_tone_reference(std::span<cdouble>(ref), amp, f, 1.0 / fs, phi0);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::abs(fast[i] - ref[i]));
  // Phase error < ~1e-12 rad ⇒ sample error < ~1e-12 · amplitude.
  EXPECT_LT(max_err, 1e-12 * amp);
}

TEST(Oscillator, RealDriftBoundOverFullChirp) {
  // Tag-side: 500 kS/s ADC, one chirp period is ≤ ~100 active samples; 1000
  // samples (2 ms) is an order of magnitude beyond any period the frontend
  // synthesizes in one oscillator run.
  const std::size_t n = 1000;
  const double fs = 500e3, f = 61.7e3, amp = 0.3, phi0 = -0.777;
  RVec fast(n, 0.0), ref(n, 0.0);
  accumulate_tone(std::span<double>(fast), amp, f, 1.0 / fs, phi0);
  accumulate_tone_reference(std::span<double>(ref), amp, f, 1.0 / fs, phi0);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::abs(fast[i] - ref[i]));
  EXPECT_LT(max_err, 1e-12 * amp);
}

TEST(Oscillator, ResyncBoundaryIsExact) {
  // At each re-anchor index the recurrence output must equal the reference
  // bit-for-bit (same libm evaluation of the same exact phase).
  const std::size_t n = 3 * kOscResyncInterval + 7;
  const double fs = 1e6, f = 99.5e3;
  CVec fast(n, cdouble(0.0, 0.0)), ref(n, cdouble(0.0, 0.0));
  accumulate_tone(std::span<cdouble>(fast), 1.0, f, 1.0 / fs, 0.25);
  accumulate_tone_reference(std::span<cdouble>(ref), 1.0, f, 1.0 / fs, 0.25);
  for (std::size_t i = 0; i < n; i += kOscResyncInterval) {
    EXPECT_EQ(fast[i].real(), ref[i].real()) << "resync sample " << i;
    EXPECT_EQ(fast[i].imag(), ref[i].imag()) << "resync sample " << i;
  }
}

TEST(Oscillator, AccumulatesOnTopOfExistingContent) {
  RVec out(16, 1.0);
  accumulate_tone(std::span<double>(out), 0.0, 1e3, 1e-6, 0.0);
  for (double v : out) EXPECT_EQ(v, 1.0);  // zero amplitude adds nothing

  RVec base(16, 2.0), tone(16, 0.0);
  accumulate_tone(std::span<double>(base), 0.5, 1e3, 1e-6, 0.3);
  accumulate_tone(std::span<double>(tone), 0.5, 1e3, 1e-6, 0.3);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_DOUBLE_EQ(base[i], 2.0 + tone[i]);
}

TEST(Oscillator, DcToneIsConstant) {
  RVec out(100, 0.0);
  accumulate_tone(std::span<double>(out), 1.5, 0.0, 1e-6, 0.0);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 1.5);
}

}  // namespace
}  // namespace bis::dsp
