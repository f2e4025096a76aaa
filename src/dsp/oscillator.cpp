#include "dsp/oscillator.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"

namespace bis::dsp {
namespace {

/// Tones advanced together in one pass. One rotation is a multiply→subtract
/// chain of about 8 cycles per sample, so one tone leaves the FP units
/// mostly idle. Eight independent chains per pass take a radar chirp's six
/// returns in one pass over the samples; a width of four needs two, and
/// synthesized about 20% slower (DESIGN.md §21).
constexpr std::size_t kBankWidth = 8;

/// Exact phase at sample i, evaluated the same way the reference path does
/// (t = i·dt first, then the multiply-add), so re-anchoring reproduces the
/// reference value to the last rounding of cos/sin.
inline cdouble exact_phasor(double freq_hz, double dt, double phase0_rad,
                            std::size_t i) {
  const double t = static_cast<double>(i) * dt;
  const double phase = kTwoPi * freq_hz * t + phase0_rad;
  return cdouble(std::cos(phase), std::sin(phase));
}

/// Adds K tones' current phasors, scaled by their amplitudes, to one sample
/// in tone order.
template <std::size_t K>
inline void emit(cdouble& o, const double* a, const double* zr,
                 const double* zi) {
  double re = o.real(), im = o.imag();
  for (std::size_t k = 0; k < K; ++k) {
    re = re + a[k] * zr[k];
    im = im + a[k] * zi[k];
  }
  o = cdouble(re, im);
}

template <std::size_t K>
inline void emit(double& o, const double* a, const double* zr, const double*) {
  double v = o;
  for (std::size_t k = 0; k < K; ++k) v = v + a[k] * zr[k];
  o = v;
}

/// The one recurrence body: K tones over out[0, n) via z ← z·w, every tone
/// re-anchored to its exact phase at each multiple of kOscResyncInterval.
template <std::size_t K, typename Sample>
void run_bank(Sample* __restrict o, std::size_t n, const Tone* tones,
              double dt) {
  double a[K], wr[K], wi[K];
  for (std::size_t k = 0; k < K; ++k) {
    const double step = kTwoPi * tones[k].freq_hz * dt;
    a[k] = tones[k].amplitude;
    wr[k] = std::cos(step);
    wi[k] = std::sin(step);
  }
  std::size_t i = 0;
  while (i < n) {
    double zr[K], zi[K];
    for (std::size_t k = 0; k < K; ++k) {
      const cdouble z =
          exact_phasor(tones[k].freq_hz, dt, tones[k].phase0_rad, i);
      zr[k] = z.real();
      zi[k] = z.imag();
    }
    const std::size_t stop = std::min(n, i + kOscResyncInterval);
    for (; i < stop; ++i) {
      emit<K>(o[i], a, zr, zi);
      // Unrolled, the K phasors stay in registers; as a loop GCC keeps them
      // on the stack, and every rotation waits on a store and a reload.
#pragma GCC unroll 8
      for (std::size_t k = 0; k < K; ++k) {
        const double nr = zr[k] * wr[k] - zi[k] * wi[k];
        zi[k] = zr[k] * wi[k] + zi[k] * wr[k];
        zr[k] = nr;
      }
    }
  }
}

/// Runs the bank in passes of at most kBankWidth tones. A later pass adds
/// its tones to samples that already hold the earlier ones, so each sample
/// still sums its tones in order.
template <typename Sample>
void run_tones(std::span<Sample> out, std::span<const Tone> tones, double dt) {
  for (std::size_t g = 0; g < tones.size(); g += kBankWidth) {
    const Tone* t = tones.data() + g;
    switch (std::min(kBankWidth, tones.size() - g)) {
      case 8: run_bank<8>(out.data(), out.size(), t, dt); break;
      case 7: run_bank<7>(out.data(), out.size(), t, dt); break;
      case 6: run_bank<6>(out.data(), out.size(), t, dt); break;
      case 5: run_bank<5>(out.data(), out.size(), t, dt); break;
      case 4: run_bank<4>(out.data(), out.size(), t, dt); break;
      case 3: run_bank<3>(out.data(), out.size(), t, dt); break;
      case 2: run_bank<2>(out.data(), out.size(), t, dt); break;
      default: run_bank<1>(out.data(), out.size(), t, dt); break;
    }
  }
}

}  // namespace

void accumulate_tones(std::span<cdouble> out, std::span<const Tone> tones,
                      double dt) {
  run_tones(out, tones, dt);
}

void accumulate_tones(std::span<double> out, std::span<const Tone> tones,
                      double dt) {
  run_tones(out, tones, dt);
}

void accumulate_tone(std::span<cdouble> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad) {
  const Tone tone{amplitude, freq_hz, phase0_rad};
  accumulate_tones(out, std::span<const Tone>(&tone, 1), dt);
}

void accumulate_tone(std::span<double> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad) {
  const Tone tone{amplitude, freq_hz, phase0_rad};
  accumulate_tones(out, std::span<const Tone>(&tone, 1), dt);
}

void accumulate_tone_reference(std::span<cdouble> out, double amplitude,
                               double freq_hz, double dt, double phase0_rad) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = static_cast<double>(i) * dt;
    const double phase = kTwoPi * freq_hz * t + phase0_rad;
    out[i] += cdouble(amplitude * std::cos(phase), amplitude * std::sin(phase));
  }
}

void accumulate_tone_reference(std::span<double> out, double amplitude,
                               double freq_hz, double dt, double phase0_rad) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double t = static_cast<double>(i) * dt;
    out[i] += amplitude * std::cos(kTwoPi * freq_hz * t + phase0_rad);
  }
}

}  // namespace bis::dsp
