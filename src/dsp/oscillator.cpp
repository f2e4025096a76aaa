#include "dsp/oscillator.hpp"

#include <cmath>

#include "common/constants.hpp"

namespace bis::dsp {
namespace {

/// Exact phase at sample i, evaluated the same way the reference path does
/// (t = i·dt first, then the multiply-add), so re-anchoring reproduces the
/// reference value to the last rounding of cos/sin.
inline cdouble exact_phasor(double freq_hz, double dt, double phase0_rad,
                            std::size_t i) {
  const double t = static_cast<double>(i) * dt;
  const double phase = kTwoPi * freq_hz * t + phase0_rad;
  return cdouble(std::cos(phase), std::sin(phase));
}

/// Core recurrence: visit amplitude·e^{jφ_i} for every sample via z ← z·w,
/// re-anchored to the exact phase every kOscResyncInterval samples.
template <typename Emit>
inline void run_oscillator(std::size_t n, double freq_hz, double dt,
                           double phase0_rad, Emit&& emit) {
  const double step = kTwoPi * freq_hz * dt;
  const double wr = std::cos(step), wi = std::sin(step);
  std::size_t i = 0;
  while (i < n) {
    cdouble z = exact_phasor(freq_hz, dt, phase0_rad, i);
    const std::size_t stop = std::min(n, i + kOscResyncInterval);
    double zr = z.real(), zi = z.imag();
    for (; i < stop; ++i) {
      emit(i, zr, zi);
      const double nr = zr * wr - zi * wi;
      zi = zr * wi + zi * wr;
      zr = nr;
    }
  }
}

}  // namespace

void accumulate_tone(std::span<cdouble> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad) {
  cdouble* __restrict o = out.data();
  run_oscillator(out.size(), freq_hz, dt, phase0_rad,
                 [o, amplitude](std::size_t i, double zr, double zi) {
                   o[i] += cdouble(amplitude * zr, amplitude * zi);
                 });
}

void accumulate_tone(std::span<double> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad) {
  double* __restrict o = out.data();
  run_oscillator(out.size(), freq_hz, dt, phase0_rad,
                 [o, amplitude](std::size_t i, double zr, double) {
                   o[i] += amplitude * zr;
                 });
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
