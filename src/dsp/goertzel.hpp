#pragma once

/// @file goertzel.hpp
/// Goertzel single-bin DFT evaluators. The paper (§3.2.2, §4.1) calls out the
/// Goertzel algorithm as the low-power alternative to a full FFT on the tag's
/// MCU: the decoder only needs the spectrum at the handful of calibrated beat
/// frequencies, one per CSSK slope, so point-by-point DFT evaluation is much
/// cheaper than an FFT sweep.

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Evaluate the DFT of @p x at frequency @p freq (Hz) given sample rate
/// @p fs (arbitrary frequency, not restricted to bin centres).
cdouble goertzel(std::span<const double> x, double freq, double fs);

/// Power (|X|²) at the given frequency; the quantity compared across the
/// slope bank when classifying a symbol.
double goertzel_power(std::span<const double> x, double freq, double fs);

/// A bank of Goertzel evaluators at fixed frequencies (the calibrated Δf
/// table). The recurrence coefficients are precomputed once; the per-window
/// inner loop runs through the SIMD kernel layer, which iterates four
/// frequencies per lane block in a single pass over the samples.
class GoertzelBank {
 public:
  GoertzelBank(std::vector<double> frequencies, double sample_rate);

  /// Power per frequency over the window.
  std::vector<double> powers(std::span<const double> window) const;

  /// Index of the strongest bin over the window.
  std::size_t strongest(std::span<const double> window) const;

  const std::vector<double>& frequencies() const { return freqs_; }
  double sample_rate() const { return fs_; }

 private:
  std::vector<double> freqs_;
  double fs_;
  RVec coeffs_;  // 2·cos(ω) per frequency
  RVec cos_;     // cos(ω) per frequency (final correction)
  RVec sin_;     // sin(ω) per frequency (final correction)
};

/// Sliding DFT at one frequency: maintains the DFT of the last N samples with
/// O(1) work per new sample (sliding Goertzel, Chicharo & Kilani 1996). No
/// engine uses it; bench_dsp_kernels times it.
class SlidingGoertzel {
 public:
  SlidingGoertzel(double freq, double sample_rate, std::size_t window_len);

  /// Push one sample; returns the power over the current window once the
  /// window has filled (0 before that).
  double push(double sample);

  void reset();
  std::size_t window_length() const { return buffer_.size(); }
  bool full() const { return filled_ >= buffer_.size(); }

 private:
  std::vector<double> buffer_;  // circular buffer of the last N samples
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
  std::size_t pushes_since_renorm_ = 0;
  cdouble state_{0.0, 0.0};  // running DFT estimate
  cdouble rot_{1.0, 0.0};    // e^{jω} with ω = 2π·freq/fs
};

}  // namespace bis::dsp
