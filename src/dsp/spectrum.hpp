#pragma once

/// @file spectrum.hpp
/// Spectral estimation helpers: the one-sided periodogram and tone frequency
/// estimation with sub-bin accuracy.

#include <span>

#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace bis::dsp {

/// One-sided periodogram of a real signal: power per bin over [0, fs/2].
/// Returned vector has n_fft/2+1 entries; bin k ↦ k·fs/n_fft.
RVec periodogram(std::span<const double> x, std::size_t n_fft,
                 WindowType window = WindowType::kHann);

/// Estimate the dominant tone frequency of a real signal in [f_lo, f_hi]
/// using a zero-padded FFT and parabolic peak refinement.
/// Returns 0 when the band contains no bins.
double estimate_tone_frequency(std::span<const double> x, double fs, double f_lo,
                               double f_hi, std::size_t min_n_fft = 1024);

}  // namespace bis::dsp
