#pragma once

/// @file window.hpp
/// FFT window functions. The radar range processor and the tag's sliding-FFT
/// decoder both window their transforms to control spectral leakage — the
/// leakage/resolution trade-off directly affects CSSK symbol separability
/// (paper §3.2.2, Fig. 6).

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
  kBlackmanHarris,
  kKaiser,  ///< Uses the beta parameter.
};

/// Generate an n-point window. @p kaiser_beta is only used for Kaiser.
RVec make_window(WindowType type, std::size_t n, double kaiser_beta = 8.6);

/// Shared immutable window handle returned by the cache.
using WindowPtr = std::shared_ptr<const RVec>;

/// Memoized make_window keyed by (type, n, kaiser_beta). The radar pipeline
/// windows every chirp and every slow-time column with one of a handful of
/// distinct lengths per frame, so the per-call cos/Bessel evaluation is pure
/// waste after the first hit. Thread-safe; the returned vector is immutable
/// and safe to share across the DSP thread pool.
WindowPtr cached_window(WindowType type, std::size_t n, double kaiser_beta = 8.6);

/// Number of distinct windows currently cached (tests/benchmarks).
std::size_t window_cache_size();

/// Drop all cached windows (tests/benchmarks).
void window_cache_clear();

/// Multiply a signal by a window of the same length (returns a copy).
/// Routed through the SIMD kernel layer (dsp/kernels).
RVec apply_window(std::span<const double> x, std::span<const double> w);
CVec apply_window(std::span<const std::complex<double>> x,
                  std::span<const double> w);

/// Sum of window samples (coherent gain·N), used to normalize FFT amplitude.
double window_sum(std::span<const double> w);

/// Equivalent noise bandwidth in bins: N·Σw² / (Σw)².
double equivalent_noise_bandwidth(std::span<const double> w);

/// Modified Bessel function of the first kind, order zero (for Kaiser).
double bessel_i0(double x);

const char* window_name(WindowType type);

}  // namespace bis::dsp
