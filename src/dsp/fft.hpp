#pragma once

/// @file fft.hpp
/// Fast Fourier Transform. Radix-2 iterative Cooley–Tukey for power-of-two
/// lengths plus Bluestein's chirp-z algorithm for arbitrary lengths, so the
/// radar pipeline can transform chirps whose sample counts vary with CSSK
/// chirp duration without zero-padding surprises.
///
/// Every transform runs through a process-wide plan cache: per size we
/// memoize the bit-reversal permutation, the per-stage twiddle tables and —
/// for Bluestein sizes — the chirp factors plus the pre-transformed
/// convolution kernel B = FFT(b). CSSK uses only a handful of distinct chirp
/// lengths per alphabet, so after the first frame the hit rate is ~100% and
/// a transform does no table building and no kernel FFTs. Plan twiddles are
/// generated with the same incremental recurrence as the uncached reference
/// path, so cached and uncached outputs are bit-identical. The cache is
/// thread-safe; the transforms themselves are pure and safe to call
/// concurrently (the DSP engine fans them across a ThreadPool).
///
/// Convention: forward transform X[k] = Σ_n x[n]·exp(-j2πkn/N), no scaling;
/// the inverse applies the 1/N factor.

#include <cstdint>
#include <memory>
#include <span>

#include "dsp/types.hpp"

namespace bis::dsp {

struct FftPlan;   // Cached complex plan (fft.cpp).
struct RfftPlan;  // Cached real-input untangle twiddles (fft.cpp).

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Forward FFT of arbitrary length (radix-2 when possible, else Bluestein).
CVec fft(std::span<const cdouble> x);

/// Inverse FFT (includes the 1/N normalization).
CVec ifft(std::span<const cdouble> x);

/// Forward FFT of a real signal; returns the full N-point complex spectrum.
CVec fft_real(std::span<const double> x);

/// Forward FFT zero-padded (or truncated) to @p n_fft points.
CVec fft_padded(std::span<const cdouble> x, std::size_t n_fft);
CVec fft_real_padded(std::span<const double> x, std::size_t n_fft);

/// Allocation-free variant: writes the spectrum into @p out (resized to
/// n_fft; steady state reuses its capacity). Bit-identical to fft_padded.
/// The streaming link server runs thousands of frames per second, so the
/// hot path must not allocate per transform.
void fft_padded_into(std::span<const cdouble> x, std::size_t n_fft, CVec& out);

/// True real-input FFT: the one-sided spectrum (n/2+1 bins, bin k ↦ k·fs/n)
/// of a length-n real signal. For even n this runs an n/2-point complex FFT
/// on even/odd-packed samples plus an O(n) untangle — roughly half the work
/// of the full complex transform — with the untangle twiddles memoized in
/// the FFT plan cache. Odd n falls back to the full complex transform
/// (identical numerics to fft_real). Bins agree with fft_real(x)[0..n/2]
/// to ~1e-13 absolute.
CVec rfft(std::span<const double> x);

/// rfft of the signal zero-padded (or truncated) to @p n_fft points.
CVec rfft_padded(std::span<const double> x, std::size_t n_fft);

/// Allocation-free variants of rfft / rfft_padded: write the one-sided
/// spectrum into @p out. Bit-identical to the allocating forms. Both are
/// thin wrappers over RfftPlanHandle.
void rfft_into(std::span<const double> x, CVec& out);
void rfft_padded_into(std::span<const double> x, std::size_t n_fft, CVec& out);

/// The plans of one real-input transform size, fetched from the plan cache
/// once: the untangle twiddles plus the half-size complex plan (even n_fft),
/// or the full-size complex plan (odd n_fft). Calling the handle makes no
/// cache lookup, so a caller running many equal-size transforms — the tag
/// detector's per-range-bin slow-time spectra — resolves the plans once per
/// window instead of once per transform. The handle shares ownership of its
/// plans and stays valid after fft_plan_cache_clear(). It is immutable once
/// built, so threads may call one handle concurrently (each transform uses
/// its own thread's scratch).
class RfftPlanHandle {
 public:
  RfftPlanHandle() = default;  ///< Empty; assign a built handle before use.
  explicit RfftPlanHandle(std::size_t n_fft);

  std::size_t size() const { return n_fft_; }

  /// One-sided spectrum (size()/2+1 bins) of @p x zero-padded or truncated
  /// to size(). rfft_padded_into(x, size(), out) is exactly this call.
  void operator()(std::span<const double> x, CVec& out) const;

 private:
  std::size_t n_fft_ = 0;
  std::shared_ptr<const RfftPlan> untangle_;  ///< Even n_fft only.
  std::shared_ptr<const FftPlan> plan_;  ///< n_fft/2 (even) or n_fft (odd).
};

/// Inverse of rfft: reconstruct the length-n real signal from its one-sided
/// spectrum (spectrum.size() must be n/2+1). The upper half is implied by
/// conjugate symmetry; any asymmetric content is discarded exactly as
/// taking the real part of a full ifft would. Includes the 1/n scaling.
/// Used for fast matched filtering / Wiener–Khinchin autocorrelation.
RVec irfft(std::span<const cdouble> spectrum, std::size_t n);

/// Reference transforms that rebuild every table on each call — the
/// pre-plan-cache implementation, kept for parity tests and benchmarks.
/// fft()/ifft() must agree with these bit-for-bit.
CVec fft_uncached(std::span<const cdouble> x);
CVec ifft_uncached(std::span<const cdouble> x);

/// Plan-cache observability (hits/misses are cumulative transform counts;
/// plans is the number of distinct sizes currently cached).
struct FftPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t plans = 0;
};
FftPlanCacheStats fft_plan_cache_stats();

/// Drop all cached plans and reset the stats (tests/benchmarks).
void fft_plan_cache_clear();

/// Frequency of FFT bin @p k for sample rate @p fs and size @p n,
/// mapped to [-fs/2, fs/2).
double fft_bin_frequency(std::size_t k, std::size_t n, double fs);

/// Frequency of bin k treating the spectrum as one-sided [0, fs).
double fft_bin_frequency_unsigned(std::size_t k, std::size_t n, double fs);

}  // namespace bis::dsp
