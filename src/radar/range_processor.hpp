#pragma once

/// @file range_processor.hpp
/// Per-chirp range FFT. Converts the complex IF samples of one chirp into a
/// complex range profile. Under CSSK the sample count — and therefore the
/// range-bin spacing — varies chirp to chirp; RangeProfile carries the
/// per-chirp metadata the IF-correction stage needs (paper §3.3, Eq. 15).

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"
#include "rf/chirp.hpp"

namespace bis::radar {

struct RangeProfile {
  dsp::CVec bins;             ///< Complex spectrum, bins 0 … N_FFT−1.
  rf::ChirpParams chirp;      ///< The chirp that produced this profile.
  double sample_rate_hz = 0;  ///< IF ADC rate.
  std::size_t n_fft = 0;

  /// Range of bin @p n (Eq. 15): range[n] = n/N_FFT · R_max(chirp).
  double bin_range_m(std::size_t n) const;

  /// Range spacing between adjacent bins for this chirp.
  double bin_spacing_m() const;

  /// Maximum unambiguous range of this chirp (Eq. 4).
  double max_range_m() const;

  /// All bin ranges (ascending).
  std::vector<double> range_axis() const;
};

struct RangeProcessorConfig {
  dsp::WindowType window = dsp::WindowType::kHann;
  std::size_t zero_pad_factor = 2;  ///< N_FFT = next_pow2(samples)·factor.
};

class RangeProcessor {
 public:
  explicit RangeProcessor(const RangeProcessorConfig& config);

  /// FFT one chirp's IF samples into a range profile.
  RangeProfile process(std::span<const dsp::cdouble> if_samples,
                       const rf::ChirpParams& chirp, double sample_rate_hz) const;

  /// Buffer-reusing variant: bit-identical profile written into @p out
  /// (bins resized; steady state reuses capacity — nothing allocates once
  /// windows, FFT plans, and per-thread scratch are warm).
  void process_into(std::span<const dsp::cdouble> if_samples,
                    const rf::ChirpParams& chirp, double sample_rate_hz,
                    RangeProfile& out) const;

  /// Batched frame processing: range-FFT every chirp of a frame, fanning the
  /// per-chirp transforms across @p pool (nullptr = inline). Each chirp is an
  /// independent pure map into its own output slot, so the result is
  /// bit-identical to calling process() sequentially, for any thread count.
  std::vector<RangeProfile> process_frame(
      std::span<const dsp::CVec> chirp_samples,
      std::span<const rf::ChirpParams> chirps, double sample_rate_hz,
      ThreadPool* pool = nullptr) const;

  /// Buffer-reusing frame variant: profiles written into @p out (resized to
  /// the chirp count; per-profile bins reuse their capacity across frames).
  void process_frame_into(std::span<const dsp::CVec> chirp_samples,
                          std::span<const rf::ChirpParams> chirps,
                          double sample_rate_hz, ThreadPool* pool,
                          std::vector<RangeProfile>& out) const;

  const RangeProcessorConfig& config() const { return config_; }

 private:
  RangeProcessorConfig config_;
};

}  // namespace bis::radar
