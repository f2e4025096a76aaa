#pragma once

/// @file receive_chain.hpp
/// The radar receive chain (paper §3.3) — the one path every engine runs a
/// frame's IF samples through:
///   1. range FFT: per chirp, a Hann window, zero padding to
///      N_FFT = 2·next_pow2(samples) and a window-sum normalization. Under
///      CSSK the sample count — and therefore the range-bin spacing — varies
///      chirp to chirp; RangeProfile carries the per-chirp metadata step 2
///      needs;
///   2. IF correction (Fig. 7): convert each chirp's bins to metres using
///      that chirp's own R_max (Eq. 15: range[n] = n/N_FFT · R_max), then
///      pairwise-interpolate every profile onto one common range grid, so a
///      static tag stays in one grid bin while CSSK varies the slope;
///   3. background subtraction: every window of the frame subtracts its own
///      first chirp (the paper "uses the first chirp of each frame"). A link
///      or network frame is one window; a batched inventory frame has one
///      window per MAC slot.
/// Each step is a pure per-chirp (or per-window) map fanned across a pool,
/// so the output is bit-identical for any thread count.

#include <limits>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/types.hpp"
#include "phy/slope_alphabet.hpp"
#include "rf/chirp.hpp"

namespace bis::radar {

/// One chirp's complex range spectrum.
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

  /// All bin ranges written into @p axis (resized to bins.size()): R_max is
  /// computed once, and each bin keeps bin_range_m's expression
  /// n / N_FFT · R_max, so the two agree bit for bit.
  void range_axis(std::vector<double>& axis) const;
};

/// Slow-time matrix of aligned complex range profiles.
struct AlignedProfiles {
  std::vector<dsp::CVec> rows;     ///< rows[chirp][grid_bin].
  std::vector<double> range_grid;  ///< Common range axis [m].
  double chirp_period_s = 0.0;     ///< Slow-time sample interval.

  std::size_t n_chirps() const { return rows.size(); }
  std::size_t n_bins() const { return range_grid.size(); }

  /// Magnitude of one slow-time column (fixed grid bin across chirps), as
  /// dsp::kernels::kmag defines it: sqrt(re² + im²), bit for bit.
  dsp::RVec column_magnitude(std::size_t bin) const;

  /// Allocation-free overload: writes into @p out (size n_chirps()). The
  /// uplink decoder reads the tag bin's column once per frame.
  void column_magnitude(std::size_t bin, std::span<double> out) const;

  /// Windowed overload: magnitudes of chirps [first, first+count) only
  /// (out.size() == count). |·| is per-element, so the values are identical
  /// to slicing the full-column read. The detector's per-bin diagnostic
  /// spectrum (TagDetector::slow_time_spectrum) reads its window this way.
  void column_magnitude(std::size_t bin, std::size_t first, std::size_t count,
                        std::span<double> out) const;
  /// Complex slow-time column.
  dsp::CVec column(std::size_t bin) const;

  /// Allocation-free overload (out.size() must equal n_chirps()).
  void column(std::size_t bin, std::span<dsp::cdouble> out) const;
};

struct RangeAlignConfig {
  std::size_t grid_bins = 0;    ///< 0 = use the largest profile's N_FFT.
  double max_range_m = 0.0;     ///< 0 = min over chirps of R_max (always
                                ///< covered by every chirp).
};

/// One frame's buffers through the chain. The caller keeps one per frame in
/// flight and reuses it: once its capacities are warm, a frame allocates
/// nothing.
struct ReceiveFrame {
  std::vector<dsp::CVec> if_samples;   ///< Per chirp; the synthesizer fills it.
  std::vector<RangeProfile> profiles;  ///< Per chirp; range_fft fills it.
  AlignedProfiles aligned;             ///< if_correct fills it.
};

/// The worst case of a chirp alphabet through the chain.
struct AlphabetExtent {
  std::size_t max_samples = 0;   ///< Longest chirp's IF sample count.
  std::size_t max_fft_bins = 0;  ///< Largest N_FFT.
  /// Smallest R_max: the range every chirp of the alphabet covers.
  double covered_range_m = std::numeric_limits<double>::infinity();
};

class ReceiveChain {
 public:
  ReceiveChain(double sample_rate_hz, const RangeAlignConfig& align,
               bool background_subtraction);

  /// N_FFT of a chirp with @p samples IF samples: 2·next_pow2(samples).
  static std::size_t fft_size(std::size_t samples);

  /// IF samples of one chirp: floor(duration · fs).
  std::size_t samples_per_chirp(const rf::ChirpParams& chirp) const;

  /// Range-FFT one chirp's IF samples into @p out (bins resized; their
  /// capacity is reused, and nothing allocates once the window, the FFT plan
  /// and the per-thread scratch for this size are warm).
  void range_fft(std::span<const dsp::cdouble> if_samples,
                 const rf::ChirpParams& chirp, RangeProfile& out) const;

  /// Range-FFT every chirp of @p frame (frame.if_samples[i] was taken under
  /// chirps[i]) into frame.profiles, fanning the chirps across @p pool
  /// (nullptr = inline).
  void range_fft(std::span<const rf::ChirpParams> chirps, ReceiveFrame& frame,
                 ThreadPool* pool) const;

  /// IF correction: regrid frame.profiles onto one range grid
  /// (frame.aligned), then — with background subtraction on — subtract each
  /// window's first row from that window. Windows are @p window chirps long
  /// (0 = the whole frame) and must tile the frame exactly.
  void if_correct(ReceiveFrame& frame, ThreadPool* pool,
                  std::size_t window = 0) const;

  /// The worst case over every chirp of @p alphabet.
  AlphabetExtent extent(const phy::SlopeAlphabet& alphabet) const;

  /// Size @p frame for @p n_chirps chirps and reserve each per-chirp buffer
  /// at @p extent. CSSK varies the chirp duration, so without this a chirp
  /// slot would reallocate whenever it draws a longer chirp than it has held
  /// before.
  static void reserve(ReceiveFrame& frame, std::size_t n_chirps,
                      const AlphabetExtent& extent);

  /// Build every size-dependent shared cache entry for every chirp of
  /// @p alphabet — the Hann window and FFT plan, and the regrid plan
  /// against the configured grid — and grow the calling thread's DSP
  /// scratch to the largest chirp. One dry pass per alphabet slot; safe to
  /// call concurrently.
  void warm(const phy::SlopeAlphabet& alphabet) const;

 private:
  void regrid(std::span<const RangeProfile> profiles, ThreadPool* pool,
              AlignedProfiles& out) const;

  double sample_rate_hz_;
  RangeAlignConfig align_;
  bool background_subtraction_;
};

/// Subtract row first + @p background_row from every row of the window
/// [first, first+count); the background row becomes exactly zero and rows
/// outside the window are untouched. ReceiveChain::if_correct calls this
/// once per window with background_row = 0.
void subtract_background(AlignedProfiles& profiles, std::size_t first,
                         std::size_t count, std::size_t background_row);

}  // namespace bis::radar
