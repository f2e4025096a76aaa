#pragma once

/// @file tag_detector.hpp
/// Joint tag localization and modulation detection at the radar (paper §3.3
/// "Tag Localization and Uplink Decoding"). After IF correction and
/// background subtraction, the tag is the range bin whose slow-time series
/// contains the tag's square-wave switching signature: the slow-time FFT
/// shows a tone at the modulation frequency (plus odd harmonics). We score
/// every bin with a matched filter against that signature (Millimetro-style)
/// and localize by refining the peak of the per-bin modulation power. The
/// slow-time spectra come from a radar Doppler stage that transforms a tile
/// of kDopplerTileBins range bins at once, along rows (DESIGN.md §20).

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/types.hpp"
#include "dsp/precision.hpp"
#include "radar/receive_chain.hpp"

namespace bis::radar {

/// Zero padding of the slow-time FFT: a window of `count` chirps is
/// transformed at n_fft = kSlowTimePadFactor · next_pow2(count) points. A
/// power of two, so n_fft is one too, as the radix-2 Doppler stage needs.
inline constexpr std::size_t kSlowTimePadFactor = 4;

/// Range bins per work item of the detector's Doppler stage: their
/// slow-time spectra are computed together, as rows across the tile.
inline constexpr std::size_t kDopplerTileBins = 64;

struct TagDetectorConfig {
  double expected_mod_freq_hz = 1200.0;  ///< The tag's assigned frequency.
  std::vector<double> candidate_mod_freqs_hz;  ///< FSK: all alphabet tones;
                                               ///< empty = expected only.
  double duty_cycle = 0.5;
  std::size_t n_harmonics = 3;
  double min_range_m = 0.15;  ///< Ignore the DC/TX-leakage region.
  double detection_threshold_db = 13.0;  ///< Mod-tone power over the noise
                                          ///< floor. Must clear the extreme-
                                          ///< value statistics of max-over-
                                          ///< bins selection (≈8 dB median
                                          ///< plus tail for exponential
                                          ///< noise over ~250 bins).
  double min_signature_score = 0.35;    ///< Candidate bins must correlate
                                        ///< with the square-wave signature
                                        ///< at least this well (suppresses
                                        ///< broadband clutter residue).
  double min_tone_prominence = 5.0;     ///< Tone power must exceed the bin's
                                        ///< median spectral level by this
                                        ///< factor (clutter residue is flat).
  std::size_t block_chirps = 0;  ///< FSK: the uplink symbol length. The tag
                                 ///< hops between alphabet tones per symbol,
                                 ///< so detection integrates per block and
                                 ///< fuses across blocks. 0 = whole frame
                                 ///< (fixed-tone beacon / OOK).
  /// Read by nothing; kept only because perfbench names it (DESIGN.md §16).
  dsp::Precision precision = dsp::Precision::kDoubleStrict;
};

struct TagDetection {
  bool found = false;
  double range_m = 0.0;       ///< Refined (sub-bin) range estimate.
  std::size_t grid_bin = 0;   ///< Integer grid bin of the peak.
  double mod_power = 0.0;     ///< Slow-time power at the modulation tone.
  double snr_db = 0.0;        ///< Mod-tone power over median noise, dB.
  double signature_score = 0.0;  ///< Matched-filter correlation, 0…1.
};

/// One tag's scoring frequencies for batched detection (detect_many). All
/// remaining knobs — duty cycle, harmonics, thresholds, block length — come
/// from the shared TagDetectorConfig: a network's tags differ only in where
/// their modulation tones sit.
struct TagTarget {
  double expected_mod_freq_hz = 0.0;
  std::vector<double> candidate_mod_freqs_hz;  ///< FSK alphabet; empty =
                                               ///< expected frequency only.
};

/// One MAC slot's window inside a batched multi-slot frame (detect_slots):
/// chirps [first_chirp, first_chirp+n_chirps) of the AlignedProfiles form
/// the slot's slow-time integration window, and the slot's scoring targets
/// (and result rows) are out[first_target .. first_target+n_targets).
/// Target ranges of different slots must not overlap.
struct SlotSpan {
  std::size_t first_chirp = 0;
  std::size_t n_chirps = 0;
  std::size_t first_target = 0;
  std::size_t n_targets = 0;
};

class TagDetector {
 public:
  explicit TagDetector(const TagDetectorConfig& config);

  /// Detect and localize the tag in an aligned (and typically
  /// background-subtracted) frame. Thin wrapper over detect_many with the
  /// single target taken from the config — one call per tag is the normative
  /// reference the batched path is gated against.
  TagDetection detect(const AlignedProfiles& profiles,
                      ThreadPool* pool = nullptr) const;

  /// Batched multi-tag detection: compute each range bin's slow-time power
  /// spectrum ONCE per block (tiles of bins fanned across @p pool; nullptr =
  /// inline) and score every target's modulation comb against it with the
  /// kernels::ktagscore signature bank. Writes targets.size() detections
  /// into @p out (same order). Per-tag results are bit-identical to calling
  /// detect() once per target with that target's frequencies, at any tag
  /// count, thread count, and SIMD target: the spectrum/score math per
  /// (bin, row) is the same IEEE operations in the same order, and each tile
  /// writes only its own bins' slots of the score matrices.
  void detect_many(const AlignedProfiles& profiles,
                   std::span<const TagTarget> targets,
                   std::span<TagDetection> out, ThreadPool* pool = nullptr) const;

  /// Allocating convenience overload.
  std::vector<TagDetection> detect_many(const AlignedProfiles& profiles,
                                        std::span<const TagTarget> targets,
                                        ThreadPool* pool = nullptr) const;

  /// Batched multi-slot detection over one concatenated slow-time frame:
  /// each SlotSpan names a chirp window (one MAC slot's integration block)
  /// and the contiguous run of @p targets scored against it. All
  /// (slot, tile of range bins) spectra fan across @p pool as one flat map,
  /// so a round's worth of slots costs one parallel pass instead of one
  /// detect_many call per slot. Per-slot results are bit-identical to
  /// calling detect_many on a standalone AlignedProfiles holding just that
  /// slot's rows: the windowed spectrum, the signature bank, and the
  /// fuse/epilogue path run the same IEEE operations in the same order,
  /// and each (slot, tile) work item writes only its own bins' score slots.
  /// Slots are single integration blocks — config block_chirps must be 0 or
  /// ≥ every slot's n_chirps. Slots shorter than 8 chirps yield empty
  /// detections (the same guard detect_many applies to whole frames).
  void detect_slots(const AlignedProfiles& profiles,
                    std::span<const SlotSpan> slots,
                    std::span<const TagTarget> targets,
                    std::span<TagDetection> out,
                    ThreadPool* pool = nullptr) const;

  /// Slow-time one-sided power spectrum of one grid bin (mean-removed,
  /// Hann-windowed, zero-padded to kSlowTimePadFactor·next_pow2(count))
  /// over chirps [first, first+count); count=0 means the whole frame.
  /// Computed one column at a time; the detector's tiled Doppler stage
  /// gives every bin exactly these bits. Exposed for diagnostics.
  dsp::RVec slow_time_spectrum(const AlignedProfiles& profiles, std::size_t bin,
                               std::size_t first = 0, std::size_t count = 0) const;

  /// The spectra of range bins [b0, b0+width) as the detector scores them,
  /// from its row-major Doppler stage: a (n_fft/2+1) × width row-major
  /// matrix holding bin b0+j's spectrum in column j, each column
  /// bit-identical to slow_time_spectrum of that bin. Exposed for
  /// diagnostics.
  dsp::RVec slow_time_spectra(const AlignedProfiles& profiles, std::size_t b0,
                              std::size_t width, std::size_t first = 0,
                              std::size_t count = 0) const;

  const TagDetectorConfig& config() const { return config_; }

 private:
  TagDetectorConfig config_;
  TagTarget self_target_;  ///< detect()'s single target, built once.
};

}  // namespace bis::radar
