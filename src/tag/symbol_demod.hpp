#pragma once

/// @file symbol_demod.hpp
/// CSSK symbol classification at the tag (paper §3.2.2). A window of
/// envelope samples covering one chirp is DC-removed, Hann-weighted, and
/// evaluated against the Goertzel bank of calibrated beat frequencies — one
/// per slope slot; the strongest bin is the decoded slot. This is the
/// paper's low-power point-by-point DFT alternative to a full FFT (§4.1).
///
/// The decoder sizes the window in two passes (duration-matched
/// classification): a first pass over the protocol's minimum chirp duration
/// yields a slot hypothesis, whose known duration then sizes the final
/// window — realizing Fig. 6(e)'s "window inside the chirp and aligned with
/// it" without fragile energy-based end detection.

#include <span>
#include <vector>

#include "dsp/tone_fit.hpp"
#include "dsp/types.hpp"

namespace bis::tag {

struct SymbolDemodConfig {
  double sample_rate_hz = 500e3;
  std::vector<double> slot_beat_freqs_hz;  ///< Calibrated Δf per slot.
  std::vector<double> slot_durations_s;    ///< Chirp duration per slot
                                           ///< (protocol constant); sizes
                                           ///< the planned GLRT windows.
  std::vector<double> slot_phases_rad;     ///< Calibrated tone phase per
                                           ///< slot; when non-empty the
                                           ///< classifier uses known-phase
                                           ///< matching (decisive at ~1 beat
                                           ///< cycle per window).
};

/// Immutable once built. The constructor plans the GLRT bank
/// (dsp::ToneGlrtBank) over the slot frequencies, sized to the longest
/// analysis length among slot_durations_s, and one √Hann window per
/// analysis length from the shortest slot's to the longest's; classify()
/// scores windows of a planned length without any libm call and others
/// through the one-off dsp::tone_glrt_scores.
class SymbolDemod {
 public:
  explicit SymbolDemod(const SymbolDemodConfig& config);

  struct Result {
    std::size_t slot = 0;     ///< argmax slot index.
    double confidence = 0.0;  ///< Winner/runner-up power ratio.
  };

  /// Classify one chirp-aligned window of envelope samples with a common
  /// window for every slot (simple bank argmax).
  Result classify(std::span<const double> window) const;

  const SymbolDemodConfig& config() const { return config_; }

  /// Analysis window length (samples) for a chirp of the given duration:
  /// the active sweep minus a short tail guard. Shared by the decoder and
  /// the calibration procedure so their estimators match exactly.
  static std::size_t analysis_length(double duration_s, double sample_rate_hz);

  /// √Hann analysis weights of length @p n: the GLRT minimizes
  /// Σw²(x−model)², so the effective taper is w² = Hann. Shared with the
  /// calibration procedure for the same reason as analysis_length.
  static dsp::RVec analysis_weights(std::size_t n);

 private:
  SymbolDemodConfig config_;
  dsp::ToneGlrtBank bank_;
  std::size_t min_planned_length_ = 0;
  std::vector<dsp::ToneGlrtBank::Window> windows_;  ///< By length, from
                                                    ///< min_planned_length_.
};

}  // namespace bis::tag
