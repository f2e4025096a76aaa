#pragma once

/// @file tone_fit.hpp
/// Least-squares tone scoring with a DC nuisance parameter. The tag decoder
/// must estimate a beat frequency from windows that may contain only one or
/// two tone cycles riding on a large square-law DC pedestal (Eq. 11's
/// cycles-per-chirp figure B·ΔL/(k·c) is ≈1.4 for the paper's 250 MHz
/// configuration). In that regime plain mean-removal followed by a DFT bin
/// is useless — the DC and tone subspaces overlap — so we fit the model
///   x[n] ≈ a·cos(2πfn/fs) + b·sin(2πfn/fs) + d
/// by (optionally Hann-weighted) least squares and score the energy the
/// tone terms explain beyond the DC-only fit. This reduces to the Goertzel
/// power at high cycle counts and stays well-behaved down to ~1 cycle.

#include <span>
#include <vector>

namespace bis::dsp {

/// Planned GLRT scorer for a fixed set of frequencies. The tag's reference
/// is fixed once calibration is done (paper §3.2.2, §4.1), so everything
/// the tone_glrt_score model needs that does not depend on the data is
/// computed once: the bank holds each frequency's cos(ωi)/sin(ωi) table up
/// to max_length() samples (the frequency count padded to
/// kernels::kToneGlrtLanes, padding zero), and a Window holds one
/// weighting's weights plus each frequency's data-free solve terms: the
/// Gram sums of the weighted [cos, sin, 1] design columns, the three 2×2
/// minors Cramer's rule shares with the data, and 1/det (0 when singular).
/// Scoring a window is one dispatched kernel (kernels::ktoneglrt): the two
/// data dot products per frequency and the rest of the 3×3 solve, with no
/// libm call. Every sum adds the same rounded operands in the same sample
/// order as the per-sample reference loop, and the solve evaluates the same
/// expressions, so the scores are bit-identical to it on every kernel
/// target.
class ToneGlrtBank {
 public:
  /// One weighting planned against a bank (see ToneGlrtBank::window).
  class Window {
   public:
    std::size_t size() const { return weights_.size(); }

   private:
    friend class ToneGlrtBank;
    std::vector<double> weights_;
    std::vector<double> plan_;  ///< kernels::kGlrtRuns runs of one entry
                                ///< per padded frequency (kernels.hpp).
    double uu_ = 0.0;           ///< Σw², shared by every frequency.
  };

  /// Every frequency must lie in (0, fs/2).
  ToneGlrtBank(std::span<const double> freqs, double fs, std::size_t max_length);

  /// Plan the weighting @p weights (one weight per sample, at most
  /// max_length() of them). Unit weights give the unweighted score.
  Window window(std::span<const double> weights) const;

  /// Score @p x at every frequency into @p out. @p x must have the
  /// window's length and @p out one entry per frequency; windows shorter
  /// than 4 samples score 0.
  void scores(std::span<const double> x, const Window& window,
              std::span<double> out) const;

  std::size_t size() const { return n_freqs_; }
  std::size_t max_length() const { return max_length_; }

 private:
  std::size_t n_freqs_;
  std::size_t stride_;  ///< n_freqs_ padded to the scoring block width.
  std::size_t max_length_;
  std::vector<double> cos_;  ///< cos(ω_f·i) at [i·stride_ + f]; 0 in padding.
  std::vector<double> sin_;  ///< sin(ω_f·i) at [i·stride_ + f]; 0 in padding.
};

/// Tone-explained energy at frequency @p freq (Hz) for sample rate @p fs,
/// with DC treated as a nuisance parameter. @p weights must be empty (no
/// weighting) or the same length as @p x. A one-off ToneGlrtBank.
double tone_glrt_score(std::span<const double> x, double freq, double fs,
                       std::span<const double> weights = {});

/// Evaluate the GLRT score for several frequencies over one window (a
/// one-off ToneGlrtBank).
std::vector<double> tone_glrt_scores(std::span<const double> x,
                                     std::span<const double> freqs, double fs,
                                     std::span<const double> weights = {});

/// Full fit result: x[n] ≈ a·cos(ωn) + b·sin(ωn) + dc.
struct ToneFit {
  double a = 0.0;
  double b = 0.0;
  double dc = 0.0;
  double score = 0.0;      ///< Tone-explained energy beyond the DC-only fit.
  double phase_rad = 0.0;  ///< Phase of a·cos + b·sin as cos(ωn + φ).
};

ToneFit tone_fit(std::span<const double> x, double freq, double fs,
                 std::span<const double> weights = {});

/// Known-phase variant: fit x[n] ≈ a·cos(ωn + φ) + dc with a free (signed)
/// amplitude and return the tone-explained energy. When the expected phase
/// is known from calibration this discriminates tones even at ~1 cycle per
/// window, where the phase-free GLRT profiles of nearby slots overlap.
double tone_known_phase_score(std::span<const double> x, double freq,
                              double phase_rad, double fs,
                              std::span<const double> weights = {});

}  // namespace bis::dsp
