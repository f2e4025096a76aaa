#pragma once

/// @file peak.hpp
/// Peak detection and sub-bin refinement. Centimetre-level localization
/// (paper §5.2) requires interpolating the range-FFT peak between bins;
/// tag symbol decoding requires robust argmax with leakage-aware spacing.

#include <cstddef>
#include <span>

namespace bis::dsp {

struct Peak {
  std::size_t index = 0;     ///< Bin index of the local maximum.
  double refined_index = 0;  ///< Sub-bin position after parabolic interpolation.
  double value = 0;          ///< Magnitude at the (integer) peak.
};

/// Index of the global maximum. Requires non-empty input.
std::size_t argmax(std::span<const double> xs);

/// Parabolic (quadratic) interpolation of a peak at integer index @p k using
/// its two neighbours; returns the refined fractional index. Falls back to
/// the integer index at the edges or for degenerate neighbourhoods.
double parabolic_refine(std::span<const double> xs, std::size_t k);

/// Global maximum with sub-bin refinement.
Peak find_peak(std::span<const double> xs);

}  // namespace bis::dsp
