#pragma once

/// @file matched_filter.hpp
/// Matched filtering / correlation. The radar identifies a tag by correlating
/// the slow-time spectrum at each range bin against the expected signature of
/// the tag's square-wave modulation (paper §3.3: the second FFT turns the
/// tag's on/off switching into a sinc-like comb at the modulation frequency
/// and its odd harmonics, following Millimetro).

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Expected one-sided slow-time magnitude spectrum of an on/off square wave
/// at @p mod_freq with @p duty cycle, observed over @p n_chirps chirps spaced
/// @p chirp_period apart, evaluated on an n_fft-point grid (one-sided,
/// n_fft/2+1 entries). Includes the odd-harmonic comb of the square wave.
RVec square_wave_signature(double mod_freq, double duty,
                           std::size_t n_chirps, double chirp_period,
                           std::size_t n_fft, std::size_t n_harmonics = 3);

/// Score how well the one-sided spectrum @p spectrum matches the square-wave
/// signature at @p mod_freq (on/off-support contrast; see the .cpp comment).
double signature_score(std::span<const double> spectrum, std::span<const double> signature);

/// Epilogue of signature_score for callers that accumulate the sums
/// themselves (the batched tag-scoring bank): @p on = Σ spectrum·signature
/// over the signature support, @p on_w = Σ signature over the support,
/// @p spec_on = Σ spectrum over the support, @p total = Σ spectrum over all
/// non-DC bins, @p off_n = number of non-DC bins off the support. All sums
/// must be accumulated in ascending bin order for bit-identity with
/// signature_score, which is exactly this epilogue applied to its own
/// one-pass sums (off-support power is total − spec_on).
double signature_score_from(double on, double on_w, double spec_on,
                            double total, std::size_t off_n);

}  // namespace bis::dsp
