#pragma once

/// @file goertzel.hpp
/// Goertzel single-bin DFT evaluator. The paper (§3.2.2, §4.1) calls out the
/// Goertzel algorithm as the low-power alternative to a full FFT: a decoder
/// that needs the spectrum at only a handful of frequencies evaluates it
/// point by point, much cheaper than an FFT sweep. The radar's uplink
/// decoder scores every symbol this way at its few modulation frequencies.

#include <span>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Evaluate the DFT of @p x at frequency @p freq (Hz) given sample rate
/// @p fs (arbitrary frequency, not restricted to bin centres).
cdouble goertzel(std::span<const double> x, double freq, double fs);

/// Power (|X|²) at the given frequency; the quantity compared across the
/// candidate frequencies when classifying a symbol.
double goertzel_power(std::span<const double> x, double freq, double fs);

}  // namespace bis::dsp
