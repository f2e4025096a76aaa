#pragma once

/// @file oscillator.hpp
/// Recurrence-based tone synthesis kernels. Sample-exact tone generation with
/// libm costs two transcendental calls per sample; a complex oscillator
/// advanced by one complex multiply per sample (z ← z·w, w = e^{jω·dt}) does
/// the same work in a handful of flops. Pure rotation accumulates rounding
/// drift of ~1 ulp of phase per step, so every kOscResyncInterval samples the
/// oscillator re-anchors to the exact libm phase — the worst-case deviation
/// from the per-sample reference stays below ~1e-12 rad over a chirp of any
/// length, far under every noise floor in the simulation.
///
/// These kernels are the synthesis-side counterpart of the FFT plan cache:
/// IfSynthesizer (radar dechirped IF) and TagFrontend (envelope-detector ADC
/// stream) spend nearly all their time in exactly these loops.

#include <span>

#include "dsp/types.hpp"

namespace bis::dsp {

/// Samples between exact-phase re-anchors of the oscillator recurrence.
inline constexpr std::size_t kOscResyncInterval = 512;

/// out[i] += amplitude · e^{j(2π·freq_hz·(i·dt) + phase0_rad)} for all i.
/// Matches accumulate_tone_reference to < ~1e-12 in phase.
void accumulate_tone(std::span<cdouble> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad);

/// out[i] += amplitude · cos(2π·freq_hz·(i·dt) + phase0_rad) for all i.
void accumulate_tone(std::span<double> out, double amplitude, double freq_hz,
                     double dt, double phase0_rad);

/// Per-sample libm reference paths (two transcendentals per sample) — the
/// pre-oscillator implementation, kept for drift-bound tests and the
/// old-vs-new synthesis throughput rows in bench_dsp_kernels.
void accumulate_tone_reference(std::span<cdouble> out, double amplitude,
                               double freq_hz, double dt, double phase0_rad);
void accumulate_tone_reference(std::span<double> out, double amplitude,
                               double freq_hz, double dt, double phase0_rad);

}  // namespace bis::dsp
