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

/// One oscillator of a tone bank: amplitude · e^{j(2π·freq_hz·t + phase0_rad)}.
struct Tone {
  double amplitude = 0.0;
  double freq_hz = 0.0;
  double phase0_rad = 0.0;
};

/// out[i] += Σ_k tones[k] at t = i·dt, for all i: the bank of a chirp's
/// returns in one pass over @p out, so the tones' independent z ← z·w chains
/// overlap instead of each tone paying the rotation's latency alone. Each
/// sample takes its tones in the order of @p tones, and every tone
/// re-anchors at the same kOscResyncInterval indices, so the result equals
/// one accumulate_tone call per tone in that order, bit for bit.
void accumulate_tones(std::span<cdouble> out, std::span<const Tone> tones,
                      double dt);

/// Real bank: out[i] += Σ_k re(tones[k] at t = i·dt), bit-identical to one
/// real accumulate_tone call per tone in order.
void accumulate_tones(std::span<double> out, std::span<const Tone> tones,
                      double dt);

/// out[i] += amplitude · e^{j(2π·freq_hz·(i·dt) + phase0_rad)} for all i:
/// the one-tone bank. Matches accumulate_tone_reference to < ~1e-12 in phase.
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
