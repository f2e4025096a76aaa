#pragma once

/// @file noise.hpp
/// Noise injection: AWGN for thermal noise, a Wiener-process phase noise
/// model for oscillator quality (the paper attributes the 24 GHz radar's
/// slight edge over the 9 GHz chirp generator to "a higher quality clock and
/// signal generator", Fig. 17 — we expose that knob here).

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "dsp/types.hpp"

namespace bis::rf {

/// Add zero-mean white Gaussian noise with the given standard deviation.
/// Batched: deviates come from Rng::fill_gaussian (ziggurat) in chunks, not
/// a per-sample Box–Muller call — this is the inner loop of every noisy
/// chirp. Still fully deterministic per @p rng stream.
void add_awgn(std::span<double> x, double sigma, Rng& rng);
void add_awgn(std::span<bis::dsp::cdouble> x, double sigma_per_component, Rng& rng);

/// Cumulative real samples noised by add_awgn across the process (a complex
/// sample counts twice — once per component): the one noise count. Always
/// on; run reports (obs::RunReport::awgn_samples) read it as deltas to
/// attribute AWGN volume to a run.
std::uint64_t awgn_samples_added();

/// Noise sigma that yields @p snr_db for a real sinusoid of amplitude @p amp
/// (signal power amp²/2).
double sigma_for_tone_snr(double amp, double snr_db);

/// Oscillator phase-noise model: a discrete Wiener process whose increment
/// variance is derived from a single-sided phase noise level. Applied as a
/// slowly wandering phase on synthesized tones.
class PhaseNoise {
 public:
  /// @p random_walk_rad_per_sqrt_s — phase diffusion rate; 0 disables.
  PhaseNoise(double random_walk_rad_per_sqrt_s, Rng rng);

  /// Advance by @p dt seconds and return the current phase offset [rad].
  double step(double dt);

  void reset();
  double current() const { return phase_; }

 private:
  double rate_;
  double phase_ = 0.0;
  Rng rng_;
};

}  // namespace bis::rf
