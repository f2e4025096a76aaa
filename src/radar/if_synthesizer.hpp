#pragma once

/// @file if_synthesizer.hpp
/// Synthesizes the radar's dechirped IF signal — the hardware-substitution
/// boundary of this reproduction (see DESIGN.md §2). An FMCW receiver mixes
/// the echo with the transmitted chirp, so a point return at range r appears
/// at the ADC as a complex tone at f_IF = 2αr/c (Eq. 3) with phase 2π·f0·τ.
/// We synthesize those tones directly at the IF sample rate with thermal
/// noise, oscillator phase noise, and quantization — statistically
/// equivalent to digitizing a real front-end, without a GHz carrier.

#include <optional>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "dsp/types.hpp"
#include "rf/adc.hpp"
#include "rf/chirp.hpp"
#include "rf/noise.hpp"

namespace bis::radar {

/// One return to place in the IF signal for a given chirp.
struct IfReturn {
  double range_m = 0.0;
  double amplitude_v = 0.0;
  double phase_rad = 0.0;  ///< Extra static phase on top of 2π·f0·τ.
};

struct IfSynthConfig {
  double sample_rate_hz = 2e6;          ///< Radar IF ADC rate.
  double noise_power_dbm = -94.0;       ///< Total IF-band noise (thermal+NF).
  double phase_noise_rad_per_sqrt_s = 0.3;  ///< Oscillator quality knob.
  bool quantize = true;
  unsigned adc_bits = 12;
  double adc_full_scale_v = 1.0;
  /// IF chain gain before the ADC. 0 = automatic: place the noise floor at
  /// full_scale / 2^(adc_bits−4) so quantization is negligible while strong
  /// near-range clutter still has headroom (models the radar's VGA/AGC).
  double if_gain = 0.0;
};

class IfSynthesizer {
 public:
  IfSynthesizer(const IfSynthConfig& config, Rng rng);

  /// Complex IF samples for one chirp with the given returns.
  dsp::CVec synthesize(const rf::ChirpParams& chirp,
                       std::span<const IfReturn> returns);

  /// Buffer-reusing variant for the streaming engine: identical samples (and
  /// identical RNG consumption), written into @p out. The returns go through
  /// one dsp::accumulate_tones pass in order, then AWGN, then the IF gain,
  /// the ADC (rf::Adc's in-place quantizer) and the inverse gain.
  void synthesize_into(const rf::ChirpParams& chirp,
                       std::span<const IfReturn> returns, dsp::CVec& out);

  /// Per-component noise sigma implied by the configured noise power.
  double noise_sigma() const { return noise_sigma_; }

  std::size_t samples_per_chirp(const rf::ChirpParams& chirp) const;

  const IfSynthConfig& config() const { return config_; }

 private:
  IfSynthConfig config_;
  Rng rng_;
  rf::PhaseNoise phase_noise_;
  double noise_sigma_;
  std::optional<rf::Adc> adc_;  ///< Set when config_.quantize.
  double gain_ = 1.0;           ///< IF gain before the ADC (resolved auto gain).
  double inv_gain_ = 1.0;       ///< 1 / gain_: refers samples back to input.
};

}  // namespace bis::radar
