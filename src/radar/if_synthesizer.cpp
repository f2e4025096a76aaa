#include "radar/if_synthesizer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/oscillator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

IfSynthesizer::IfSynthesizer(const IfSynthConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      phase_noise_(config.phase_noise_rad_per_sqrt_s, rng_.fork()) {
  BIS_CHECK(config_.sample_rate_hz > 0.0);
  // Complex AWGN with total power P splits evenly across I and Q.
  const double noise_power_w = dbm_to_watts(config_.noise_power_dbm);
  noise_sigma_ = std::sqrt(noise_power_w / 2.0);
  if (!config_.quantize) return;
  gain_ = config_.if_gain;
  if (gain_ <= 0.0) {
    // Auto IF gain: noise floor at full_scale / 2^(bits−4). Very strong
    // near-range returns (tag closer than ~1 m) can clip — the same
    // saturation a real radar's fixed-AGC front-end exhibits.
    const double target =
        config_.adc_full_scale_v /
        std::pow(2.0, static_cast<double>(config_.adc_bits) - 4.0);
    gain_ = noise_sigma_ > 0.0 ? target / noise_sigma_ : 1.0;
  }
  inv_gain_ = 1.0 / gain_;
  rf::AdcConfig adc_cfg;
  adc_cfg.sample_rate_hz = config_.sample_rate_hz;
  adc_cfg.bits = config_.adc_bits;
  adc_cfg.full_scale = config_.adc_full_scale_v;
  adc_.emplace(adc_cfg);
}

std::size_t IfSynthesizer::samples_per_chirp(const rf::ChirpParams& chirp) const {
  return static_cast<std::size_t>(std::floor(chirp.duration_s * config_.sample_rate_hz));
}

dsp::CVec IfSynthesizer::synthesize(const rf::ChirpParams& chirp,
                                    std::span<const IfReturn> returns) {
  dsp::CVec out;
  synthesize_into(chirp, returns, out);
  return out;
}

void IfSynthesizer::synthesize_into(const rf::ChirpParams& chirp,
                                    std::span<const IfReturn> returns,
                                    dsp::CVec& out) {
  BIS_TRACE_SPAN("radar.if_synthesis");
  BIS_CHECK(chirp.valid());
  const std::size_t n = samples_per_chirp(chirp);
  static obs::Counter& samples =
      obs::Registry::instance().counter("bis.radar.if_samples_synthesized");
  samples.add(n);
  out.assign(n, dsp::cdouble(0.0, 0.0));
  const double dt = 1.0 / config_.sample_rate_hz;

  // One common oscillator phase-noise realization per chirp: slow drift
  // between chirps dominates intra-chirp wander for IF processing.
  const double pn = phase_noise_.step(chirp.period());

  // The chirp's returns as one tone bank (per-thread, so steady-state chirps
  // allocate nothing), accumulated in return order in one pass.
  thread_local std::vector<dsp::Tone> tones;
  tones.clear();
  for (const auto& ret : returns) {
    if (ret.amplitude_v == 0.0) continue;
    BIS_CHECK(ret.range_m >= 0.0);
    const double tau = 2.0 * ret.range_m / kSpeedOfLight;
    const double f_if = chirp.beat_frequency(ret.range_m);
    // Residual video phase: 2π(f0·τ − α·τ²/2); the τ² term is negligible at
    // these ranges but kept for correctness.
    const double phi0 = kTwoPi * (chirp.start_frequency_hz * tau -
                                  chirp.slope() * tau * tau / 2.0) +
                        ret.phase_rad + pn;
    tones.push_back({ret.amplitude_v, f_if, phi0});
  }
  dsp::accumulate_tones(std::span<dsp::cdouble>(out), tones, dt);

  rf::add_awgn(std::span<dsp::cdouble>(out), noise_sigma_, rng_);

  if (adc_) {
    // Amplify, quantize, and refer back to the input scale so downstream
    // amplitude bookkeeping (link budgets) stays consistent. I and Q are
    // quantized alike, so the chirp is one run of interleaved doubles.
    const std::span<double> iq(reinterpret_cast<double*>(out.data()),
                               2 * out.size());
    dsp::kernels::kscale(iq, gain_);
    adc_->quantize(iq);
    dsp::kernels::kscale(iq, inv_gain_);
  }
}

}  // namespace bis::radar
