#pragma once

/// @file tag_frontend.hpp
/// Analog simulation of the tag's decoder chain (paper Fig. 4): the incident
/// radar chirp splits into two delay lines of different length, recombines,
/// and is envelope-detected, yielding a baseband tone at Δf = α·ΔT — the
/// quantity the CSSK demodulator classifies. This model synthesizes the
/// envelope-detector output sampled by the tag's kHz-class ADC, including:
///   - the DC term of the square-law detector (bursts mark chirp on-time,
///     which the decoding algorithm exploits for window alignment),
///   - multipath: every propagation path contributes a chirp copy, and all
///     pairs of copies beat against each other (spurious tones at α·Δτ and
///     α·(Δτ ± ΔT)),
///   - delay-line dispersion (why calibration exists), differential
///     insertion loss, switch isolation, detector noise, PGA and ADC
///     quantization.

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "dsp/types.hpp"
#include "rf/adc.hpp"
#include "rf/chirp.hpp"
#include "rf/delay_line.hpp"
#include "rf/envelope_detector.hpp"
#include "rf/rf_switch.hpp"

namespace bis::tag {

/// One propagation path arriving at the tag antenna.
struct IncidentPath {
  double amplitude_v = 0.0;   ///< Voltage amplitude at the decoder input.
  double excess_delay_s = 0;  ///< Delay relative to the LoS path.
  double phase_rad = 0.0;
};

struct TagFrontendConfig {
  rf::DelayLineConfig delay_line;
  rf::EnvelopeDetectorConfig envelope;
  rf::AdcConfig adc{500e3, 12, 1.0};  ///< kHz-class MCU ADC.
  rf::RfSwitchConfig rf_switch;
  double pga_max_gain = 1e7;  ///< Programmable gain amplifier ceiling.
  bool model_multipath_cross_terms = true;
};

/// The frontend plans each period. A period's noiseless active-sweep
/// waveform (DC plus tones, the paper's Eq. 9) depends only on the chirp,
/// the switch state and the incident paths, so the frontend keeps one per
/// (chirp, switch state) while the paths stay the same; each period then
/// pays only for its noise fill, PGA and quantizer. A plan holds the same
/// sums a period would form and the noise draws are unchanged, so planned
/// frames are bit-identical to mixing every period in full.
class TagFrontend {
 public:
  TagFrontend(const TagFrontendConfig& config, Rng rng);

  /// Envelope-detector/ADC samples for one full chirp *period* (active sweep
  /// followed by the inter-chirp idle). @p paths describes the incident
  /// signal; @p absorptive selects the switch routing — a reflective chirp
  /// reaches the decoder only through switch isolation.
  dsp::RVec receive_chirp_period(const rf::ChirpParams& chirp,
                                 std::span<const IncidentPath> paths,
                                 bool absorptive);

  /// Convenience: a whole frame of chirps with per-chirp switch states
  /// (states.size() must equal chirps.size(); true = absorptive). The output
  /// stream is sized up front from the summed per-chirp sample counts and
  /// each period is synthesized directly into its slice from its plan.
  dsp::RVec receive_frame(std::span<const rf::ChirpParams> chirps,
                          std::span<const IncidentPath> paths,
                          std::span<const bool> absorptive);

  /// Pick (and latch) a PGA gain so a tone of the given input amplitude
  /// spans roughly half the ADC range. Called once per frame by the MCU's
  /// AGC loop; power-of-two gain steps model a real PGA. The gain applies
  /// after the period plans, so a new gain keeps them.
  void auto_gain(std::span<const IncidentPath> paths);

  double gain() const { return gain_; }
  double sample_rate() const { return config_.adc.sample_rate_hz; }

  /// RMS of the noise at the ADC input (after PGA) — the decoder threshold
  /// baseline.
  double output_noise_rms() const;

  const TagFrontendConfig& config() const { return config_; }

 private:
  /// Plan key: the bit patterns of the chirp's four fields plus the switch
  /// state, so only an exactly equal chirp reuses a plan.
  struct PlanKey {
    std::array<std::uint64_t, 4> chirp_bits;
    bool absorptive;
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& key) const;
  };
  /// Plans kept before the table is cleared: the CSSK alphabet needs 38
  /// slots × 2 switch states, but receive_chirp_period accepts any chirp.
  static constexpr std::size_t kMaxPlans = 128;

  /// Drop every plan unless @p paths equal the planned paths exactly
  /// (count, then each path's amplitude, delay and phase bit for bit).
  void track_paths(std::span<const IncidentPath> paths);

  /// The noiseless active-sweep samples of @p chirp in switch state
  /// @p absorptive at the tracked paths, built on first use.
  const dsp::RVec& period_plan(const rf::ChirpParams& chirp,
                               std::span<const IncidentPath> paths,
                               bool absorptive);

  /// Synthesize one chirp period into @p out, which must hold exactly
  /// adc_.samples_for(chirp.period()) samples, from its plan. The caller
  /// has tracked @p paths. Shared by the per-chirp and whole-frame entry
  /// points.
  void synthesize_period(const rf::ChirpParams& chirp,
                         std::span<const IncidentPath> paths, bool absorptive,
                         std::span<double> out);

  /// Per-period setup for a plan: switch routing, chirp copies, envelope mix,
  /// optional cross-term pruning. Returns the mixed tone set.
  rf::EnvelopeDetector::Output mix_period(const rf::ChirpParams& chirp,
                                          std::span<const IncidentPath> paths,
                                          bool absorptive);

  TagFrontendConfig config_;
  rf::DelayLinePair delay_line_;
  rf::EnvelopeDetector envelope_;
  rf::Adc adc_;
  rf::RfSwitch switch_;
  Rng rng_;
  double gain_ = 1.0;
  std::vector<IncidentPath> planned_paths_;
  std::unordered_map<PlanKey, dsp::RVec, PlanKeyHash> plans_;
};

}  // namespace bis::tag
