#include "core/system_config.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace bis::core {
namespace {

/// Cap on the highest beat frequency, as a fraction of the tag ADC rate
/// (image-interference margin below Nyquist).
constexpr double kMaxBeatFraction = 0.3;
/// Floor on the tag's per-chirp analysis window, in ADC samples.
constexpr double kMinDemodWindowSamples = 16.0;

}  // namespace

RadarPreset RadarPreset::chirpgen_9ghz(double bandwidth_hz) {
  BIS_CHECK(bandwidth_hz > 0.0 && bandwidth_hz <= 1e9);
  RadarPreset p;
  p.name = "9GHz chirp generator (LMX2492EVM)";
  p.rf.tx_power_dbm = 7.0;  // §4: ZX80-05113LN+ amplifier, 7 dBm out.
  p.rf.tx_gain_dbi = 12.0;
  p.rf.rx_gain_dbi = 12.0;
  p.rf.noise_figure_db = 12.0;
  p.start_frequency_hz = 9e9;
  p.bandwidth_hz = bandwidth_hz;
  p.if_synth.sample_rate_hz = 2e6;
  p.if_synth.noise_power_dbm = -94.0;
  // Bench-grade chirp generator: more phase wander than an integrated
  // automotive radar chip (the paper's explanation for Fig. 17).
  p.if_synth.phase_noise_rad_per_sqrt_s = 0.5;
  return p;
}

RadarPreset RadarPreset::tinyrad_24ghz() {
  RadarPreset p;
  p.name = "24GHz Analog Devices TinyRad";
  p.rf.tx_power_dbm = 8.0;  // §4: maximum power output of 8 dBm.
  p.rf.tx_gain_dbi = 13.0;  // Integrated patch array, slightly higher gain.
  p.rf.rx_gain_dbi = 13.0;
  p.rf.noise_figure_db = 11.0;
  p.start_frequency_hz = 24.0e9;
  p.bandwidth_hz = 250e6;  // ISM-band limit (§5.3).
  p.if_synth.sample_rate_hz = 2e6;
  p.if_synth.noise_power_dbm = -94.0;
  p.if_synth.phase_noise_rad_per_sqrt_s = 0.15;  // "higher quality clock".
  return p;
}

TagPreset TagPreset::prototype(double delay_line_inches,
                               std::optional<std::uint8_t> address) {
  BIS_CHECK(delay_line_inches > 0.0);
  TagPreset t;
  t.name = "BiScatter prototype tag";
  t.node.frontend.delay_line.length_diff_m = delay_line_inches * kMetersPerInch;
  t.node.frontend.delay_line.velocity_factor = 0.7;   // coax, §3.2.1.
  t.node.frontend.delay_line.dispersion_per_ghz = 0.004;
  t.node.frontend.delay_line.reference_freq_hz = 9e9;
  t.node.frontend.envelope.lpf_cutoff_hz = 240e3;     // ADL6010-class.
  // Calibrated so the default link lands on the paper's headline operating
  // point: downlink BER < 1e-3 at 7 m with 5-bit symbols (Fig. 13). The
  // equivalent envelope SNR at 7 m comes out ~24 dB here vs the paper's
  // quoted ~16 dB — our decoder needs a little more margin than theirs;
  // the BER-vs-distance *shape* is what we anchor.
  t.node.frontend.envelope.output_noise_density = 0.6e-9;
  t.node.frontend.envelope.conversion_gain = 1900.0;  // ~V/W square law.
  t.node.frontend.adc.sample_rate_hz = 500e3;
  t.node.frontend.adc.bits = 12;
  t.node.frontend.adc.full_scale = 1.65;              // 3.3 V MCU rail.
  t.node.address = address;
  t.rf.antenna_gain_dbi = 5.0;
  t.rf.decoder_insertion_loss_db = 8.0;  // splitters + connectors + lines (§6).
  t.rf.retro_gain_db = 18.0;
  t.rf.retro_reflective = true;
  return t;
}

radar::ReceiveChain SystemConfig::make_receive_chain() const {
  return radar::ReceiveChain(radar.if_synth.sample_rate_hz, if_correction,
                             use_background_subtraction);
}

phy::SlopeAlphabet SystemConfig::make_alphabet() const {
  phy::SlopeAlphabetConfig a;
  a.bandwidth_hz = radar.bandwidth_hz;
  a.start_frequency_hz = radar.start_frequency_hz;
  a.chirp_period_s = radar.chirp_period_s;
  a.max_duty = radar.max_duty;
  a.bits_per_symbol = bits_per_symbol;
  a.gray_coding = gray_coding;
  a.delay_line = tag.node.frontend.delay_line;

  // Keep the highest beat frequency below 0.3 of the tag ADC rate; with
  // long delay lines and wide bandwidth, short chirps would alias otherwise.
  const rf::DelayLinePair line(a.delay_line);
  const double max_beat = kMaxBeatFraction * tag.node.frontend.adc.sample_rate_hz;
  const double t_for_max_beat =
      line.beat_frequency_nominal(a.bandwidth_hz, 1.0) / max_beat;
  // Also give the tag demodulator a workable number of samples per chirp.
  const double t_for_window =
      kMinDemodWindowSamples / tag.node.frontend.adc.sample_rate_hz;
  a.min_chirp_duration_s =
      std::max({radar.min_chirp_duration_s, t_for_max_beat, t_for_window});
  return phy::SlopeAlphabet::design(a);
}

std::string config_key(const SystemConfig& config) {
  std::ostringstream oss;
  oss << config.radar.name << '|' << config.tag.name
      << "|bw=" << config.radar.bandwidth_hz
      << "|bps=" << config.bits_per_symbol
      << "|range=" << config.tag_range_m << "|seed=" << config.seed;
  return oss.str();
}

}  // namespace bis::core
