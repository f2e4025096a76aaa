#include "tag/tag_node.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace bis::tag {

TagNode::TagNode(const TagNodeConfig& config, const phy::SlopeAlphabet& alphabet,
                 Rng rng)
    : config_(config),
      alphabet_config_(alphabet.config()),
      header_slot_(alphabet.header_slot()),
      sync_slot_(alphabet.sync_slot()),
      first_data_slot_(alphabet.first_data_slot()),
      gray_coding_(alphabet.config().gray_coding),
      bits_per_symbol_(alphabet.bits_per_symbol()),
      slot_durations_s_([&] {
        std::vector<double> d(alphabet.slot_count());
        for (std::size_t i = 0; i < d.size(); ++i) d[i] = alphabet.duration(i);
        return d;
      }()),
      min_duration_s_(alphabet.duration(alphabet.header_slot())),
      max_duration_s_(alphabet.duration(alphabet.sync_slot())),
      frontend_(config.frontend, rng),
      modulator_(config.uplink),
      power_(config.power),
      calibration_(CalibrationTable::nominal(alphabet)) {}

TagDecoderConfig TagNode::make_decoder_config() const {
  TagDecoderConfig d;
  d.sample_rate_hz = frontend_.sample_rate();
  d.slot_beat_freqs_hz = calibration_.slot_beat_freqs_hz;
  // Calibrated phases exist in the table but are NOT used for matching:
  // the gate's integer-sample start jitter de-coheres them at the higher
  // beat frequencies (documented limitation; see EXPERIMENTS.md, Fig. 17).
  d.slot_durations_s = slot_durations_s_;
  d.bits_per_symbol = bits_per_symbol_;
  d.header_slot = header_slot_;
  d.sync_slot = sync_slot_;
  d.first_data_slot = first_data_slot_;
  d.preamble_guard_slots = alphabet_config_.preamble_guard_slots;
  d.gray_coding = gray_coding_;
  d.min_header_run = config_.min_header_run;
  d.expected_header_chirps = config_.expected_header_chirps;
  d.expected_sync_chirps = config_.expected_sync_chirps;

  d.period.sample_rate_hz = frontend_.sample_rate();
  d.period.min_period_s = alphabet_config_.chirp_period_s * 0.4;
  d.period.max_period_s = alphabet_config_.chirp_period_s * 2.5;

  d.periodic_gate.sample_rate_hz = frontend_.sample_rate();
  d.periodic_gate.min_burst_s = 0.5 * min_duration_s_;
  // Dip tolerance: the pedestal+tone sum swings to zero every beat-tone
  // trough, so the end-scan must ride across ~0.6 cycles of the lowest tone.
  double min_beat = calibration_.slot_beat_freqs_hz.front();
  for (double f : calibration_.slot_beat_freqs_hz) min_beat = std::min(min_beat, f);
  d.periodic_gate.max_dip_s = 0.6 / std::max(min_beat, 1.0);
  // The dip tolerance must never bridge the shortest inter-chirp idle, or
  // the gate would merge consecutive bursts.
  const double min_idle_s = alphabet_config_.chirp_period_s - max_duration_s_;
  d.periodic_gate.max_dip_s = std::min(d.periodic_gate.max_dip_s, 0.7 * min_idle_s);
  return d;
}

void TagNode::calibrate(double incident_amplitude_v,
                        const CalibrationConfig& cal_config) {
  TagNode* const self = this;
  calibrate_batch(std::span<TagNode* const>(&self, 1),
                  std::span<const double>(&incident_amplitude_v, 1), cal_config);
}

void TagNode::calibrate_batch(std::span<TagNode* const> nodes,
                              std::span<const double> incident_amplitudes_v,
                              const CalibrationConfig& cal_config,
                              ThreadPool* pool) {
  BIS_CHECK(!nodes.empty());
  BIS_CHECK(incident_amplitudes_v.size() == nodes.size());
  // Rebuild a throwaway alphabet view for calibration: the table is indexed
  // by slot and the frontend knows the physics; we only need chirps, which
  // we reconstruct from the stored config. Calibration runs through each
  // decoder's own gate so its estimator matches classification exactly.
  const phy::SlopeAlphabetConfig& alphabet_config = nodes.front()->alphabet_config_;
  const auto alphabet = phy::SlopeAlphabet::design(alphabet_config);
  std::vector<CalibrationTarget> targets;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    BIS_CHECK(nodes[i]->alphabet_config_ == alphabet_config);
    targets.push_back({&nodes[i]->frontend_, incident_amplitudes_v[i],
                       nodes[i]->make_decoder_config().periodic_gate});
  }
  auto tables = run_calibration(targets, alphabet, cal_config, pool);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->calibration_ = std::move(tables[i]);
    nodes[i]->decoder_.reset();
  }
}

TagNode::DownlinkReception TagNode::receive_downlink(
    const dsp::RVec& stream, const phy::PacketConfig& packet_config,
    const std::vector<bool>& absorptive_mask) {
  if (!decoder_) decoder_.emplace(make_decoder_config());
  DownlinkReception r;
  r.decode = decoder_->decode_stream(stream, absorptive_mask);
  if (r.decode.locked) {
    r.packet = phy::parse_framed_bits(r.decode.bits, packet_config, config_.address);
  }
  return r;
}

}  // namespace bis::tag
