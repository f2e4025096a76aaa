#include "tag/tag_node.hpp"

#include "common/check.hpp"

namespace bis::tag {

TagNode::TagNode(const TagNodeConfig& config, const phy::SlopeAlphabet& alphabet,
                 Rng rng)
    : config_(config),
      alphabet_(alphabet),
      frontend_(config.frontend, rng),
      // The tag backscatters on the radar's chirps, so its uplink cadence is
      // the alphabet's chirp period.
      modulator_([&] {
        phy::UplinkConfig uplink = config.uplink;
        uplink.chirp_period_s = alphabet.config().chirp_period_s;
        return uplink;
      }()),
      power_(config.power),
      calibration_(CalibrationTable::nominal(alphabet)) {}

void TagNode::calibrate(double incident_amplitude_v) {
  TagNode* const self = this;
  calibrate_batch(std::span<TagNode* const>(&self, 1),
                  std::span<const double>(&incident_amplitude_v, 1));
}

void TagNode::calibrate_batch(std::span<TagNode* const> nodes,
                              std::span<const double> incident_amplitudes_v,
                              ThreadPool* pool) {
  BIS_CHECK(!nodes.empty());
  BIS_CHECK(incident_amplitudes_v.size() == nodes.size());
  // Calibration runs through each decoder's own gate, derived from the
  // node's current table, so its estimator matches classification exactly.
  const phy::SlopeAlphabet& alphabet = nodes.front()->alphabet_;
  std::vector<CalibrationTarget> targets;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    TagNode& node = *nodes[i];
    BIS_CHECK(node.alphabet_.config() == alphabet.config());
    targets.push_back({&node.frontend_, incident_amplitudes_v[i],
                       decoder_gate_config(node.alphabet_,
                                           node.calibration_.slot_beat_freqs_hz,
                                           node.frontend_.sample_rate())});
  }
  auto tables = run_calibration(targets, alphabet, pool);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->calibration_ = std::move(tables[i]);
    nodes[i]->decoder_.reset();
  }
}

TagNode::DownlinkReception TagNode::receive_downlink(
    const dsp::RVec& stream, const phy::PacketConfig& packet_config,
    const std::vector<bool>& absorptive_mask) {
  if (!decoder_)
    decoder_.emplace(alphabet_, calibration_.slot_beat_freqs_hz, frontend_.sample_rate());
  DownlinkReception r;
  r.decode = decoder_->decode_stream(stream, packet_config, absorptive_mask);
  if (r.decode.locked) {
    r.packet = phy::parse_framed_bits(r.decode.bits, packet_config, config_.address);
  }
  return r;
}

}  // namespace bis::tag
