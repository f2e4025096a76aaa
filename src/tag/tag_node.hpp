#pragma once

/// @file tag_node.hpp
/// A complete BiScatter tag: analog frontend + downlink decoder + uplink
/// modulator + calibration state + power accounting (paper Fig. 2). This is
/// the object applications hold; the lower-level pieces remain usable
/// directly.

#include <cstdint>
#include <optional>
#include <span>

#include "phy/packet.hpp"
#include "phy/slope_alphabet.hpp"
#include "tag/calibration.hpp"
#include "tag/power_model.hpp"
#include "tag/tag_decoder.hpp"
#include "tag/tag_frontend.hpp"
#include "tag/tag_modulator.hpp"

namespace bis::tag {

struct TagNodeConfig {
  TagFrontendConfig frontend;
  phy::UplinkConfig uplink;  ///< TagNode sets chirp_period_s to the
                             ///< alphabet's chirp period.
  TagPowerConfig power;
  std::optional<std::uint8_t> address;  ///< For addressed downlink packets.
  TagOperatingMode mode = TagOperatingMode::kContinuous;
};

class TagNode {
 public:
  /// The tag keeps a copy of the alphabet it shares with the radar: the slot
  /// layout, the chirp period its decoder searches around and its uplink
  /// cadence. Its beat-frequency table starts as the nominal Eq. 11
  /// prediction until calibrate() replaces it with measured values.
  TagNode(const TagNodeConfig& config, const phy::SlopeAlphabet& alphabet, Rng rng);

  /// Run the one-time calibration procedure at the given incident amplitude.
  void calibrate(double incident_amplitude_v);

  /// Calibrate every node as calibrate() would, node i at
  /// @p incident_amplitudes_v[i], in one run_calibration batch: each slot's
  /// grid and GLRT bank is planned once for all of them, and @p pool scores
  /// the slots. The nodes must be distinct and share one alphabet
  /// configuration and ADC rate; each keeps its own amplitude and gate.
  static void calibrate_batch(std::span<TagNode* const> nodes,
                              std::span<const double> incident_amplitudes_v,
                              ThreadPool* pool = nullptr);

  bool calibrated() const { return calibration_.calibrated; }
  const CalibrationTable& calibration() const { return calibration_; }

  /// Capture + decode a downlink stream (frame of envelope samples) of a
  /// packet with @p packet_config's preamble. The first call after
  /// construction or calibrate() builds the decoder from the alphabet and
  /// the current calibration table; a tag that never receives a downlink
  /// never plans one.
  struct DownlinkReception {
    DownlinkDecodeResult decode;
    phy::ParsedPacket packet;
  };
  DownlinkReception receive_downlink(const dsp::RVec& stream,
                                     const phy::PacketConfig& packet_config,
                                     const std::vector<bool>& absorptive_mask = {});

  TagFrontend& frontend() { return frontend_; }
  TagModulator& modulator() { return modulator_; }
  const PowerModel& power() const { return power_; }
  TagOperatingMode mode() const { return config_.mode; }
  std::optional<std::uint8_t> address() const { return config_.address; }

 private:
  TagNodeConfig config_;
  phy::SlopeAlphabet alphabet_;  ///< A copy: TagNode is copyable.
  TagFrontend frontend_;
  TagModulator modulator_;
  PowerModel power_;
  CalibrationTable calibration_;
  std::optional<TagDecoder> decoder_;  ///< Built on first receive_downlink.
};

}  // namespace bis::tag
