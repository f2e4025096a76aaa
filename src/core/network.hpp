#pragma once

/// @file network.hpp
/// Multi-tag BiScatter network (paper §6 "Extension to Multi-Radar
/// Multi-Tag Scenarios"): one radar, several tags, each with a unique
/// uplink modulation frequency and an 8-bit address for downlink packets.
/// The radar broadcasts or addresses packets; every tag decodes the frame
/// and filters by address. On the uplink, the radar separates tags in the
/// slow-time spectrum by their assigned frequencies and localizes each.
///
/// The network holds lightweight per-tag state (a TagNode plus its derived
/// SystemConfig) instead of one full LinkSimulator per tag, and senses
/// every tag from ONE shared frame: the range–slow-time spectrum is
/// computed once and all tags are scored through the batched
/// radar::TagDetector::detect_many bank (see DESIGN.md on batched
/// multi-tag detection). Detection decisions are bit-identical to running
/// the sequential single-tag detector per tag.
///
/// A call's outcomes live in what it returns — one DownlinkDelivery per
/// tag from send_downlink, one TagObservation per tag from sense_all — and
/// are counted nowhere else; stage times go to the `bis.stage.<stage>_ns`
/// histograms (DESIGN §10).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/link_simulator.hpp"
#include "core/slot_frame.hpp"
#include "phy/bits.hpp"
#include "radar/tag_detector.hpp"

namespace bis::core {

struct NetworkTag {
  std::uint8_t address = 0;
  double range_m = 2.0;
  double mod_freq_hz = 1000.0;
};

struct NetworkConfig {
  SystemConfig base;          ///< Radar + tag hardware template.
  std::vector<NetworkTag> tags;
  std::size_t frame_chirps = 256;
};

struct TagObservation {
  std::uint8_t address = 0;
  bool detected = false;
  double range_m = 0.0;
  double range_error_m = 0.0;
  double snr_db = 0.0;
};

struct DownlinkDelivery {
  std::uint8_t address = 0;
  bool locked = false;
  bool crc_ok = false;
  bool address_match = false;  ///< Accepted (addressed to it or broadcast).
  phy::Bits payload;
};

/// One radar serving several tags.
class BiScatterNetwork {
 public:
  explicit BiScatterNetwork(const NetworkConfig& config);

  /// Calibrate every tag (one-time, short range) in one batch on the frame
  /// DSP pool: the tables equal per-tag TagNode::calibrate calls.
  void calibrate_all();

  /// Broadcast (address = 0xFF) or unicast a downlink packet; returns what
  /// every tag decoded. The over-the-air frame (packet → CSSK chirps) is
  /// built once; each tag then runs its own propagation + decode.
  std::vector<DownlinkDelivery> send_downlink(std::uint8_t address,
                                              const phy::Bits& payload);

  /// One sensing frame with every tag beaconing at its own frequency;
  /// the radar localizes each tag. One IF synthesis + range FFT + alignment
  /// pass for the whole network, then one batched detect_many call scoring
  /// every tag's frequency signature against the shared spectra. Chirps and
  /// noise come from one generator seeded at construction, so consecutive
  /// frames draw fresh ones, and two networks built from one config sense
  /// the same frame sequence.
  std::vector<TagObservation> sense_all(bool downlink_active = false);

  /// The last sense_all frame after the receive chain (valid until the next
  /// sense_all call).
  const radar::AlignedProfiles& sensed_frame() const { return frame_.aligned; }

  const NetworkConfig& config() const { return config_; }

  /// The node of tag @p i, in NetworkConfig::tags order.
  tag::TagNode& tag_node(std::size_t i) { return tags_.at(i)->node; }

  /// Assigned-frequency pairs closer than the slow-time FFT resolution
  /// 1/(frame_chirps · chirp_period) — tags a single frame cannot separate.
  /// Computed once at construction; it holds for every sensing frame.
  std::size_t mod_freq_collisions() const { return collisions_; }

 private:
  /// Per-tag state: the derived single-tag SystemConfig (range, address,
  /// OOK uplink at the tag's frequency, decorrelated seed) and the tag node
  /// itself.
  struct TagState {
    SystemConfig config;
    tag::TagNode node;

    TagState(const SystemConfig& cfg, const phy::SlopeAlphabet& alphabet)
        : config(cfg),
          node(cfg.tag.node, alphabet, Rng(cfg.seed ^ 0x7A67ull)) {}
  };

  NetworkConfig config_;
  phy::SlopeAlphabet alphabet_;  ///< Shared CSSK alphabet — identical for
                                 ///< every tag (independent of range, seed,
                                 ///< and uplink scheme).
  std::vector<std::unique_ptr<TagState>> tags_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< When base.dsp_threads > 1.
  ThreadPool* pool_ = nullptr;              ///< Frame DSP pool (see SystemConfig).

  // Shared radar-side pipeline stages, constructed once.
  radar::ReceiveChain chain_;
  radar::TagDetector detector_;
  std::vector<radar::TagTarget> targets_;      ///< One per tag, fixed.
  std::vector<radar::TagDetection> detections_;  ///< detect_many output.
  Rng rng_;  ///< Sensing chirps and noise, continued frame to frame.

  // Precomputed scene/link constants.
  std::vector<SlotResponder> beacons_;  ///< One square-wave beacon per tag.
  double reflect_ = 1.0;         ///< RF-switch reflective amplitude factor.
  double leak_ = 0.0;            ///< Absorptive-state leakage factor.
  std::size_t collisions_ = 0;   ///< See mod_freq_collisions().

  // Reused frame buffers (allocated once, steady-state alloc-free).
  std::vector<rf::ChirpParams> chirps_;
  std::vector<radar::IfReturn> returns_;  ///< [clutter..., one per tag].
  radar::ReceiveFrame frame_;
  std::unique_ptr<bool[]> flags_;  ///< Absorptive flags for downlink frames.
  std::size_t flags_capacity_ = 0;
};

/// Assign well-separated modulation frequencies to @p n tags below the
/// slow-time Nyquist bound for @p chirp_period_s.
std::vector<double> assign_mod_frequencies(std::size_t n, double chirp_period_s);

/// Count assigned-frequency pairs closer than the slow-time FFT resolution
/// 1/(n_chirps · chirp_period_s) — adjacent pairs after sorting. Such pairs
/// land in the same spectral bin and cannot be separated within one frame;
/// BiScatterNetwork::mod_freq_collisions() holds the count for its plan.
std::size_t count_mod_freq_collisions(std::span<const double> freqs_hz,
                                      std::size_t n_chirps,
                                      double chirp_period_s);

}  // namespace bis::core
