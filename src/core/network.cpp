#include "core/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"
#include "radar/if_synthesizer.hpp"

namespace bis::core {
namespace {

radar::TagDetectorConfig network_detector_config(const NetworkConfig& config) {
  BIS_CHECK(!config.tags.empty());
  radar::TagDetectorConfig det_cfg;
  // The config's own frequency is only detect()'s default target; sense_all
  // always scores through detect_many with the per-tag target list.
  det_cfg.expected_mod_freq_hz = config.tags.front().mod_freq_hz;
  return det_cfg;
}

}  // namespace

std::vector<double> assign_mod_frequencies(std::size_t n, double chirp_period_s) {
  BIS_CHECK(n >= 1);
  BIS_CHECK(chirp_period_s > 0.0);
  const double nyquist = 1.0 / (2.0 * chirp_period_s);
  // Spread tags across (0.15, 0.85)·Nyquist, avoiding DC clutter and the
  // band edge.
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double frac =
        0.15 + 0.70 * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    freqs[i] = frac * nyquist;
  }
  return freqs;
}

std::size_t count_mod_freq_collisions(std::span<const double> freqs_hz,
                                      std::size_t n_chirps,
                                      double chirp_period_s) {
  if (freqs_hz.size() < 2 || n_chirps == 0 || chirp_period_s <= 0.0) return 0;
  const double resolution_hz =
      1.0 / (static_cast<double>(n_chirps) * chirp_period_s);
  std::vector<double> sorted(freqs_hz.begin(), freqs_hz.end());
  std::sort(sorted.begin(), sorted.end());
  std::size_t collisions = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] - sorted[i - 1] < resolution_hz) ++collisions;
  }
  return collisions;
}

BiScatterNetwork::BiScatterNetwork(const NetworkConfig& config)
    : config_(config),
      alphabet_(config.base.make_alphabet()),
      chain_(config.base.make_receive_chain()),
      detector_(network_detector_config(config)),
      rng_(config.base.seed ^ 0x5E25Eull) {
  BIS_CHECK(!config_.tags.empty());
  pool_ = resolve_dsp_pool(config_.base.dsp_threads, owned_pool_);

  const std::size_t n = config_.tags.size();
  tags_.reserve(n);
  targets_.reserve(n);
  std::vector<double> freqs;
  freqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& t = config_.tags[i];
    SystemConfig sc = config_.base;
    sc.tag_range_m = t.range_m;
    sc.tag.node.address = t.address;
    sc.packet.tag_address = t.address;  // per-tag default; overridden on send
    sc.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
    sc.tag.node.uplink.mod_frequencies_hz = {t.mod_freq_hz};
    sc.seed = config_.base.seed + 101 * (i + 1);
    tags_.push_back(std::make_unique<TagState>(sc, alphabet_));
    targets_.push_back({t.mod_freq_hz, {}});
    freqs.push_back(t.mod_freq_hz);
  }
  collisions_ = count_mod_freq_collisions(freqs, config_.frame_chirps,
                                          config_.base.radar.chirp_period_s);

  // Shared sensing scene, built once: clutter prefix then one return slot
  // per tag, whose square wave starts on at the frame's first chirp.
  const auto& base = config_.base;
  beacons_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    SlotResponder& b = beacons_[i];
    b.mod_freq_hz = config_.tags[i].mod_freq_hz;
    b.range_m = config_.tags[i].range_m;
    b.amplitude_v = tag_backscatter_amplitude(base, b.range_m);
    b.phase_rad = 0.37 * static_cast<double>(i);
  }
  returns_ = clutter_returns(base);
  returns_.resize(returns_.size() + n);
  reflect_ = db_to_amplitude(-base.tag.node.frontend.rf_switch.insertion_loss_db);
  leak_ = db_to_amplitude(-base.tag.node.frontend.rf_switch.isolation_db);
}

void BiScatterNetwork::calibrate_all() {
  // Every tag shares the network's alphabet and ADC rate: one batch.
  std::vector<tag::TagNode*> nodes;
  std::vector<double> amplitudes;
  for (auto& tag : tags_) {
    nodes.push_back(&tag->node);
    amplitudes.push_back(
        incident_paths_for(tag->config, tag->config.calibration_range_m)
            .front()
            .amplitude_v);
  }
  tag::TagNode::calibrate_batch(nodes, amplitudes, pool_);
}

std::vector<DownlinkDelivery> BiScatterNetwork::send_downlink(
    std::uint8_t address, const phy::Bits& payload) {
  BIS_TRACE_SPAN("core.network_downlink");

  // The same over-the-air packet reaches every tag: build the frame (packet
  // → CSSK chirps → absorptive flags) once and reuse it for all of them.
  phy::PacketConfig pkt = config_.base.packet;
  pkt.tag_address = address;
  const phy::DownlinkPacket packet(pkt, payload);
  const auto frame = packet.to_frame(alphabet_);
  const std::vector<rf::ChirpParams>& chirps = frame.chirps();
  if (chirps.size() > flags_capacity_) {
    flags_.reset(new bool[chirps.size()]);
    flags_capacity_ = chirps.size();
  }
  std::fill_n(flags_.get(), chirps.size(), true);
  const std::span<const bool> flags(flags_.get(), chirps.size());

  std::vector<DownlinkDelivery> out;
  out.reserve(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    // Each tag simulates its own propagation and decoding of the broadcast.
    auto& tag = *tags_[i];
    const auto paths = incident_paths_for(tag.config, tag.config.tag_range_m);
    tag.node.frontend().auto_gain(paths);
    dsp::RVec stream;
    {
      obs::StageTimer timer(obs::Stage::kTagFrontend);
      stream = tag.node.frontend().receive_frame(chirps, paths, flags);
    }
    tag::TagNode::DownlinkReception rx;
    {
      obs::StageTimer timer(obs::Stage::kTagDecode);
      rx = tag.node.receive_downlink(stream, pkt);
    }

    DownlinkDelivery d;
    d.address = config_.tags[i].address;
    d.locked = rx.decode.locked;
    d.crc_ok = rx.packet.crc_ok;
    d.address_match = rx.packet.address_match && rx.packet.crc_ok && d.locked;
    if (d.address_match) d.payload = rx.packet.payload;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<TagObservation> BiScatterNetwork::sense_all(bool downlink_active) {
  BIS_TRACE_SPAN("core.network_sense");
  const auto& base = config_.base;

  // Per-chirp schedule: every tag beacons at its own frequency.
  const std::size_t n_chirps = config_.frame_chirps;
  draw_sensing_chirps(alphabet_, n_chirps, downlink_active, rng_, chirps_);
  radar::IfSynthesizer synth(base.radar.if_synth, rng_.fork());

  // Synthesis stays sequential (single RNG stream); the frame DSP below
  // fans across the pool with bit-identical results.
  frame_.if_samples.resize(n_chirps);
  {
    obs::StageTimer timer(obs::Stage::kIfSynthesis);
    synthesize_beacons(synth, chirps_, base.radar.chirp_period_s, beacons_,
                       reflect_, leak_, returns_, frame_.if_samples);
  }
  {
    obs::StageTimer timer(obs::Stage::kRangeFft);
    chain_.range_fft(chirps_, frame_, pool_);
  }
  {
    obs::StageTimer timer(obs::Stage::kIfCorrection);
    chain_.if_correct(frame_, pool_);
  }

  // One batched pass scores every tag against the shared spectra —
  // decision- and score-identical to a per-tag sequential detect loop.
  detections_.resize(targets_.size());
  {
    obs::StageTimer timer(obs::Stage::kDetect);
    detector_.detect_many(frame_.aligned, targets_, detections_, pool_);
  }

  std::vector<TagObservation> out;
  out.reserve(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const radar::TagDetection& det = detections_[i];
    TagObservation obs;
    obs.address = config_.tags[i].address;
    obs.detected = det.found;
    obs.range_m = det.range_m;
    obs.range_error_m = std::abs(det.range_m - config_.tags[i].range_m);
    obs.snr_db = det.snr_db;
    out.push_back(obs);
  }
  return out;
}

}  // namespace bis::core
