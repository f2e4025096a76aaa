#include "core/link_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "dsp/window.hpp"
#include "obs/trace.hpp"
#include "rf/noise.hpp"

namespace bis::core {

tag::TagNodeConfig effective_tag_node_config(const SystemConfig& config) {
  tag::TagNodeConfig node = config.tag.node;
  // The uplink cadence must match the radar frame cadence, and the decoder
  // state machine must know the protocol's sync-field length.
  node.uplink.chirp_period_s = config.radar.chirp_period_s;
  node.expected_header_chirps = config.packet.header_chirps;
  node.expected_sync_chirps = config.packet.sync_chirps;
  return node;
}

std::vector<tag::IncidentPath> incident_paths_for(const SystemConfig& config,
                                                  double range_m) {
  const double p_dbm = rf::downlink_power_at_tag_dbm(
      config.radar.rf, config.tag.rf, range_m,
      config.radar.start_frequency_hz + config.radar.bandwidth_hz / 2.0);
  // Peak voltage of a real RF carrier with this power into 1 Ω.
  const double a_los = std::sqrt(2.0 * dbm_to_watts(p_dbm));
  std::vector<tag::IncidentPath> paths;
  paths.push_back({a_los, 0.0, 0.0});
  for (const auto& tap : config.channel.taps) {
    paths.push_back({a_los * db_to_amplitude(tap.relative_gain_db),
                     tap.excess_delay_s, tap.phase_rad});
  }
  return paths;
}

namespace {

radar::TagDetectorConfig make_uplink_detector_config(const phy::UplinkConfig& ul) {
  radar::TagDetectorConfig det_cfg;
  det_cfg.expected_mod_freq_hz = ul.mod_frequencies_hz.front();
  if (ul.scheme == phy::UplinkScheme::kFsk)
    det_cfg.candidate_mod_freqs_hz = ul.mod_frequencies_hz;
  det_cfg.duty_cycle = ul.duty_cycle;
  // FSK hops tones per symbol; integrate detection per block.
  if (ul.scheme == phy::UplinkScheme::kFsk)
    det_cfg.block_chirps = ul.chirps_per_symbol;
  return det_cfg;
}

}  // namespace

void UplinkFrameJob::reset_result() {
  result.detection = radar::TagDetection{};
  result.decode.symbols.clear();
  result.decode.bits.clear();
  result.decode.symbol_confidence.clear();
  result.bit_errors = 0;
  result.bits_compared = 0;
  result.range_error_m = 0.0;
  result.snr_processed_db = 0.0;
  result.snr_per_chirp_db = 0.0;
  result.downlink_active = false;
}

ThreadPool* resolve_dsp_pool(std::size_t dsp_threads,
                             std::unique_ptr<ThreadPool>& owned) {
  owned.reset();
  if (dsp_threads == 1) return nullptr;
  if (dsp_threads == 0) return &global_pool();
  owned = std::make_unique<ThreadPool>(dsp_threads);
  return owned.get();
}

LinkSimulator::LinkSimulator(const SystemConfig& config)
    : LinkSimulator(config, config.make_alphabet()) {}

LinkSimulator::LinkSimulator(const SystemConfig& config,
                             const phy::SlopeAlphabet& shared_alphabet)
    : config_(config),
      alphabet_(shared_alphabet),
      rng_(config.seed),
      tag_(effective_tag_node_config(config), alphabet_, Rng(config.seed ^ 0x7A67ull)),
      range_processor_(radar::RangeProcessorConfig{}),
      aligner_(config.if_correction),
      uplink_detector_(make_uplink_detector_config(tag_.modulator().config())),
      uplink_decoder_(tag_.modulator().config()),
      pool_(resolve_dsp_pool(config.dsp_threads, owned_pool_)) {
  report_.config = config_key(config_);
  cache_baseline_ = CacheBaseline::capture();

  // Scene: tag amplitude from the two-way retro link budget; clutter
  // objects at fixed positions with absolute (range-dependent) returns, so
  // moving the tag changes the tag-to-clutter dynamics realistically.
  const double f_c =
      config_.radar.start_frequency_hz + config_.radar.bandwidth_hz / 2.0;
  scene_.tag_range_m = config_.tag_range_m;
  scene_.tag_amplitude_v =
      std::sqrt(dbm_to_watts(uplink_power_at_radar_dbm(config_.tag_range_m)));
  scene_.has_tag = true;
  for (const auto& spec : radar::Scene::office_clutter_layout()) {
    const double p_dbm = rf::clutter_return_dbm(config_.radar.rf, spec.range_m,
                                                f_c, spec.rcs_offset_db);
    scene_.clutter.push_back(
        {spec.range_m, std::sqrt(dbm_to_watts(p_dbm)), spec.phase_rad});
  }

  // Worst-case per-chirp buffer sizes over the whole alphabet, so job
  // buffers can be reserved once instead of regrowing whenever CSSK happens
  // to draw a longer chirp than a given slot has seen before.
  const double fs = config_.radar.if_synth.sample_rate_hz;
  for (std::size_t slot = 0; slot < alphabet_.slot_count(); ++slot) {
    const auto n = static_cast<std::size_t>(
        std::floor(alphabet_.chirp(slot).duration_s * fs));
    if (n == 0) continue;
    max_chirp_samples_ = std::max(max_chirp_samples_, n);
    max_fft_bins_ =
        std::max(max_fft_bins_, dsp::next_power_of_two(n) *
                                    range_processor_.config().zero_pad_factor);
  }
}

void LinkSimulator::warm_caches() const {
  const double fs = config_.radar.if_synth.sample_rate_hz;
  dsp::CVec silence;
  radar::RangeProfile profile;
  radar::AlignedProfiles aligned;
  for (std::size_t slot = 0; slot < alphabet_.slot_count(); ++slot) {
    const rf::ChirpParams chirp = alphabet_.chirp(slot);
    const auto n = static_cast<std::size_t>(std::floor(chirp.duration_s * fs));
    if (n == 0) continue;
    // A dry range FFT builds this chirp length's window and FFT plan in the
    // shared caches and sizes the calling thread's scratch; aligning the
    // resulting (empty) profile builds the slot's regrid plan against the
    // pinned grid — the exact (axis, grid) key frames will look up, since
    // the axis depends only on the chirp metadata, never the samples.
    silence.assign(n, dsp::cdouble(0.0, 0.0));
    range_processor_.process_into(silence, chirp, fs, profile);
    if (config_.if_correction.enabled)
      aligner_.align_into(std::span<const radar::RangeProfile>(&profile, 1),
                          nullptr, aligned);
  }
}

double LinkSimulator::downlink_power_at_tag_dbm(double range_m) const {
  return rf::downlink_power_at_tag_dbm(
      config_.radar.rf, config_.tag.rf, range_m,
      config_.radar.start_frequency_hz + config_.radar.bandwidth_hz / 2.0);
}

double LinkSimulator::uplink_power_at_radar_dbm(double range_m) const {
  return rf::uplink_power_at_radar_dbm(
      config_.radar.rf, config_.tag.rf, range_m,
      config_.radar.start_frequency_hz + config_.radar.bandwidth_hz / 2.0);
}

std::vector<tag::IncidentPath> LinkSimulator::incident_paths(double range_m) const {
  return incident_paths_for(config_, range_m);
}

double LinkSimulator::downlink_envelope_snr_db(double range_m) const {
  // Tone amplitude of the LoS self-beat at the detector output.
  const double p_dbm = downlink_power_at_tag_dbm(range_m);
  const double a = std::sqrt(2.0 * dbm_to_watts(p_dbm)) *
                   db_to_amplitude(-config_.tag.node.frontend.rf_switch.insertion_loss_db);
  const double a_line = a / std::sqrt(2.0);
  const rf::DelayLinePair line(config_.tag.node.frontend.delay_line);
  const double long_scale = db_to_amplitude(
      -line.insertion_loss_db(config_.radar.start_frequency_hz));
  const double tone = config_.tag.node.frontend.envelope.conversion_gain * a_line *
                      a_line * long_scale;
  const double noise_rms =
      config_.tag.node.frontend.envelope.output_noise_density *
      std::sqrt(config_.tag.node.frontend.adc.sample_rate_hz / 2.0);
  BIS_CHECK(noise_rms > 0.0);
  return to_db((tone * tone / 2.0) / (noise_rms * noise_rms));
}

void LinkSimulator::calibrate_tag() {
  LinkSimulator* const self = this;
  calibrate_tags(std::span<LinkSimulator* const>(&self, 1), nullptr);
}

void LinkSimulator::calibrate_tags(std::span<LinkSimulator* const> sims,
                                   ThreadPool* pool) {
  std::vector<tag::TagNode*> nodes;
  std::vector<double> amplitudes;
  for (LinkSimulator* sim : sims) {
    nodes.push_back(&sim->tag_);
    amplitudes.push_back(
        sim->incident_paths(sim->config_.calibration_range_m).front().amplitude_v);
  }
  tag::TagNode::calibrate_batch(nodes, amplitudes, {}, pool);
}

DownlinkRunResult LinkSimulator::run_downlink(const phy::Bits& payload) {
  BIS_TRACE_SPAN("core.run_downlink");
  const phy::DownlinkPacket packet(config_.packet, payload);
  const auto frame = packet.to_frame(alphabet_);
  const auto paths = incident_paths(config_.tag_range_m);
  tag_.frontend().auto_gain(paths);

  // Sequential downlink mode: the tag stays absorptive for the whole packet.
  const std::vector<rf::ChirpParams>& chirps = frame.chirps();
  std::unique_ptr<bool[]> flags(new bool[frame.size()]);
  std::fill_n(flags.get(), frame.size(), true);
  dsp::RVec stream;
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kTagFrontend);
    stream = tag_.frontend().receive_frame(
        chirps, paths, std::span<const bool>(flags.get(), frame.size()));
  }

  tag::TagNode::DownlinkReception reception;
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kTagDecode);
    reception = tag_.receive_downlink(stream, config_.packet);
  }

  DownlinkRunResult result;
  result.decode = std::move(reception.decode);
  result.parsed = std::move(reception.packet);
  result.locked = result.decode.locked;
  result.crc_ok = result.parsed.crc_ok;
  result.address_match = result.parsed.address_match;

  const auto& sent = packet.framed_bits();
  result.bits_compared = sent.size();
  if (!result.locked) {
    result.bit_errors = sent.size();
  } else {
    const auto& rx = result.decode.bits;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (i >= rx.size() || rx[i] != sent[i]) ++result.bit_errors;
    }
  }
  ++report_.downlink_frames;
  record_downlink(result);
  return result;
}

void LinkSimulator::record_downlink(const DownlinkRunResult& result) {
  ++report_.sync_attempts;
  ++report_.crc_attempts;
  if (result.locked) ++report_.sync_locks;
  if (result.crc_ok) ++report_.crc_passes;
  report_.downlink_bits += result.bits_compared;
  report_.downlink_bit_errors += result.bit_errors;
}

void LinkSimulator::chirp_returns_into(double tag_amplitude_factor,
                                       std::vector<radar::IfReturn>& out) const {
  out.clear();
  out.reserve(scene_.clutter.size() + 1);
  for (const auto& c : scene_.clutter)
    out.push_back({c.range_m, c.amplitude_v, c.phase_rad});
  if (scene_.has_tag && tag_amplitude_factor > 0.0) {
    out.push_back({scene_.tag_range_m,
                   scene_.tag_amplitude_v * tag_amplitude_factor,
                   scene_.tag_phase_rad});
  }
}

void LinkSimulator::prepare_uplink_frame(const phy::Bits& bits,
                                         bool downlink_active,
                                         UplinkFrameJob& job) {
  const auto& ul = tag_.modulator().config();
  const std::size_t bps = phy::uplink_bits_per_symbol(ul);
  const std::size_t n_symbols = (bits.size() + bps - 1) / bps;
  BIS_CHECK(n_symbols >= 1);
  const std::size_t n_chirps = n_symbols * ul.chirps_per_symbol;

  job.sent_bits.assign(bits.begin(), bits.end());
  job.downlink_active = downlink_active;
  tag_.modulator().queue_bits(bits);
  tag_.modulator().next_states(n_chirps, job.tag_states);

  job.chirps.clear();
  job.chirps.reserve(n_chirps);
  const std::size_t fixed_slot = alphabet_.slot_for_data(alphabet_.data_symbol_count() / 2);
  for (std::size_t i = 0; i < n_chirps; ++i) {
    const std::size_t slot =
        downlink_active
            ? alphabet_.slot_for_data(rng_.uniform_index(alphabet_.data_symbol_count()))
            : fixed_slot;
    job.chirps.push_back(alphabet_.chirp(slot));
  }

  // Reserve each per-chirp buffer at its alphabet-wide worst case. CSSK
  // varies the chirp duration, so without this a job slot keeps reallocating
  // every time position i draws a longer chirp than it has ever held — a
  // coupon-collector process that would take unboundedly many frames to
  // quiesce. After this, steady-state frames allocate nothing.
  job.if_samples.resize(n_chirps);
  for (auto& s : job.if_samples) s.reserve(max_chirp_samples_);
  job.profiles.resize(n_chirps);
  for (auto& p : job.profiles) p.bins.reserve(max_fft_bins_);
}

void LinkSimulator::stage_synthesize(UplinkFrameJob& job) {
  BIS_CHECK(job.chirps.size() == job.tag_states.size());
  // Synthesis stays sequential within a frame: the synthesizer draws noise
  // from one RNG stream whose consumption order must not depend on thread
  // count. The downstream DSP (range FFTs, alignment, slow-time scoring) is
  // pure and fans across the pool with bit-identical results.
  radar::IfSynthesizer synth(config_.radar.if_synth, rng_.fork());
  const double reflect =
      db_to_amplitude(-config_.tag.node.frontend.rf_switch.insertion_loss_db);
  const double leak =
      db_to_amplitude(-config_.tag.node.frontend.rf_switch.isolation_db);
  job.if_samples.resize(job.chirps.size());
  double mean_samples = 0.0;
  for (std::size_t i = 0; i < job.chirps.size(); ++i) {
    const double factor = job.tag_states[i] ? reflect : leak;
    chirp_returns_into(factor, job.returns_scratch);
    synth.synthesize_into(job.chirps[i], job.returns_scratch,
                          job.if_samples[i]);
    mean_samples += static_cast<double>(job.if_samples[i].size());
  }
  job.mean_samples = mean_samples / static_cast<double>(job.chirps.size());
}

void LinkSimulator::stage_range_fft(UplinkFrameJob& job, ThreadPool* pool) const {
  range_processor_.process_frame_into(job.if_samples, job.chirps,
                                      config_.radar.if_synth.sample_rate_hz,
                                      pool, job.profiles);
}

void LinkSimulator::stage_if_correct(UplinkFrameJob& job, ThreadPool* pool) const {
  aligner_.align_into(job.profiles, pool, job.aligned);
  if (config_.use_background_subtraction)
    radar::subtract_background(job.aligned, 0);
}

void LinkSimulator::stage_detect(UplinkFrameJob& job, ThreadPool* pool) const {
  job.result.downlink_active = job.downlink_active;
  job.result.detection = uplink_detector_.detect(job.aligned, pool);
  job.result.snr_processed_db = job.result.detection.snr_db;
  const double gain_db =
      10.0 * std::log10(std::max(job.mean_samples, 1.0)) +
      10.0 * std::log10(static_cast<double>(job.chirps.size()));
  job.result.snr_per_chirp_db = job.result.snr_processed_db - gain_db;
  job.result.bits_compared = job.sent_bits.size();
  job.result.range_error_m =
      std::abs(job.result.detection.range_m - scene_.tag_range_m);
  if (!job.result.detection.found) job.result.bit_errors = job.sent_bits.size();
}

void LinkSimulator::stage_decode(UplinkFrameJob& job) const {
  if (!job.result.detection.found) return;
  const std::size_t block = uplink_decoder_.config().chirps_per_symbol;
  if (job.chirps.size() < block) return;  // frame too short to decode
  uplink_decoder_.decode_into(job.aligned, job.result.detection.grid_bin,
                              job.result.decode);
  for (std::size_t i = 0; i < job.sent_bits.size(); ++i) {
    if (i >= job.result.decode.bits.size() ||
        job.result.decode.bits[i] != job.sent_bits[i])
      ++job.result.bit_errors;
  }
}

void LinkSimulator::fold_uplink_frame(const UplinkFrameJob& job) {
  ++report_.uplink_frames;
  report_.chirps_processed += job.chirps.size();
  ++report_.detection_attempts;
  report_.detector_snr_sum_db += job.result.detection.snr_db;
  report_.last_detector_snr_db = job.result.detection.snr_db;
  if (job.result.detection.found) ++report_.detections;
  report_.uplink_bits += job.sent_bits.size();
  report_.uplink_bit_errors += job.result.bit_errors;
}

void LinkSimulator::run_prepared_frame(UplinkFrameJob& job) {
  BIS_TRACE_SPAN("core.uplink_frame");
  job.reset_result();
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kIfSynthesis);
    stage_synthesize(job);
  }
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kRangeFft);
    stage_range_fft(job, pool_);
  }
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kIfCorrection);
    stage_if_correct(job, pool_);
  }
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kDetect);
    stage_detect(job, pool_);
  }
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kUplinkDecode);
    stage_decode(job);
  }
  fold_uplink_frame(job);
}

UplinkRunResult LinkSimulator::process_uplink_frame(
    const std::vector<rf::ChirpParams>& chirps, const std::vector<int>& tag_states,
    const phy::Bits& sent_bits, bool downlink_active) {
  BIS_CHECK(chirps.size() == tag_states.size());
  seq_job_.sent_bits.assign(sent_bits.begin(), sent_bits.end());
  seq_job_.downlink_active = downlink_active;
  seq_job_.chirps.assign(chirps.begin(), chirps.end());
  seq_job_.tag_states.assign(tag_states.begin(), tag_states.end());
  run_prepared_frame(seq_job_);
  return seq_job_.result;
}

UplinkRunResult LinkSimulator::run_uplink(const phy::Bits& bits, bool downlink_active) {
  return run_uplink(bits, downlink_active, seq_job_);
}

const UplinkRunResult& LinkSimulator::run_uplink(const phy::Bits& bits,
                                                 bool downlink_active,
                                                 UplinkFrameJob& job) {
  obs::StageTimer timer(report_.stage, obs::Stage::kUplinkFrame);
  prepare_uplink_frame(bits, downlink_active, job);
  run_prepared_frame(job);
  return job.result;
}

IsacRunResult LinkSimulator::run_integrated(const phy::Bits& downlink_payload,
                                            const phy::Bits& uplink_bits) {
  BIS_TRACE_SPAN("core.run_integrated");
  ++report_.integrated_frames;
  const phy::DownlinkPacket packet(config_.packet, downlink_payload);
  const auto packet_slots = packet.to_slots(alphabet_);
  const std::size_t preamble =
      config_.packet.header_chirps + config_.packet.sync_chirps;

  const auto& ul = tag_.modulator().config();
  tag_.modulator().queue_bits(uplink_bits);

  // Build the integrated schedule: the preamble occupies every chirp; each
  // payload symbol goes out on the next chirp the tag will absorb (the radar
  // assigned the modulation pattern, so it knows the schedule); reflective
  // chirps repeat the previous slot as sensing filler the tag never sees.
  std::vector<rf::ChirpParams> chirps;
  std::vector<int> states;
  std::size_t emitted_preamble = 0;
  std::size_t next_symbol = preamble;  // index into packet_slots
  std::size_t last_slot = alphabet_.header_slot();
  bool started = false;
  while (!started || emitted_preamble < preamble ||
         next_symbol < packet_slots.size()) {
    const int state = tag_.modulator().next_states(1).front();
    states.push_back(state);
    std::size_t slot;
    if (!started) {
      // Delay the frame start until a chirp the tag will absorb, so the
      // first header chirp is guaranteed visible (the tag's period-indexed
      // framing anchors on it).
      if (state == 0) {
        started = true;
        slot = packet_slots[emitted_preamble++];
      } else {
        slot = last_slot;  // pre-frame sensing chirp the tag won't see
      }
    } else if (emitted_preamble < preamble) {
      slot = packet_slots[emitted_preamble++];
    } else if (state == 0 && next_symbol < packet_slots.size()) {
      slot = packet_slots[next_symbol++];
    } else {
      slot = last_slot;  // sensing filler on a reflective chirp
    }
    last_slot = slot;
    chirps.push_back(alphabet_.chirp(slot));
    BIS_CHECK_MSG(chirps.size() < 100000, "integrated schedule failed to place payload");
  }

  // --- Tag side: decode the downlink from the absorptive chirps. ---
  const auto paths = incident_paths(config_.tag_range_m);
  tag_.frontend().auto_gain(paths);
  std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
  for (std::size_t i = 0; i < chirps.size(); ++i) flags[i] = states[i] == 0;
  dsp::RVec stream;
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kTagFrontend);
    stream = tag_.frontend().receive_frame(
        chirps, paths, std::span<const bool>(flags.get(), chirps.size()));
  }
  const std::vector<bool> mask(flags.get(), flags.get() + chirps.size());
  tag::TagNode::DownlinkReception reception;
  {
    obs::StageTimer timer(report_.stage, obs::Stage::kTagDecode);
    reception = tag_.receive_downlink(stream, config_.packet, mask);
  }

  IsacRunResult result;
  result.downlink.decode = std::move(reception.decode);
  result.downlink.parsed = std::move(reception.packet);
  result.downlink.locked = result.downlink.decode.locked;
  result.downlink.crc_ok = result.downlink.parsed.crc_ok;
  result.downlink.address_match = result.downlink.parsed.address_match;
  const auto& sent = packet.framed_bits();
  result.downlink.bits_compared = sent.size();
  if (result.downlink.locked) {
    const auto& rx = result.downlink.decode.bits;
    for (std::size_t i = 0; i < sent.size(); ++i)
      if (i >= rx.size() || rx[i] != sent[i]) ++result.downlink.bit_errors;
  } else {
    result.downlink.bit_errors = sent.size();
  }
  record_downlink(result.downlink);

  // --- Radar side: sensing + uplink decoding over the same frame. ---
  const std::size_t block = ul.chirps_per_symbol;
  const std::size_t usable_symbols = chirps.size() / block;
  const std::size_t bps = phy::uplink_bits_per_symbol(ul);
  phy::Bits comparable(
      uplink_bits.begin(),
      uplink_bits.begin() +
          static_cast<long>(std::min(uplink_bits.size(), usable_symbols * bps)));
  result.uplink = process_uplink_frame(chirps, states, comparable,
                                       /*downlink_active=*/true);
  return result;
}

CacheBaseline CacheBaseline::capture() {
  const auto fft_stats = dsp::fft_plan_cache_stats();
  const auto regrid_stats = dsp::regrid_plan_cache_stats();
  return {fft_stats.hits, fft_stats.misses, regrid_stats.hits,
          regrid_stats.misses, rf::awgn_samples_added()};
}

void CacheBaseline::fill(obs::RunReport& report) const {
  // The caches are process-wide; the delta since the owner's baseline
  // attributes warm-up misses and steady-state hits to this run.
  // (Concurrent engines fold each other's transforms into the delta —
  // acceptable for a run report, exact for the common one-engine case.)
  const auto fft_stats = dsp::fft_plan_cache_stats();
  report.fft_plan_hits = fft_stats.hits - fft_hits;
  report.fft_plan_misses = fft_stats.misses - fft_misses;
  report.fft_plans = fft_stats.plans;
  report.window_cache_entries = dsp::window_cache_size();
  const auto regrid_stats = dsp::regrid_plan_cache_stats();
  report.regrid_plan_hits = regrid_stats.hits - regrid_hits;
  report.regrid_plan_misses = regrid_stats.misses - regrid_misses;
  report.regrid_plans = regrid_stats.plans;
  report.awgn_samples = rf::awgn_samples_added() - awgn_samples;
}

obs::RunReport LinkSimulator::report() const {
  obs::RunReport out = report_;
  cache_baseline_.fill(out);
  return out;
}

std::string LinkSimulator::report_json() const { return report().to_json(); }

void LinkSimulator::reset_report() {
  report_ = obs::RunReport{};
  report_.config = config_key(config_);
  cache_baseline_ = CacheBaseline::capture();
}

}  // namespace bis::core
