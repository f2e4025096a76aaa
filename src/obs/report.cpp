#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {
namespace {

double rate(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One row per Stage, in enum order (also the stage_seconds JSON order).
struct StageInfo {
  const char* name;
  double StageTimes::*seconds;  ///< nullptr: no StageTimes field.
};
constexpr std::array<StageInfo, kStageCount> kStageInfo = {{
    {"if_synthesis", &StageTimes::if_synthesis_s},
    {"range_fft", &StageTimes::range_fft_s},
    {"if_correction", &StageTimes::if_correction_s},
    {"detect", &StageTimes::detect_s},
    {"uplink_decode", &StageTimes::uplink_decode_s},
    {"tag_frontend", &StageTimes::tag_frontend_s},
    {"tag_decode", &StageTimes::tag_decode_s},
    {"uplink_frame", nullptr},
}};

const StageInfo& info(Stage stage) {
  return kStageInfo[static_cast<std::size_t>(stage)];
}

}  // namespace

const char* stage_name(Stage stage) { return info(stage).name; }

LatencyHistogram& stage_latency(Stage stage) {
  static const std::array<LatencyHistogram*, kStageCount> histograms = [] {
    std::array<LatencyHistogram*, kStageCount> out{};
    for (std::size_t i = 0; i < kStageCount; ++i)
      out[i] = &Registry::instance().latency(
          std::string("bis.stage.") + kStageInfo[i].name + "_ns");
    return out;
  }();
  return *histograms[static_cast<std::size_t>(stage)];
}

double RunReport::sync_lock_rate() const { return rate(sync_locks, sync_attempts); }
double RunReport::crc_pass_rate() const { return rate(crc_passes, crc_attempts); }
double RunReport::downlink_ber() const {
  return rate(downlink_bit_errors, downlink_bits);
}
double RunReport::uplink_ber() const { return rate(uplink_bit_errors, uplink_bits); }
double RunReport::mean_detector_snr_db() const {
  return detection_attempts == 0
             ? 0.0
             : detector_snr_sum_db / static_cast<double>(detection_attempts);
}

void RunReport::merge(const RunReport& other) {
  if (config.empty()) config = other.config;
  downlink_frames += other.downlink_frames;
  uplink_frames += other.uplink_frames;
  integrated_frames += other.integrated_frames;
  chirps_processed += other.chirps_processed;
  sync_attempts += other.sync_attempts;
  sync_locks += other.sync_locks;
  crc_attempts += other.crc_attempts;
  crc_passes += other.crc_passes;
  downlink_bits += other.downlink_bits;
  downlink_bit_errors += other.downlink_bit_errors;
  detection_attempts += other.detection_attempts;
  detections += other.detections;
  mod_freq_collisions += other.mod_freq_collisions;
  uplink_bits += other.uplink_bits;
  uplink_bit_errors += other.uplink_bit_errors;
  inventory_rounds += other.inventory_rounds;
  inventory_slots += other.inventory_slots;
  inventory_singletons += other.inventory_singletons;
  inventory_collisions += other.inventory_collisions;
  inventory_idles += other.inventory_idles;
  inventory_reads += other.inventory_reads;
  detector_snr_sum_db += other.detector_snr_sum_db;
  last_detector_snr_db = other.last_detector_snr_db;
  fft_plan_hits += other.fft_plan_hits;
  fft_plan_misses += other.fft_plan_misses;
  fft_plans = std::max(fft_plans, other.fft_plans);
  window_cache_entries = std::max(window_cache_entries, other.window_cache_entries);
  regrid_plan_hits += other.regrid_plan_hits;
  regrid_plan_misses += other.regrid_plan_misses;
  regrid_plans = std::max(regrid_plans, other.regrid_plans);
  awgn_samples += other.awgn_samples;
  for (const StageInfo& s : kStageInfo)
    if (s.seconds != nullptr) stage.*s.seconds += other.stage.*s.seconds;
}

void RunReport::append_json(std::string& out) const {
  // Rates/SNRs can be NaN (no attempts yet) or ±Inf (zero-noise SNR); the
  // writer maps non-finite doubles to null so the report always parses.
  JsonWriter w(out);
  w.begin_object();
  w.key("config").value(config);
  w.key("frames").begin_object();
  w.key("downlink").value(downlink_frames);
  w.key("uplink").value(uplink_frames);
  w.key("integrated").value(integrated_frames);
  w.end_object();
  w.key("chirps_processed").value(chirps_processed);
  w.key("downlink").begin_object();
  w.key("sync_attempts").value(sync_attempts);
  w.key("sync_locks").value(sync_locks);
  w.key("sync_lock_rate").value(sync_lock_rate());
  w.key("crc_attempts").value(crc_attempts);
  w.key("crc_passes").value(crc_passes);
  w.key("crc_pass_rate").value(crc_pass_rate());
  w.key("bits").value(downlink_bits);
  w.key("bit_errors").value(downlink_bit_errors);
  w.key("ber").value(downlink_ber());
  w.end_object();
  w.key("uplink").begin_object();
  w.key("detection_attempts").value(detection_attempts);
  w.key("detections").value(detections);
  w.key("mod_freq_collisions").value(mod_freq_collisions);
  w.key("bits").value(uplink_bits);
  w.key("bit_errors").value(uplink_bit_errors);
  w.key("ber").value(uplink_ber());
  w.key("detector_snr_db").value(last_detector_snr_db);
  w.key("mean_detector_snr_db").value(mean_detector_snr_db());
  w.end_object();
  w.key("inventory").begin_object();
  w.key("rounds").value(inventory_rounds);
  w.key("slots").value(inventory_slots);
  w.key("singletons").value(inventory_singletons);
  w.key("collisions").value(inventory_collisions);
  w.key("idles").value(inventory_idles);
  w.key("reads").value(inventory_reads);
  w.key("collision_rate").value(rate(inventory_collisions, inventory_slots));
  w.key("empty_slot_rate").value(rate(inventory_idles, inventory_slots));
  w.end_object();
  w.key("fft_plan_cache").begin_object();
  w.key("hits").value(fft_plan_hits);
  w.key("misses").value(fft_plan_misses);
  w.key("plans").value(fft_plans);
  w.end_object();
  w.key("window_cache_entries").value(window_cache_entries);
  w.key("regrid_plan_cache").begin_object();
  w.key("hits").value(regrid_plan_hits);
  w.key("misses").value(regrid_plan_misses);
  w.key("plans").value(regrid_plans);
  w.end_object();
  w.key("awgn_samples").value(awgn_samples);
  w.key("stage_seconds").begin_object();
  for (const StageInfo& s : kStageInfo)
    if (s.seconds != nullptr) w.key(s.name).value(stage.*s.seconds);
  w.end_object();
  w.end_object();
}

void RunReport::write_json(std::ostream& os) const { os << to_json(); }

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(768);
  append_json(out);
  return out;
}

std::string RunReport::outcome_key() const {
  char snr[64];
  std::snprintf(snr, sizeof snr, "%.17g|%.17g", detector_snr_sum_db,
                last_detector_snr_db);
  std::ostringstream oss;
  oss << downlink_frames << '|' << uplink_frames << '|' << integrated_frames
      << '|' << chirps_processed << '|' << sync_attempts << '|' << sync_locks
      << '|' << crc_attempts << '|' << crc_passes << '|' << downlink_bits
      << '|' << downlink_bit_errors << '|' << detection_attempts << '|'
      << detections << '|' << uplink_bits << '|' << uplink_bit_errors << '|'
      << snr;
  return oss.str();
}

StageTimer::StageTimer(StageTimes& times, Stage stage) {
  if (!enabled()) return;
  const StageInfo& s = info(stage);
  if (s.seconds != nullptr) accum_s_ = &(times.*s.seconds);
  latency_ = &stage_latency(stage);
  start_ns_ = now_ns();
}

StageTimer::~StageTimer() {
  if (latency_ == nullptr) return;
  const std::uint64_t ns = now_ns() - start_ns_;
  if (accum_s_ != nullptr) *accum_s_ += static_cast<double>(ns) / 1e9;
  latency_->record(ns);
}

}  // namespace bis::obs
