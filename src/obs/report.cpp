#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {
namespace {

double rate(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One name per Stage, in enum order.
constexpr std::array<const char*, kStageCount> kStageNames = {
    "if_synthesis",  "range_fft",    "if_correction", "detect",
    "uplink_decode", "tag_frontend", "tag_decode",    "uplink_frame",
};

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

LatencyHistogram& stage_latency(Stage stage) {
  static const std::array<LatencyHistogram*, kStageCount> histograms = [] {
    std::array<LatencyHistogram*, kStageCount> out{};
    for (std::size_t i = 0; i < kStageCount; ++i)
      out[i] = &Registry::instance().latency(
          std::string("bis.stage.") + kStageNames[i] + "_ns");
    return out;
  }();
  return *histograms[static_cast<std::size_t>(stage)];
}

double RunReport::sync_lock_rate() const { return rate(sync_locks, sync_attempts); }
double RunReport::crc_pass_rate() const { return rate(crc_passes, sync_attempts); }
double RunReport::downlink_ber() const {
  return rate(downlink_bit_errors, downlink_bits);
}
double RunReport::uplink_ber() const { return rate(uplink_bit_errors, uplink_bits); }
double RunReport::mean_detector_snr_db() const {
  return uplink_frames == 0
             ? 0.0
             : detector_snr_sum_db / static_cast<double>(uplink_frames);
}

void RunReport::merge(const RunReport& other) {
  if (config.empty()) config = other.config;
  downlink_frames += other.downlink_frames;
  uplink_frames += other.uplink_frames;
  integrated_frames += other.integrated_frames;
  chirps_processed += other.chirps_processed;
  sync_attempts += other.sync_attempts;
  sync_locks += other.sync_locks;
  crc_passes += other.crc_passes;
  downlink_bits += other.downlink_bits;
  downlink_bit_errors += other.downlink_bit_errors;
  detections += other.detections;
  uplink_bits += other.uplink_bits;
  uplink_bit_errors += other.uplink_bit_errors;
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
}

std::string RunReport::to_json() const {
  // Rates/SNRs can be NaN (no attempts yet) or ±Inf (zero-noise SNR); the
  // writer maps non-finite doubles to null so the report always parses.
  std::string out;
  out.reserve(768);
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
  w.key("crc_passes").value(crc_passes);
  w.key("crc_pass_rate").value(crc_pass_rate());
  w.key("bits").value(downlink_bits);
  w.key("bit_errors").value(downlink_bit_errors);
  w.key("ber").value(downlink_ber());
  w.end_object();
  w.key("uplink").begin_object();
  w.key("detections").value(detections);
  w.key("bits").value(uplink_bits);
  w.key("bit_errors").value(uplink_bit_errors);
  w.key("ber").value(uplink_ber());
  w.key("detector_snr_db").value(last_detector_snr_db);
  w.key("mean_detector_snr_db").value(mean_detector_snr_db());
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
  w.end_object();
  return out;
}

std::string RunReport::outcome_key() const {
  char snr[64];
  std::snprintf(snr, sizeof snr, "%.17g|%.17g", detector_snr_sum_db,
                last_detector_snr_db);
  std::ostringstream oss;
  oss << downlink_frames << '|' << uplink_frames << '|' << integrated_frames
      << '|' << chirps_processed << '|' << sync_attempts << '|' << sync_locks
      << '|' << crc_passes << '|' << downlink_bits << '|'
      << downlink_bit_errors << '|' << detections << '|' << uplink_bits << '|'
      << uplink_bit_errors << '|' << snr;
  return oss.str();
}

StageTimer::StageTimer(Stage stage) {
  if (!enabled()) return;
  latency_ = &stage_latency(stage);
  start_ns_ = now_ns();
}

StageTimer::~StageTimer() {
  if (latency_ != nullptr) latency_->record(now_ns() - start_ns_);
}

}  // namespace bis::obs
