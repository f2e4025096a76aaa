#pragma once

/// @file report.hpp
/// Per-run structured telemetry: a `RunReport` holds one link's outcomes
/// (frames, chirps, sync/CRC/detection outcomes, bit errors, detector SNR)
/// plus the DSP-cache and noise activity of its run, and dumps them as one
/// JSON object keyed by the system configuration. Each LinkSimulator owns
/// one and exposes `report()`; LinkServer links, the sweep and
/// `outcome_key()` all read that one record.
///
/// One count per outcome (DESIGN §10): a link's outcomes live in its
/// RunReport, an inventory round's in its core::InventoryRound, a network
/// call's in the DownlinkDelivery or TagObservation it returns, and a
/// stage's time in its `bis.stage.<stage>_ns` histogram. The outcome
/// counters are plain integers updated from the (sequential) run_* methods
/// — always on, effectively free. `StageTimer` is the one way a stage is
/// timed: gated by `obs::enabled()`, it records into the stage's
/// process-wide histogram, so the disabled cost is one relaxed load per
/// stage per frame.

#include <cstddef>
#include <cstdint>
#include <string>

namespace bis::obs {

class LatencyHistogram;

/// The timed stages; kUplinkFrame is one whole LinkSimulator::run_uplink
/// frame, prepare through fold.
enum class Stage : std::uint8_t {
  kIfSynthesis,
  kRangeFft,
  kIfCorrection,
  kDetect,
  kUplinkDecode,
  kTagFrontend,
  kTagDecode,
  kUplinkFrame,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kUplinkFrame) + 1;

/// "if_synthesis", "range_fft", …, "uplink_frame".
const char* stage_name(Stage stage);

/// The process-wide `bis.stage.<name>_ns` histogram of @p stage. All of
/// them are resolved from the Registry on the first call, so later calls
/// never take the Registry mutex.
LatencyHistogram& stage_latency(Stage stage);

struct RunReport {
  std::string config;  ///< Configuration key (core::config_key).

  // Frames and chirps through the pipeline.
  std::uint64_t downlink_frames = 0;
  std::uint64_t uplink_frames = 0;
  std::uint64_t integrated_frames = 0;
  std::uint64_t chirps_processed = 0;  ///< Radar-side chirps (range FFTs).

  // Downlink outcomes.
  std::uint64_t sync_attempts = 0;
  std::uint64_t sync_locks = 0;
  std::uint64_t crc_passes = 0;  ///< Of sync_attempts.
  std::uint64_t downlink_bits = 0;
  std::uint64_t downlink_bit_errors = 0;

  // Uplink / sensing outcomes: one detection attempt per uplink frame.
  std::uint64_t detections = 0;
  std::uint64_t uplink_bits = 0;
  std::uint64_t uplink_bit_errors = 0;
  double detector_snr_sum_db = 0.0;  ///< Over every uplink frame, found or
                                     ///< not.
  double last_detector_snr_db = 0.0;

  // DSP-cache activity attributable to this run (deltas since the owner was
  // constructed, captured at report time).
  std::uint64_t fft_plan_hits = 0;
  std::uint64_t fft_plan_misses = 0;
  std::uint64_t fft_plans = 0;           ///< Distinct sizes currently cached.
  std::uint64_t window_cache_entries = 0;
  std::uint64_t regrid_plan_hits = 0;    ///< IF-correction stencil cache.
  std::uint64_t regrid_plan_misses = 0;
  std::uint64_t regrid_plans = 0;        ///< Distinct (axis, grid) pairs.
  std::uint64_t awgn_samples = 0;        ///< Batched Gaussian noise samples
                                         ///< added (complex counts 2/sample;
                                         ///< a delta of
                                         ///< rf::awgn_samples_added).

  double sync_lock_rate() const;
  double crc_pass_rate() const;
  double downlink_ber() const;
  double uplink_ber() const;
  double mean_detector_snr_db() const;

  /// Fold another report into this one: counters, bit totals and SNR sums
  /// add; cache-size snapshots (plans, window entries) take the max;
  /// `config` keeps this report's key when set, else adopts the other's.
  /// SweepRunner uses this to merge its points' reports in grid order.
  void merge(const RunReport& other);

  /// One compact JSON object (common::JsonWriter) with every field above
  /// plus the derived rates.
  std::string to_json() const;

  /// Deterministic digest of the *outcome* fields only: frame/bit/detection
  /// counters and the SNR accumulators (%.17g — bit-exact for doubles).
  /// Excludes the process-wide cache and noise deltas, which legitimately
  /// vary run-to-run. Two runs that processed the same frames in the same
  /// per-link order produce equal keys — the streaming engine's determinism
  /// contract is asserted on this string.
  std::string outcome_key() const;
};

/// RAII stopwatch for one stage. When telemetry is enabled (latched at
/// construction) it records its scope's wall time in
/// stage_latency(@p stage); otherwise it is a no-op branch.
class StageTimer {
 public:
  explicit StageTimer(Stage stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  LatencyHistogram* latency_ = nullptr;  ///< nullptr when telemetry was off
                                         ///< at entry.
  std::uint64_t start_ns_ = 0;
};

}  // namespace bis::obs
