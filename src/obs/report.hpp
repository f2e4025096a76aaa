#pragma once

/// @file report.hpp
/// Per-run structured telemetry: a `RunReport` accumulates link-level
/// quantities (frames, chirps, sync/CRC/detection outcomes, bit errors,
/// detector SNR) plus DSP-cache and per-stage-time observations, and dumps
/// them as one JSON object keyed by the system configuration. LinkSimulator,
/// BiScatterNetwork and InventoryEngine each own one and expose `report()` /
/// `report_json()`.
///
/// The outcome counters are plain integers updated from the (sequential)
/// run_* methods — always on, effectively free. `StageTimer` is the one way
/// a stage is timed: gated by `obs::enabled()`, it adds to the report's
/// StageTimes and to the stage's process-wide `bis.stage.<name>_ns` latency
/// histogram, so the disabled cost is one relaxed load per stage per frame.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace bis::obs {

class LatencyHistogram;

/// The timed stages. Each but kUplinkFrame accumulates into the StageTimes
/// field of the same name; kUplinkFrame (one whole
/// LinkSimulator::run_uplink frame, prepare through fold) has only its
/// histogram.
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

/// Accumulated wall time per pipeline stage, seconds.
struct StageTimes {
  double if_synthesis_s = 0.0;
  double range_fft_s = 0.0;
  double if_correction_s = 0.0;  ///< Regrid + background subtraction
                                 ///< (ReceiveChain::if_correct).
  double detect_s = 0.0;
  double uplink_decode_s = 0.0;
  double tag_frontend_s = 0.0;
  double tag_decode_s = 0.0;
};

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
  std::uint64_t crc_attempts = 0;
  std::uint64_t crc_passes = 0;
  std::uint64_t downlink_bits = 0;
  std::uint64_t downlink_bit_errors = 0;

  // Uplink / sensing outcomes.
  std::uint64_t detection_attempts = 0;
  std::uint64_t detections = 0;
  std::uint64_t mod_freq_collisions = 0;  ///< Multi-tag sensing: assigned-
                                          ///< frequency pairs closer than the
                                          ///< slow-time FFT resolution,
                                          ///< summed per frame (see
                                          ///< core::count_mod_freq_collisions).
  std::uint64_t uplink_bits = 0;
  std::uint64_t uplink_bit_errors = 0;
  double detector_snr_sum_db = 0.0;  ///< Over detection attempts.
  double last_detector_snr_db = 0.0;

  // Inventory (Gen2-style slotted MAC) outcomes — accumulated per round by
  // core::InventoryEngine. Like mod_freq_collisions these merge additively
  // and stay OUT of outcome_key(): the engine's own round records are the
  // parity-gated outcome, the report is observability.
  std::uint64_t inventory_rounds = 0;
  std::uint64_t inventory_slots = 0;       ///< Slots scheduled across rounds.
  std::uint64_t inventory_singletons = 0;  ///< Slots with one responder.
  std::uint64_t inventory_collisions = 0;  ///< Slots with ≥2 responders.
  std::uint64_t inventory_idles = 0;       ///< Slots nobody answered.
  std::uint64_t inventory_reads = 0;       ///< Tags successfully inventoried.

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
                                         ///< added (complex counts 2/sample).

  StageTimes stage;

  double sync_lock_rate() const;
  double crc_pass_rate() const;
  double downlink_ber() const;
  double uplink_ber() const;
  double mean_detector_snr_db() const;

  /// Fold another report into this one: counters, bit totals, SNR sums, and
  /// stage times add; cache-size snapshots (plans, window entries) take the
  /// max; `config` keeps this report's key when set, else adopts the
  /// other's. SweepRunner uses this to aggregate per-point reports into one
  /// sweep-level report.
  void merge(const RunReport& other);

  /// One JSON object with every field above plus the derived rates.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Append the same JSON object (compact) to @p out through the
  /// common::JsonWriter string path — no ostringstream. Aggregators dumping
  /// many reports (BiScatterNetwork::report_json over thousands of links)
  /// reserve one string and append every report into it.
  void append_json(std::string& out) const;

  /// Deterministic digest of the *outcome* fields only: frame/bit/detection
  /// counters and the SNR accumulators (%.17g — bit-exact for doubles).
  /// Excludes wall-clock stage times and process-wide cache deltas, which
  /// legitimately vary run-to-run. Two runs that processed the same frames
  /// in the same per-link order produce equal keys — the streaming engine's
  /// determinism contract is asserted on this string.
  std::string outcome_key() const;
};

/// RAII stopwatch for one stage. When telemetry is enabled (latched at
/// construction) it adds its scope's wall time to @p times' field for
/// @p stage and records it in stage_latency(@p stage); otherwise it is a
/// no-op branch.
class StageTimer {
 public:
  StageTimer(StageTimes& times, Stage stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* accum_s_ = nullptr;  ///< nullptr when off or for kUplinkFrame.
  LatencyHistogram* latency_ = nullptr;  ///< nullptr when telemetry was off
                                         ///< at entry.
  std::uint64_t start_ns_ = 0;
};

}  // namespace bis::obs
