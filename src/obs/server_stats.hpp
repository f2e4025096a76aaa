#pragma once

/// @file server_stats.hpp
/// Per-stage telemetry for the streaming LinkServer (core/link_server.hpp).
/// Lanes on many threads stamp each frame's stage busy times into relaxed
/// atomics; the collector snapshots them into a plain struct for reports
/// and BENCH_server.json.
///
/// Cost model mirrors obs::StageTimer: frame counts are always on (one
/// relaxed RMW each); the nanosecond clock stamps only run while
/// obs::enabled() — with telemetry off a stage record is one relaxed
/// fetch_add and no clock reads.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/latency_histogram.hpp"

namespace bis::obs {

/// The server's per-frame stages, in flow order. Kept in obs (not core) so
/// report tooling needs no dependency on the engine.
enum class ServerStage : std::size_t {
  kSynthesize = 0,
  kRangeFft,
  kIfCorrect,
  kDetect,
  kDecode,
};
inline constexpr std::size_t kServerStages = 5;
const char* server_stage_name(ServerStage stage);

/// Snapshot of one stage's accumulated activity.
struct StageStats {
  std::uint64_t frames = 0;   ///< Frames this stage completed.
  std::uint64_t busy_ns = 0;  ///< Total time spent executing the stage.

  double mean_busy_us() const;
};

/// Lock-free accumulator shared by every lane of one LinkServer. Besides the
/// always-on totals, every record feeds fixed-memory log-bucket latency
/// histograms (service time per stage, plus per-frame service time from
/// prepare to fold), so a live exporter can publish p50/p90/p99/p99.9
/// without sampling bias. Histogram recording shares the obs::enabled()
/// gate — telemetry off keeps the one-fetch_add cost.
class ServerStatsCollector {
 public:
  /// Record one frame's pass through @p stage, @p busy_ns executing. Pass 0
  /// when telemetry is disabled (the frame still counts).
  void record(ServerStage stage, std::uint64_t busy_ns);

  /// Record one frame's service time: prepare start → fold done.
  void record_e2e(std::uint64_t ns) { e2e_ns_.record(ns); }

  /// Monotonic nanosecond stamp, or 0 when telemetry is disabled — feed the
  /// difference of two stamps straight to record().
  static std::uint64_t now_ns();

  StageStats snapshot(ServerStage stage) const;

  /// Latency distributions (nanosecond samples; empty with telemetry off).
  const LatencyHistogram& busy_latency(ServerStage stage) const {
    return busy_ns_[static_cast<std::size_t>(stage)];
  }
  const LatencyHistogram& e2e_latency() const { return e2e_ns_; }

  void reset();

  /// One JSON object: {"synthesize": {"frames": …, "busy_ns": …, "busy_us":
  /// {quantiles}}, …, "e2e_us": {quantiles}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Prometheus text exposition with {stage="…"} labels.
  void write_prometheus(std::ostream& os) const;

 private:
  struct Cell {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  std::array<Cell, kServerStages> cells_;
  std::array<LatencyHistogram, kServerStages> busy_ns_;
  LatencyHistogram e2e_ns_;
};

}  // namespace bis::obs
