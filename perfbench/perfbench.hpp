#pragma once

/// @file perfbench.hpp
/// Shared declarations of the BiScatter benchmark: run options, the metric
/// tables, and the per-workload result every workload fills.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of (seed, salt): every workload input is a pure function of
/// the run's --seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured phase.
  bool trace = false;     ///< Traced run: per-layer metrics.
};

/// Threads any workload may keep busy at once.
inline constexpr std::size_t kThreads = 4;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run. items_per_s counts uplink frames
/// (link_server), inventoried tags (inventory) or simulated downlink bits
/// (ber_sweep).
inline constexpr MetricDef kEndToEnd[] = {
    {"items_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Printed by every traced run. A layer the workload never calls reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"synthesize.us_per_frame", "us"},
    {"range_fft.us_per_frame", "us"},
    {"if_correct.us_per_frame", "us"},
    {"detect.us_per_frame", "us"},
    {"decode.us_per_frame", "us"},
    {"link_server.scaling_eff", "ratio"},
    {"link_server.rt_links", "links"},
    {"inventory.round_ms", "ms"},
    {"slot_frame.ms_per_batch", "ms"},
    {"detect_slots.ms_per_batch", "ms"},
    {"mac.self_frac", "ratio"},
    {"mac.rounds", "count"},
    {"mac.reads_per_slot", "ratio"},
    {"mac.collision_frac", "ratio"},
    {"mac.empty_rounds", "count"},
    {"tag_frontend.us_per_packet", "us"},
    {"tag_decode.us_per_packet", "us"},
    {"sweep.pool_eff", "ratio"},
    {"sweep.point_imbalance", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

struct MetricValue {
  std::string name;
  Summary summary;
};

/// What one workload run measured and checked.
struct Result {
  std::size_t attempted = 0;  ///< Engine calls made.
  std::size_t failed = 0;     ///< Calls that threw or failed a check.
  bool correct = true;        ///< Every output check passed.
  std::vector<MetricValue> metrics;
  std::vector<Span> spans;    ///< Traced runs only.

  void add(std::string name, std::vector<double> samples) {
    metrics.push_back({std::move(name), summarize(std::move(samples))});
  }
  /// Record a failed output check.
  void check(bool ok, const char* what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what);
  }
};

Result run_link_server(const Options& options);
Result run_inventory(const Options& options);
Result run_ber_sweep(const Options& options);

}  // namespace perfbench
