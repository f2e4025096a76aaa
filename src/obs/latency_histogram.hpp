#pragma once

/// @file latency_histogram.hpp
/// Fixed-memory, mergeable, log-bucketed histogram — the telemetry
/// pipeline's only distribution type, with a hot path fit for per-frame
/// recording inside the streaming engine:
///   - fixed memory: a flat array of 256 cache-resident atomics covering the
///     full uint64 range on a log2 grid with 4 sub-buckets per octave
///     (bucket width <= 25% of the value — tight enough that interpolated
///     p50/p90/p99/p99.9 land within a quarter-octave of the truth);
///   - lock-free record path: one relaxed load (`obs::enabled()`), a branch,
///     a bit-scan, and two relaxed fetch_adds — no allocation, no CAS loop
///     (the sum is an integer);
///   - mergeable: merge() adds bucket arrays, so per-thread instances fold
///     into one distribution without losing quantile fidelity (log buckets
///     merge exactly; sampled quantiles would not).
///
/// Values are unit-agnostic unsigned integers; callers pick the unit and
/// spell it in the metric name (`..._ns`, `..._us`, `..._cdb`). The stage
/// timers record nanoseconds (obs::stage_latency).

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/telemetry.hpp"

namespace bis::obs {

class LatencyHistogram {
 public:
  /// 2 sub-bucket bits: 4 linear sub-buckets per power of two.
  static constexpr std::uint32_t kSubBits = 2;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;
  /// Buckets 0..3 are exact (value == index); octaves 2..63 contribute
  /// kSubBuckets each: 4 + 62*4 = 252 buckets cover all of uint64.
  static constexpr std::size_t kBuckets = kSubBuckets + (64 - kSubBits) * kSubBuckets;

  /// Bucket index for a value (branch-free after the small-value test).
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const auto octave = static_cast<std::uint32_t>(63 - __builtin_clzll(v));
    const auto sub = static_cast<std::uint32_t>(
        (v >> (octave - kSubBits)) & (kSubBuckets - 1));
    return (octave - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Inclusive lower edge of bucket @p i.
  static std::uint64_t bucket_lower(std::size_t i);
  /// Exclusive upper edge of bucket @p i (saturates at uint64 max).
  static std::uint64_t bucket_upper(std::size_t i);

  /// Record one sample. Same contract as Counter::add: when telemetry is off
  /// the cost is one relaxed load and a predictable branch.
  void record(std::uint64_t v) {
    if (!enabled()) return;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
  /// containing log bucket; 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

  /// Upper edge of the highest non-empty bucket (an upper bound on the
  /// maximum recorded sample); 0 when empty.
  std::uint64_t max_bound() const;

  /// Add @p other's samples into this histogram (bucket-exact: both share
  /// the fixed log grid). Safe against concurrent record() on either side.
  void merge(const LatencyHistogram& other);

  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace bis::obs
