#pragma once

/// @file metrics.hpp
/// Thread-safe metrics for the BiScatter pipeline: monotonic counters,
/// gauges, and log-bucketed latency histograms with quantile readout, held
/// in a process-wide named registry.
///
/// Naming scheme: `bis.<subsystem>.<metric>[_<unit>]`, e.g.
/// `bis.radar.if_samples_synthesized`, `bis.pool.task_latency_ns`,
/// `bis.stage.detect_ns`. Units are spelled in the suffix so a reader of the
/// JSON dump never has to guess.
///
/// The registry holds only what no run record does (DESIGN §10): latency
/// histograms, work, plan and cache counters, live gauges and sweep
/// progress. A link's outcomes are counted in its obs::RunReport and an
/// inventory round's in its core::InventoryRound, not here.
///
/// Hot-path cost: every update starts with the `obs::enabled()` relaxed
/// load; when telemetry is on, a counter add is one relaxed `fetch_add` on a
/// cache-line-padded shard indexed by thread, a gauge set is one relaxed
/// store, and a latency record is a bit-scan plus two relaxed fetch_adds.
/// Metric objects returned by the registry live for the process lifetime,
/// so the idiomatic pattern is a function-local static:
///
///   static obs::Counter& samples =
///       obs::Registry::instance().counter("bis.radar.if_samples_synthesized");
///   samples.add(n);

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/latency_histogram.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {

/// Monotonic counter. Updates are sharded across cache-line-padded atomics
/// (indexed by a per-thread id) so concurrent `parallel_for` lanes never
/// contend on one cache line; reads sum the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index();
  std::array<Shard, kShards> shards_;
};

/// Last-value gauge (e.g. queue depth, most recent SNR).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Process-wide metric registry. Lookup is mutex-guarded (cold path, once
/// per call site thanks to the function-local-static idiom); the returned
/// references stay valid for the process lifetime.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Fixed-memory log-bucketed histogram (latency_histogram.hpp) over
  /// unsigned integer samples. Spell the unit in the name
  /// (`bis.sweep.point_us`, `bis.radar.detector_snr_cdb`).
  LatencyHistogram& latency(std::string_view name);

  /// Dump every metric as one JSON object: counters/gauges as values,
  /// histograms as {count, sum, mean, p50, p90, p99, p999}. @p pretty selects
  /// multi-line output; pass false for a single-line object suitable for a
  /// JSONL time-series (obs::TelemetrySink).
  void write_json(std::ostream& os, bool pretty) const;
  void write_json(std::ostream& os) const { write_json(os, true); }
  std::string to_json() const;

  /// Prometheus text exposition (format 0.0.4): counters/gauges as single
  /// samples, histograms as summaries with {quantile="…"} labels. Metric
  /// names are sanitized ('.' → '_').
  void write_prometheus(std::ostream& os) const;

  /// Zero every metric, keeping registrations (tests/benchmarks).
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // std::map keeps the JSON dump deterministically sorted by name.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies_;
};

/// Sanitize a metric name for Prometheus exposition: every character outside
/// [a-zA-Z0-9_:] becomes '_' (`bis.pool.task_latency_ns` →
/// `bis_pool_task_latency_ns`).
std::string prometheus_name(std::string_view name);

/// Format a double for Prometheus exposition ("NaN", "+Inf", "-Inf" are
/// valid sample values there, unlike JSON).
std::string prometheus_number(double v);

}  // namespace bis::obs
