#pragma once

/// @file trace.hpp
/// RAII wall-time trace spans for the BiScatter pipeline. A span records
/// {name, thread, nesting depth, start, duration} into a per-thread buffer;
/// the collected events export either as Chrome trace-event JSON (open in
/// chrome://tracing or https://ui.perfetto.dev) or as an aggregated per-name
/// summary.
///
///   void ReceiveChain::range_fft(...) const {
///     BIS_TRACE_SPAN("radar.range_fft");
///     ...
///   }
///
/// Span names must be string literals (or otherwise outlive the trace
/// buffer): events store the pointer, not a copy, keeping the hot path
/// allocation-free. When `obs::enabled()` is false a span is one relaxed
/// atomic load and a branch. Per-thread buffers are bounded
/// (kMaxEventsPerThread); overflow increments a drop counter instead of
/// growing without bound during long Monte-Carlo sweeps.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace bis::obs {

/// One completed span. Times are nanoseconds since the process trace epoch
/// (the first instrumented event).
struct TraceEvent {
  const char* name = nullptr;
  std::uint32_t tid = 0;    ///< Small sequential thread id.
  std::uint32_t depth = 0;  ///< Nesting depth at entry (0 = outermost).
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

namespace detail {
std::uint64_t span_begin();
void span_end(const char* name, std::uint64_t start_ns);
}  // namespace detail

class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(name), active_(enabled()) {
    if (active_) start_ns_ = detail::span_begin();
  }
  ~TraceSpan() {
    if (active_) detail::span_end(name_, start_ns_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  bool active_;  ///< Latched at entry so a mid-span toggle stays balanced.
  std::uint64_t start_ns_ = 0;
};

#define BIS_OBS_CONCAT2(a, b) a##b
#define BIS_OBS_CONCAT(a, b) BIS_OBS_CONCAT2(a, b)

/// Open a trace span covering the rest of the enclosing scope.
#define BIS_TRACE_SPAN(name) \
  ::bis::obs::TraceSpan BIS_OBS_CONCAT(bis_trace_span_, __COUNTER__)(name)

constexpr std::size_t kMaxEventsPerThread = 1u << 20;

/// Snapshot of all completed spans, sorted by (tid, start, longest-first) so
/// a parent precedes its children. Safe to call while other threads trace.
std::vector<TraceEvent> collect_trace();

/// Drop all recorded events and the drop counter (tests/benchmarks).
void clear_trace();

/// Events discarded because a thread buffer hit kMaxEventsPerThread.
std::uint64_t trace_dropped_events();

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace_file(const std::string& path);

/// Per-name aggregate of the recorded spans.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// Aggregated spans sorted by descending total time.
std::vector<SpanStats> trace_summary();

}  // namespace bis::obs
