#pragma once

/// @file telemetry.hpp
/// Process-wide telemetry master switch for the `bis::obs` subsystem. Every
/// hot-path instrumentation point (trace spans, metric updates) first checks
/// `obs::enabled()`; when the switch is off the cost is one relaxed atomic
/// load and a predictable branch — verified by the telemetry-overhead
/// guardrail in `bench_dsp_kernels` (BENCH_dsp.json `telemetry_overhead`).
///
/// The switch is the process's one runtime setting, turned on by either
///   - `obs::set_enabled(true)` (or constructing an obs::TelemetrySink), or
///   - the `BIS_TRACE` environment variable at process start:
///       BIS_TRACE=1           enable telemetry
///       BIS_TRACE=trace.json  enable telemetry and write a Chrome-trace
///                             JSON (chrome://tracing) to that path at exit;
///                             `%p` in the path expands to the pid, so
///                             concurrent processes write distinct files
///       BIS_TRACE=0 / unset   leave it off
///
/// `now_ns()` is the one clock: every duration the library records (stage
/// timers, trace spans, pool task latency, sweep points, inventory rounds)
/// is a difference of two of its readings.

#include <atomic>
#include <chrono>
#include <cstdint>

namespace bis::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Hot-path check: relaxed load + branch; safe from any thread.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds (std::chrono::steady_clock since its epoch).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Flip the process-wide switch (thread-safe, takes effect immediately;
/// spans already open stay consistent — activation is latched per span).
void set_enabled(bool on);

}  // namespace bis::obs
