#pragma once

/// Shared helpers for the figure-reproduction benches: consistent headers
/// and table/CSV output. Each bench prints the series the corresponding
/// paper figure/table reports (shape reproduction; see EXPERIMENTS.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "dsp/kernels/kernels.hpp"

namespace bench {

/// Host fingerprint recorded as the "host" object of every BENCH_*.json
/// written by the perf harnesses: thread count and the SIMD target the rows
/// were measured under. Numbers recorded under different targets are not
/// comparable, so tools/bench_compare hard-errors when two files carry
/// fingerprints that disagree on simd_target or precision (instead of
/// silently diffing them). Every file records the one numeric path,
/// "double_strict", so all BENCH_*.json files and perfbench's host record
/// keep one schema.
inline std::string host_fingerprint_json() {
  std::string s = "{\"hardware_threads\": ";
  s += std::to_string(std::thread::hardware_concurrency());
  s += ", \"simd_target\": \"";
  s += bis::dsp::kernels::target_name(bis::dsp::kernels::active_target());
  s += "\", \"precision\": \"double_strict\"}";
  return s;
}

/// Stale-recording guard for benches that write BENCH_*.json trajectories
/// with thread-scaling rows. On a host without real parallelism
/// (hardware_concurrency() < 2) every multi-thread row would be recorded
/// "valid": false — a baseline refresh from such a host silently degrades
/// the committed trajectory. Returns true when writing may proceed; when it
/// returns false the caller should exit without writing (the user can
/// override with --force).
inline bool guard_bench_host(const char* bench_name, bool force) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("%s: host fingerprint %s\n", bench_name,
              host_fingerprint_json().c_str());
  if (hw >= 2) return true;
  if (force) {
    std::printf(
        "%s: WARNING: 1-core host — every multi-thread row will be "
        "\"valid\": false (--force given, writing anyway)\n",
        bench_name);
    return true;
  }
  std::fprintf(
      stderr,
      "%s: refusing to write a BENCH_*.json baseline from a 1-core host "
      "(hardware_concurrency=%u): every multi-thread scaling row would be "
      "\"valid\": false. Pass --force to record anyway.\n",
      bench_name, hw);
  return false;
}

inline void banner(const std::string& id, const std::string& what,
                   const std::string& paper_expectation) {
  std::printf("=================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("paper: %s\n", paper_expectation.c_str());
  std::printf("=================================================================\n");
}

inline void print_table(const std::vector<std::string>& columns,
                        const std::vector<std::vector<std::string>>& rows) {
  std::fputs(bis::format_table(columns, rows).c_str(), stdout);
}

/// CSV output directory: set BISCATTER_BENCH_CSV_DIR to enable CSV dumps.
inline const char* csv_dir() { return std::getenv("BISCATTER_BENCH_CSV_DIR"); }

inline void maybe_csv(const std::string& name,
                      const std::vector<std::string>& columns,
                      const std::vector<std::vector<std::string>>& rows) {
  const char* dir = csv_dir();
  if (!dir) return;
  bis::CsvWriter csv(std::string(dir) + "/" + name + ".csv", columns);
  for (const auto& r : rows) csv.row_strings(r);
  std::printf("[csv written: %s/%s.csv]\n", dir, name.c_str());
}

}  // namespace bench
