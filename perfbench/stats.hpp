#pragma once

/// @file stats.hpp
/// Median and quartile helpers for the benchmark's repeated measurements.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median, first and third quartile, and sample count of one metric's
/// repetitions inside a run.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// Median as Python's statistics.median gives it (the mean of the two
/// middle values for an even count). 0 for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them (its
/// default "exclusive" method) — the rule the benchmark's run-to-run spread
/// is judged by. A single sample is its own quartiles.
inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median(v);
  if (v.size() == 1) {
    s.q1 = s.q3 = v.front();
    return s;
  }
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3] = {};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  s.q1 = q[0];
  s.q3 = q[2];
  return s;
}

}  // namespace perfbench
