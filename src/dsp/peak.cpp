#include "dsp/peak.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bis::dsp {

std::size_t argmax(std::span<const double> xs) {
  BIS_CHECK(!xs.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    if (xs[i] > xs[best]) best = i;
  return best;
}

double parabolic_refine(std::span<const double> xs, std::size_t k) {
  BIS_CHECK(k < xs.size());
  if (k == 0 || k + 1 >= xs.size()) return static_cast<double>(k);
  const double a = xs[k - 1];
  const double b = xs[k];
  const double c = xs[k + 1];
  const double denom = a - 2.0 * b + c;
  if (denom == 0.0) return static_cast<double>(k);
  double delta = 0.5 * (a - c) / denom;
  // A vertex more than half a bin away means the neighbourhood is not a
  // well-formed peak; clamp rather than extrapolate.
  delta = std::clamp(delta, -0.5, 0.5);
  return static_cast<double>(k) + delta;
}

Peak find_peak(std::span<const double> xs) {
  const std::size_t k = argmax(xs);
  return Peak{k, parabolic_refine(xs, k), xs[k]};
}

}  // namespace bis::dsp
