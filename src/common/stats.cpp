#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bis {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  BIS_CHECK(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  BIS_CHECK(n_ > 0);
  return max_;
}

double mean(std::span<const double> xs) {
  BIS_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double pct) {
  BIS_CHECK(!xs.empty());
  BIS_CHECK(pct >= 0.0 && pct <= 100.0);
  // Per-thread selection buffer: percentile/median sit on the detector's
  // per-bin hot path, so repeated calls must not allocate once capacity is
  // warm.
  thread_local std::vector<double> buf;
  buf.assign(xs.begin(), xs.end());
  if (buf.size() == 1) return buf.front();
  const double pos = pct / 100.0 * static_cast<double>(buf.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  // Selection, not a sort: nth_element puts the lo-th order statistic in
  // place with every value after it no smaller, so the next order statistic
  // is the minimum of that tail — the two values a sorted copy would index.
  const auto nth = buf.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(buf.begin(), nth, buf.end());
  const double hi =
      nth + 1 == buf.end() ? *nth : *std::min_element(nth + 1, buf.end());
  return *nth * (1.0 - frac) + hi * frac;
}

double rms(std::span<const double> xs) {
  BIS_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x * x;
  return std::sqrt(sum / static_cast<double>(xs.size()));
}

}  // namespace bis
