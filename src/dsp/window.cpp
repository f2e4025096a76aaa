#include "dsp/window.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "dsp/kernels/kernels.hpp"
#include "obs/metrics.hpp"

namespace bis::dsp {

double bessel_i0(double x) {
  // Power series; converges quickly for the beta range used in practice.
  const double half_x = x / 2.0;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k <= 60; ++k) {
    term *= (half_x / k) * (half_x / k);
    sum += term;
    if (term < 1e-18 * sum) break;
  }
  return sum;
}

RVec make_window(WindowType type, std::size_t n, double kaiser_beta) {
  BIS_CHECK(n > 0);
  RVec w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  switch (type) {
    case WindowType::kRectangular:
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * static_cast<double>(i) / denom);
      break;
    case WindowType::kHamming:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * static_cast<double>(i) / denom);
      break;
    case WindowType::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = kTwoPi * static_cast<double>(i) / denom;
        w[i] = 0.42 - 0.5 * std::cos(t) + 0.08 * std::cos(2.0 * t);
      }
      break;
    case WindowType::kBlackmanHarris:
      for (std::size_t i = 0; i < n; ++i) {
        const double t = kTwoPi * static_cast<double>(i) / denom;
        w[i] = 0.35875 - 0.48829 * std::cos(t) + 0.14128 * std::cos(2.0 * t) -
               0.01168 * std::cos(3.0 * t);
      }
      break;
    case WindowType::kKaiser: {
      BIS_CHECK(kaiser_beta >= 0.0);
      const double i0_beta = bessel_i0(kaiser_beta);
      for (std::size_t i = 0; i < n; ++i) {
        const double r = 2.0 * static_cast<double>(i) / denom - 1.0;
        w[i] = bessel_i0(kaiser_beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / i0_beta;
      }
      break;
    }
  }
  return w;
}

namespace {

/// (type, n, beta) → window. Kaiser is the only type that reads beta, but
/// keying on it unconditionally keeps the lookup branch-free and correct.
using WindowKey = std::tuple<int, std::size_t, double>;

struct WindowCache {
  std::mutex mu;
  std::map<WindowKey, WindowPtr> windows;
};

WindowCache& window_cache() {
  static WindowCache cache;
  return cache;
}

}  // namespace

WindowPtr cached_window(WindowType type, std::size_t n, double kaiser_beta) {
  static obs::Counter& hits =
      obs::Registry::instance().counter("bis.dsp.window_cache_hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("bis.dsp.window_cache_misses");
  const WindowKey key{static_cast<int>(type), n,
                      type == WindowType::kKaiser ? kaiser_beta : 0.0};
  auto& cache = window_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.windows.find(key);
    if (it != cache.windows.end()) {
      hits.add();
      return it->second;
    }
  }
  misses.add();
  // Build outside the lock; a racing builder computes identical values, and
  // the first insert wins so all callers converge on one copy.
  auto w = std::make_shared<const RVec>(make_window(type, n, kaiser_beta));
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.windows.emplace(key, std::move(w)).first->second;
}

std::size_t window_cache_size() {
  auto& cache = window_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.windows.size();
}

void window_cache_clear() {
  auto& cache = window_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.windows.clear();
}

RVec apply_window(std::span<const double> x, std::span<const double> w) {
  BIS_CHECK(x.size() == w.size());
  RVec out(x.size());
  kernels::kapply_window(x, w, out);
  return out;
}

CVec apply_window(std::span<const std::complex<double>> x,
                  std::span<const double> w) {
  BIS_CHECK(x.size() == w.size());
  CVec out(x.size());
  kernels::kapply_window(x, w, out);
  return out;
}

double window_sum(std::span<const double> w) {
  double sum = 0.0;
  for (double v : w) sum += v;
  return sum;
}

double equivalent_noise_bandwidth(std::span<const double> w) {
  BIS_CHECK(!w.empty());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : w) {
    sum += v;
    sum_sq += v * v;
  }
  BIS_CHECK(sum != 0.0);
  return static_cast<double>(w.size()) * sum_sq / (sum * sum);
}

const char* window_name(WindowType type) {
  switch (type) {
    case WindowType::kRectangular: return "rectangular";
    case WindowType::kHann: return "hann";
    case WindowType::kHamming: return "hamming";
    case WindowType::kBlackman: return "blackman";
    case WindowType::kBlackmanHarris: return "blackman-harris";
    case WindowType::kKaiser: return "kaiser";
  }
  return "unknown";
}

}  // namespace bis::dsp
