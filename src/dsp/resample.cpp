#include "dsp/resample.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace bis::dsp {
namespace {

/// Index of the interval [x[i], x[i+1]] containing xq (clamped).
std::size_t find_interval(std::span<const double> x, double xq) {
  if (xq <= x.front()) return 0;
  if (xq >= x.back()) return x.size() - 2;
  const auto it = std::upper_bound(x.begin(), x.end(), xq);
  return static_cast<std::size_t>(std::distance(x.begin(), it)) - 1;
}

}  // namespace

CVec regrid_linear(std::span<const double> x, std::span<const cdouble> y,
                   std::span<const double> xq) {
  BIS_CHECK(x.size() == y.size());
  BIS_CHECK(x.size() >= 2);
  CVec out(xq.size());
  for (std::size_t q = 0; q < xq.size(); ++q) {
    const double v = xq[q];
    if (v <= x.front()) {
      out[q] = y.front();
      continue;
    }
    if (v >= x.back()) {
      out[q] = y.back();
      continue;
    }
    const std::size_t i = find_interval(x, v);
    const double t = (v - x[i]) / (x[i + 1] - x[i]);
    out[q] = y[i] * (1.0 - t) + y[i + 1] * t;
  }
  return out;
}

RegridPlan::RegridPlan(std::span<const double> x, std::span<const double> xq) {
  BIS_CHECK(x.size() >= 2);
  n_source_ = x.size();
  index_.resize(xq.size());
  weight_.resize(xq.size());
  for (std::size_t q = 0; q < xq.size(); ++q) {
    const double v = xq[q];
    if (v <= x.front()) {
      index_[q] = 0;
      weight_[q] = 0.0;
      continue;
    }
    if (v >= x.back()) {
      index_[q] = static_cast<std::uint32_t>(x.size() - 2);
      weight_[q] = 1.0;
      continue;
    }
    const std::size_t i = find_interval(x, v);
    index_[q] = static_cast<std::uint32_t>(i);
    // The exact expression regrid_linear evaluates per bin, so a replay is
    // bit-identical to the searched path.
    weight_[q] = (v - x[i]) / (x[i + 1] - x[i]);
  }
}

void RegridPlan::apply(std::span<const cdouble> y, std::span<cdouble> out) const {
  BIS_CHECK(y.size() == n_source_);
  BIS_CHECK(out.size() == index_.size());
  for (std::size_t q = 0; q < out.size(); ++q) {
    const std::size_t i = index_[q];
    const double t = weight_[q];
    out[q] = y[i] * (1.0 - t) + y[i + 1] * t;
  }
}

namespace {

/// Full-content cache key: bitwise-exact double compare, so NaN payloads and
/// signed zeros never alias distinct axes onto one plan. Owned vectors are
/// built on a miss only; lookups go through the borrowed RegridKeyView below
/// so the hit path never allocates or copies the axes.
struct RegridKey {
  std::vector<double> x;
  std::vector<double> xq;
};

struct RegridKeyView {
  std::span<const double> x;
  std::span<const double> xq;
};

bool spans_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct RegridKeyEq {
  using is_transparent = void;
  static std::span<const double> ax(const RegridKey& k) { return k.x; }
  static std::span<const double> ax(const RegridKeyView& k) { return k.x; }
  static std::span<const double> aq(const RegridKey& k) { return k.xq; }
  static std::span<const double> aq(const RegridKeyView& k) { return k.xq; }

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return spans_equal(ax(a), ax(b)) && spans_equal(aq(a), aq(b));
  }
};

struct RegridKeyHash {
  using is_transparent = void;

  /// FNV-1a over the sizes, endpoints, and a bounded stride of raw double
  /// bits. O(1) per call regardless of axis length — equality still compares
  /// every element, the hash only has to spread buckets.
  static std::uint64_t mix(std::uint64_t h, std::span<const double> v) {
    const auto word = [](double d) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return bits;
    };
    const auto step = [&h](std::uint64_t bits) {
      h = (h ^ bits) * 0x100000001B3ull;
    };
    step(static_cast<std::uint64_t>(v.size()));
    if (v.empty()) return h;
    const std::size_t stride = std::max<std::size_t>(1, v.size() / 16);
    for (std::size_t i = 0; i < v.size(); i += stride) step(word(v[i]));
    step(word(v.back()));
    return h;
  }

  template <typename K>
  std::size_t operator()(const K& k) const {
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = mix(h, RegridKeyEq::ax(k));
    h = mix(h, RegridKeyEq::aq(k));
    return static_cast<std::size_t>(h);
  }
};

class RegridPlanCache {
 public:
  /// Beyond this many plans new pairs are built per call instead of cached,
  /// bounding memory on sweeps that churn through many distinct grids.
  static constexpr std::size_t kMaxPlans = 1024;

  RegridPlanPtr get(std::span<const double> x, std::span<const double> xq) {
    const RegridKeyView view{x, xq};
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = plans_.find(view);
      if (it != plans_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        record(true);
        return it->second;
      }
    }
    auto plan = std::make_shared<const RegridPlan>(x, xq);
    std::lock_guard<std::mutex> lock(mu_);
    // Count at the insert, not at the first lookup: of several lanes that
    // missed the same key, the one whose plan is stored counts the miss and
    // the rest count a hit and share that plan, so the counts do not
    // depend on thread timing.
    if (const auto it = plans_.find(view); it != plans_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      record(true);
      return it->second;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    record(false);
    if (plans_.size() < kMaxPlans) {
      RegridKey key;
      key.x.assign(x.begin(), x.end());
      key.xq.assign(xq.begin(), xq.end());
      plans_.emplace(std::move(key), plan);
    }
    return plan;
  }

  RegridPlanCacheStats stats() const {
    RegridPlanCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    s.plans = plans_.size();
    return s;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

 private:
  static void record(bool hit) {
    static obs::Counter& hits =
        obs::Registry::instance().counter("bis.dsp.regrid_plan_hits");
    static obs::Counter& misses =
        obs::Registry::instance().counter("bis.dsp.regrid_plan_misses");
    (hit ? hits : misses).add();
  }

  mutable std::mutex mu_;
  std::unordered_map<RegridKey, RegridPlanPtr, RegridKeyHash, RegridKeyEq> plans_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

RegridPlanCache& regrid_cache() {
  static RegridPlanCache cache;
  return cache;
}

}  // namespace

RegridPlanPtr cached_regrid_plan(std::span<const double> x,
                                 std::span<const double> xq) {
  return regrid_cache().get(x, xq);
}

RegridPlanCacheStats regrid_plan_cache_stats() { return regrid_cache().stats(); }

void regrid_plan_cache_clear() { regrid_cache().clear(); }

void linspace_into(double start, double stop, std::size_t n,
                   std::vector<double>& out) {
  BIS_CHECK(n >= 2);
  out.resize(n);
  const double step = (stop - start) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = start + step * static_cast<double>(i);
}

std::vector<double> linspace(double start, double stop, std::size_t n) {
  std::vector<double> out;
  linspace_into(start, stop, n, out);
  return out;
}

}  // namespace bis::dsp
