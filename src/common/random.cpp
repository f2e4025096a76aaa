#include "common/random.hpp"

#include <atomic>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace bis {
namespace {

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// ---------------------------------------------------------------------------
// Ziggurat tables (Marsaglia–Tsang, 256 layers) for the standard normal.
// x_[i] is the right edge of layer i (x_[0] is the pseudo-base covering the
// tail), f_[i] = exp(-x_[i]²/2), r_[i] = x_[i+1]/x_[i] is the rectangular
// acceptance threshold. Built once at first use from R alone; the layer area
// V comes from the exact tail integral, so no hard-coded table to mistype.
// ---------------------------------------------------------------------------

constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;  // right edge of layer 1

struct ZigguratTables {
  double x[kZigLayers + 1];
  double f[kZigLayers + 1];
  double ratio[kZigLayers];

  ZigguratTables() {
    const double fr = std::exp(-0.5 * kZigR * kZigR);
    // Layer area: rectangle R·f(R) plus the tail ∫_R^∞ exp(-t²/2) dt.
    const double v =
        kZigR * fr + std::sqrt(kPi / 2.0) * std::erfc(kZigR / std::sqrt(2.0));
    x[0] = v / fr;  // pseudo-base so layer 0 has area v including the tail
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    double fi = fr;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(v / x[i - 1] + fi));
      fi = std::exp(-0.5 * x[i] * x[i]);
    }
    for (int i = 0; i <= kZigLayers; ++i) f[i] = std::exp(-0.5 * x[i] * x[i]);
    for (int i = 0; i < kZigLayers; ++i) ratio[i] = x[i + 1] / x[i];
  }
};

const ZigguratTables& ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

std::atomic<std::uint64_t> g_fill_samples{0};
std::atomic<std::uint64_t> g_fill_calls{0};

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BIS_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  BIS_CHECK(n > 0);
  // Modulo bias is negligible for n << 2^64; keep it simple.
  return next_u64() % n;
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_gaussian_ = r * std::sin(kTwoPi * u2);
  has_cached_gaussian_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::gaussian(double mean, double stddev) {
  BIS_CHECK(stddev >= 0.0);
  return mean + stddev * gaussian();
}

void Rng::fill_gaussian(std::span<double> out) {
  const ZigguratTables& z = ziggurat();
  for (double& dst : out) {
    for (;;) {
      // One draw carries everything in the common case: layer index (bits
      // 0-7), sign (bit 8), and a 53-bit uniform magnitude (bits 11-63).
      const std::uint64_t bits = next_u64();
      const std::size_t i = bits & 0xFFu;
      const double sign = (bits & 0x100u) ? -1.0 : 1.0;
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
      if (u < z.ratio[i]) {  // inside the layer's rectangle (~99% of draws)
        dst = sign * (u * z.x[i]);
        break;
      }
      if (i == 0) {
        // Base layer miss: sample the tail beyond R (Marsaglia's method).
        double xx, yy;
        do {
          xx = -std::log(1.0 - uniform()) / kZigR;
          yy = -std::log(1.0 - uniform());
        } while (yy + yy < xx * xx);
        dst = sign * (kZigR + xx);
        break;
      }
      // Wedge: accept against the density between the layer edges.
      const double v = u * z.x[i];
      if (z.f[i + 1] + uniform() * (z.f[i] - z.f[i + 1]) <
          std::exp(-0.5 * v * v)) {
        dst = sign * v;
        break;
      }
    }
  }
  g_fill_samples.fetch_add(out.size(), std::memory_order_relaxed);
  g_fill_calls.fetch_add(1, std::memory_order_relaxed);
}

void Rng::fill_gaussian(std::span<double> out, double mean, double stddev) {
  BIS_CHECK(stddev >= 0.0);
  fill_gaussian(out);
  for (double& v : out) v = mean + stddev * v;
}

bool Rng::coin() { return (next_u64() & 1ull) != 0; }

std::vector<int> Rng::bits(std::size_t count) {
  std::vector<int> out(count);
  for (auto& b : out) b = coin() ? 1 : 0;
  return out;
}

Rng Rng::fork() { return Rng(next_u64()); }

void Rng::jump() {
  // Canonical xoshiro256** jump polynomial (advances by 2^128 steps).
  static constexpr std::uint64_t kJump[] = {
      0x180EC6D33CFD0ABAull, 0xD5A61266F0C9392Cull, 0xA9582618E03FC9AAull,
      0x39ABDC4529B1661Cull};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ull << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      next_u64();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
  // The Box–Muller cache belongs to the pre-jump stream position.
  has_cached_gaussian_ = false;
}

Rng StreamRng::stream(std::uint64_t index) const {
  Rng r = base_;
  for (std::uint64_t i = 0; i < index; ++i) r.jump();
  return r;
}

GaussianFillStats gaussian_fill_stats() {
  GaussianFillStats s;
  s.samples = g_fill_samples.load(std::memory_order_relaxed);
  s.calls = g_fill_calls.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bis
