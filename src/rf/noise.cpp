#include "rf/noise.hpp"

#include <atomic>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"
#include "obs/metrics.hpp"

namespace bis::rf {
namespace {

std::atomic<std::uint64_t> g_awgn_samples{0};

void record_awgn(std::size_t n) {
  g_awgn_samples.fetch_add(n, std::memory_order_relaxed);
  static obs::Counter& samples =
      obs::Registry::instance().counter("bis.rf.awgn_samples");
  samples.add(n);
}

/// Add sigma-scaled ziggurat deviates to @p x through a stack chunk buffer:
/// one fill_gaussian call per chunk instead of one Box–Muller call (log,
/// sqrt, sin, cos) per sample.
void add_awgn_batched(std::span<double> x, double sigma, Rng& rng) {
  constexpr std::size_t kChunk = 512;
  double buf[kChunk];
  std::size_t done = 0;
  while (done < x.size()) {
    const std::size_t n = std::min(kChunk, x.size() - done);
    rng.fill_gaussian(std::span<double>(buf, n));
    // y += sigma·deviate through the SIMD kernel layer (bit-identical to the
    // scalar loop this replaces).
    dsp::kernels::kaxpy(sigma, std::span<const double>(buf, n),
                        x.subspan(done, n));
    done += n;
  }
}

}  // namespace

void add_awgn(std::span<double> x, double sigma, Rng& rng) {
  BIS_CHECK(sigma >= 0.0);
  if (sigma == 0.0 || x.empty()) return;
  add_awgn_batched(x, sigma, rng);
  record_awgn(x.size());
}

void add_awgn(std::span<bis::dsp::cdouble> x, double sigma_per_component, Rng& rng) {
  BIS_CHECK(sigma_per_component >= 0.0);
  if (sigma_per_component == 0.0 || x.empty()) return;
  // std::complex<double> is array-compatible with double[2] (real, imag), so
  // the complex buffer is one 2N-sample real fill; the per-component draw
  // order (re, im, re, im, …) matches the old per-sample loop.
  add_awgn_batched(
      std::span<double>(reinterpret_cast<double*>(x.data()), 2 * x.size()),
      sigma_per_component, rng);
  record_awgn(2 * x.size());
}

std::uint64_t awgn_samples_added() {
  return g_awgn_samples.load(std::memory_order_relaxed);
}

double sigma_for_tone_snr(double amp, double snr_db) {
  BIS_CHECK(amp >= 0.0);
  const double signal_power = amp * amp / 2.0;
  return std::sqrt(signal_power / from_db(snr_db));
}

PhaseNoise::PhaseNoise(double random_walk_rad_per_sqrt_s, Rng rng)
    : rate_(random_walk_rad_per_sqrt_s), rng_(rng) {
  BIS_CHECK(rate_ >= 0.0);
}

double PhaseNoise::step(double dt) {
  BIS_CHECK(dt >= 0.0);
  if (rate_ > 0.0 && dt > 0.0) phase_ += rng_.gaussian(0.0, rate_ * std::sqrt(dt));
  return phase_;
}

void PhaseNoise::reset() { phase_ = 0.0; }

}  // namespace bis::rf
