#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/peak.hpp"

namespace bis::dsp {

/// |rfft(x·w zero-padded to n_fft)|² / (Σw)². The window multiply, |·|² and
/// the scale run through the SIMD kernel layer.
RVec periodogram(std::span<const double> x, std::size_t n_fft, WindowType window) {
  BIS_CHECK(!x.empty());
  BIS_CHECK(n_fft >= x.size());
  const auto w = cached_window(window, x.size());
  const double norm = window_sum(*w);
  BIS_CHECK(norm > 0.0);
  RVec out(n_fft / 2 + 1);
  // The windowed, zero-padded input reuses one buffer per thread instead of
  // allocating a temporary per call.
  thread_local RVec buf;
  buf.assign(n_fft, 0.0);
  kernels::kapply_window(x, *w, std::span<double>(buf).first(x.size()));
  const auto spec = rfft(buf);
  kernels::knorm(std::span<const cdouble>(spec).first(out.size()), out);
  kernels::kscale(std::span<double>(out), 1.0 / (norm * norm));
  return out;
}

double estimate_tone_frequency(std::span<const double> x, double fs, double f_lo,
                               double f_hi, std::size_t min_n_fft) {
  BIS_CHECK(fs > 0.0);
  BIS_CHECK(f_lo >= 0.0 && f_hi > f_lo);
  if (x.empty()) return 0.0;
  const std::size_t n_fft = std::max(min_n_fft, next_power_of_two(x.size()) * 4);
  const auto p = periodogram(x, n_fft, WindowType::kHann);
  const double bin_hz = fs / static_cast<double>(n_fft);
  const auto lo = static_cast<std::size_t>(std::ceil(f_lo / bin_hz));
  const auto hi = std::min(static_cast<std::size_t>(std::floor(f_hi / bin_hz)),
                           p.size() - 1);
  if (lo >= hi) return 0.0;
  const std::span<const double> band(p.data() + lo, hi - lo + 1);
  const Peak peak = find_peak(band);
  return (static_cast<double>(lo) + peak.refined_index) * bin_hz;
}

}  // namespace bis::dsp
