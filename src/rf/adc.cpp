#include "rf/adc.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/kernels/kernels.hpp"

namespace bis::rf {

Adc::Adc(const AdcConfig& config) : config_(config) {
  BIS_CHECK(config_.sample_rate_hz > 0.0);
  BIS_CHECK(config_.bits >= 1 && config_.bits <= 32);
  BIS_CHECK(config_.full_scale > 0.0);
  levels_ = std::pow(2.0, static_cast<double>(config_.bits));
  lsb_ = 2.0 * config_.full_scale / levels_;
}

double Adc::quantize(double x) const {
  const double clipped = std::clamp(x, -config_.full_scale, config_.full_scale);
  const double code = std::round(clipped / lsb_);
  const double max_code = levels_ / 2.0 - 1.0;
  const double bounded = std::clamp(code, -levels_ / 2.0, max_code);
  return bounded * lsb_;
}

void Adc::quantize(std::span<double> x) const {
  dsp::kernels::kquantize(x, config_.full_scale, lsb_, -levels_ / 2.0,
                          levels_ / 2.0 - 1.0);
}

std::size_t Adc::samples_for(double duration_s) const {
  BIS_CHECK(duration_s >= 0.0);
  // Round: a floor() here would make a 59.99999-sample period contribute 59
  // samples and systematically shorten multi-chirp captures.
  return static_cast<std::size_t>(std::llround(duration_s * config_.sample_rate_hz));
}

}  // namespace bis::rf
