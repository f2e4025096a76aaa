#include "tag/period_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "dsp/peak.hpp"

namespace bis::tag {

PeriodEstimator::PeriodEstimator(const PeriodEstimatorConfig& config) : config_(config) {
  BIS_CHECK(config_.sample_rate_hz > 0.0);
  BIS_CHECK(config_.min_period_s > 0.0);
  BIS_CHECK(config_.max_period_s > config_.min_period_s);
  BIS_CHECK(config_.analysis_periods >= 3);
}

std::optional<double> PeriodEstimator::estimate(const dsp::RVec& stream) const {
  const double fs = config_.sample_rate_hz;
  const auto need = static_cast<std::size_t>(config_.max_period_s * fs *
                                             static_cast<double>(config_.analysis_periods));
  if (stream.size() < static_cast<std::size_t>(config_.max_period_s * fs * 2.0))
    return std::nullopt;
  const std::size_t n = std::min(stream.size(), need);

  // Work on the envelope's energy profile so both the DC burst structure and
  // the in-burst tone contribute.
  dsp::RVec x(stream.begin(), stream.begin() + static_cast<long>(n));
  x = dsp::remove_dc(x);

  // Autocorrelation via FFT (Wiener–Khinchin), zero-padded to avoid
  // circular wraparound. The one-sided power spectrum of a real signal is
  // real and even, so rfft + irfft does the whole round trip at half size.
  const std::size_t n_fft = dsp::next_power_of_two(2 * n);
  auto spec = dsp::rfft_padded(x, n_fft);
  for (auto& v : spec) v = dsp::cdouble(std::norm(v), 0.0);
  auto acf = dsp::irfft(spec, n_fft);
  acf.resize(n);
  if (acf[0] <= 0.0) return std::nullopt;

  const auto lag_min = static_cast<std::size_t>(config_.min_period_s * fs);
  const auto lag_max =
      std::min(static_cast<std::size_t>(config_.max_period_s * fs), n - 1);
  if (lag_min >= lag_max) return std::nullopt;

  // Unbiased normalization so long lags are not penalized.
  dsp::RVec norm_acf(lag_max + 1, 0.0);
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag)
    norm_acf[lag] = acf[lag] / static_cast<double>(n - lag);

  std::size_t best = lag_min;
  for (std::size_t lag = lag_min; lag <= lag_max; ++lag)
    if (norm_acf[lag] > norm_acf[best]) best = lag;

  // The global peak may sit on a harmonic (2·T_period, 3·T_period, …):
  // fold down while the sub-harmonic lag also shows a strong ACF value
  // (search ±2 samples to absorb fractional-period rounding).
  for (std::size_t divisor : {3u, 2u}) {
    while (best / divisor >= lag_min) {
      const std::size_t centre = best / divisor;
      std::size_t sub_best = centre;
      for (std::size_t lag = centre > 2 ? centre - 2 : lag_min;
           lag <= centre + 2 && lag <= lag_max; ++lag) {
        if (norm_acf[lag] > norm_acf[sub_best]) sub_best = lag;
      }
      if (norm_acf[sub_best] >= 0.45 * norm_acf[best]) {
        best = sub_best;
      } else {
        break;
      }
    }
  }

  // Reject a flat/noisy ACF: the peak must carry a meaningful fraction of
  // the zero-lag energy.
  const double zero_lag = acf[0] / static_cast<double>(n);
  if (norm_acf[best] < 0.15 * zero_lag) return std::nullopt;

  const double refined = dsp::parabolic_refine(norm_acf, best);
  return refined / fs;
}

}  // namespace bis::tag
