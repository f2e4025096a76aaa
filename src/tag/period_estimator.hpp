#pragma once

/// @file period_estimator.hpp
/// Chirp-period estimation from the header field (paper §3.2.2, Fig. 6).
/// The tag "first performs an FFT across multiple header bits … to estimate
/// the chirp period T_period to then determine the proper FFT window size".
/// The envelope stream during the header is a periodic burst train (tone
/// during the sweep, noise during the idle), so its period shows up both as
/// a comb in the long-window spectrum and as the first major peak of the
/// autocorrelation. The estimator reads the autocorrelation (Wiener–Khinchin
/// via FFT), which is the more robust of the two.

#include <optional>

#include "dsp/types.hpp"

namespace bis::tag {

struct PeriodEstimatorConfig {
  double sample_rate_hz = 500e3;
  double min_period_s = 30e-6;   ///< Search bounds for T_period.
  double max_period_s = 500e-6;
  std::size_t analysis_periods = 6;  ///< Header length used for analysis.
};

class PeriodEstimator {
 public:
  explicit PeriodEstimator(const PeriodEstimatorConfig& config);

  /// Estimate the chirp period from the start of an envelope stream: the
  /// strongest peak of the autocorrelation in the lag window, folded down
  /// from harmonics. Returns std::nullopt when no periodicity is found in
  /// bounds.
  std::optional<double> estimate(const dsp::RVec& stream) const;

  const PeriodEstimatorConfig& config() const { return config_; }

 private:
  PeriodEstimatorConfig config_;
};

}  // namespace bis::tag
