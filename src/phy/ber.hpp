#pragma once

/// @file ber.hpp
/// Bit/symbol error-rate accounting for the evaluation sweeps (Figs. 12–14,
/// 17). Includes a Wilson confidence interval so bench output distinguishes
/// "measured 0 errors over N bits" from "BER genuinely below the floor".

#include <cstddef>

namespace bis::phy {

class ErrorCounter {
 public:
  /// Count @p bits compared bits, @p errors of them wrong (one call per
  /// packet; the caller counts a lost packet's bits as errors).
  void add(std::size_t errors, std::size_t bits);

  std::size_t total() const { return total_; }
  std::size_t errors() const { return errors_; }

  /// Error rate; 0 when nothing was counted.
  double rate() const;

  /// Upper bound of the 95 % Wilson score interval for the error rate.
  double wilson_upper_95() const;
  /// Lower bound of the 95 % Wilson score interval.
  double wilson_lower_95() const;

 private:
  std::size_t total_ = 0;
  std::size_t errors_ = 0;
};

/// Theoretical BER of non-coherent OOK at the given SNR (dB):
/// ~0.5·exp(−SNR/2), the standard envelope-detection approximation the paper
/// uses to translate 4 dB uplink SNR into "a theoretical BER of 1e-2" (§5.1).
double ook_theoretical_ber(double snr_db);

}  // namespace bis::phy
