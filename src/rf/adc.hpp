#pragma once

/// @file adc.hpp
/// ADC model. The tag's headline trick is decoding a GHz radar waveform with
/// a kHz-class ADC (paper §3.2.1); the radar IF chain uses an MHz ADC. Both
/// are modelled with sample rate, resolution, full-scale clipping, and
/// quantization.

#include <span>

#include "dsp/types.hpp"

namespace bis::rf {

struct AdcConfig {
  double sample_rate_hz = 500e3;  ///< Tag default: 500 kS/s (kHz-class MCU ADC).
  unsigned bits = 12;             ///< Resolution.
  double full_scale = 1.0;        ///< Input range is [-full_scale, +full_scale].
};

class Adc {
 public:
  explicit Adc(const AdcConfig& config);

  /// Quantize one already-sampled value (clip + uniform mid-tread quantizer).
  double quantize(double x) const;

  /// Quantize a whole sampled signal in place through the kquantize kernel:
  /// every element equals quantize(double) of it, bit for bit.
  void quantize(std::span<double> x) const;

  /// Number of samples produced over @p duration_s.
  std::size_t samples_for(double duration_s) const;

  double sample_rate() const { return config_.sample_rate_hz; }
  const AdcConfig& config() const { return config_; }

  /// Quantization step (LSB size).
  double lsb() const { return lsb_; }

 private:
  AdcConfig config_;
  double lsb_;
  double levels_;
};

}  // namespace bis::rf
