#pragma once

/// @file delay_line.hpp
/// The tag's two-delay-line differential pair (paper §3.2.1, Fig. 4). The
/// length difference ΔL sets the delay difference ΔT = ΔL/(k·c), which maps
/// chirp slope α to the decoder beat frequency Δf = α·ΔT (Eq. 11):
///   Δf = B·ΔL / (T_chirp · k · c).
///
/// Real lines are dispersive — k varies over the swept GHz bandwidth — which
/// is why the paper performs a one-time calibration of the actual Δf per
/// slope (§3.2.1 "Delay Line Lengths", §5 setup). We model dispersion as a
/// first-order variation of the velocity factor around a reference frequency
/// so the calibration step has something real to correct.

namespace bis::rf {

struct DelayLineConfig {
  double length_diff_m = 45.0 * 0.0254;  ///< ΔL; paper sweeps 9/18/45 inch.
  double velocity_factor = 0.7;          ///< k at the reference frequency (coax ≈ 0.7).
  double dispersion_per_ghz = 0.004;     ///< Fractional change of k per GHz offset.
  double reference_freq_hz = 9.0e9;      ///< Frequency at which k = velocity_factor.
  double loss_db_per_m_at_ref = 1.2;     ///< Conductor+dielectric loss at reference.

  bool operator==(const DelayLineConfig&) const = default;
};

class DelayLinePair {
 public:
  explicit DelayLinePair(const DelayLineConfig& config);

  /// Frequency-dependent velocity factor k(f).
  double velocity_factor(double freq_hz) const;

  /// Delay difference ΔT(f) = ΔL / (k(f)·c).
  double delta_t(double freq_hz) const;

  /// Nominal ΔT using the reference velocity factor (what an uncalibrated
  /// decoder would assume).
  double delta_t_nominal() const;

  /// Beat frequency for chirp slope α evaluated at the sweep centre
  /// frequency: Δf = α·ΔT(f_center).
  double beat_frequency(double slope_hz_per_s, double center_freq_hz) const;

  /// Nominal Eq. 11 prediction Δf = B·ΔL/(T_chirp·k·c).
  double beat_frequency_nominal(double bandwidth_hz, double t_chirp_s) const;

  /// Insertion loss [dB] of the longer path (≈ loss over ΔL, √f scaling).
  double insertion_loss_db(double freq_hz) const;

  const DelayLineConfig& config() const { return config_; }

 private:
  DelayLineConfig config_;
};

}  // namespace bis::rf
