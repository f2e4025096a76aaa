#pragma once

/// @file experiments.hpp
/// Monte-Carlo measurement helpers used by the bench harnesses (one per
/// paper figure/table — see DESIGN.md §4). Each SystemConfig helper owns its
/// RNG stream (derived from the seed) and each LinkSimulator helper draws
/// from the caller's, so sweeps are reproducible.

#include <cstddef>

#include "core/link_simulator.hpp"

namespace bis::core {

struct BerMeasurement {
  double ber = 0.0;
  double ber_upper95 = 0.0;   ///< Wilson upper bound (for zero-error points).
  std::size_t bits = 0;
  std::size_t errors = 0;
  std::size_t packets = 0;
  std::size_t packets_locked = 0;
  double envelope_snr_db = 0.0;  ///< Analytic downlink SNR at the tag range.
};

/// Downlink BER over repeated random packets of @p payload_bits each until
/// at least @p min_bits bits have been compared.
BerMeasurement measure_downlink_ber(const SystemConfig& config,
                                    std::size_t min_bits = 2000,
                                    std::size_t payload_bits = 120);

/// Draws payloads from the caller's @p data_rng and, when @p shared_alphabet
/// is non-null, reuses a precomputed slope alphabet instead of rebuilding
/// it. The wrapper above derives data_rng from config.seed. Builds the
/// simulator, calibrates its tag and runs the overload below.
BerMeasurement measure_downlink_ber(const SystemConfig& config,
                                    std::size_t min_bits, std::size_t payload_bits,
                                    const phy::SlopeAlphabet* shared_alphabet,
                                    Rng& data_rng);

/// The measurement on @p sim, whose tag the caller has calibrated (for
/// example in one LinkSimulator::calibrate_tags batch with other points).
BerMeasurement measure_downlink_ber(LinkSimulator& sim, std::size_t min_bits,
                                    std::size_t payload_bits, Rng& data_rng);

struct UplinkMeasurement {
  double ber = 0.0;
  std::size_t bits = 0;
  std::size_t errors = 0;
  double mean_snr_processed_db = 0.0;
  double mean_snr_per_chirp_db = 0.0;
  double detection_rate = 0.0;
  double mean_range_error_m = 0.0;
};

/// Uplink BER / SNR / localization over repeated frames. The uplink never
/// runs the tag's frontend or decoder, so the tag is not calibrated.
UplinkMeasurement measure_uplink(const SystemConfig& config,
                                 std::size_t frames = 10,
                                 std::size_t bits_per_frame = 8,
                                 bool downlink_active = false);

/// The measurement on @p sim, with payloads drawn from @p data_rng.
UplinkMeasurement measure_uplink(LinkSimulator& sim, std::size_t frames,
                                 std::size_t bits_per_frame, bool downlink_active,
                                 Rng& data_rng);

struct LocalizationMeasurement {
  double mean_error_m = 0.0;
  double median_error_m = 0.0;
  double p90_error_m = 0.0;
  double detection_rate = 0.0;
  std::size_t frames = 0;
};

/// Tag localization accuracy with or without concurrent CSSK downlink
/// (Fig. 16's two conditions). Uplink frames only: no tag calibration.
LocalizationMeasurement measure_localization(const SystemConfig& config,
                                             std::size_t frames = 20,
                                             bool downlink_active = false);

/// The measurement on @p sim, with payloads drawn from @p data_rng.
LocalizationMeasurement measure_localization(LinkSimulator& sim,
                                             std::size_t frames, bool downlink_active,
                                             Rng& data_rng);

struct IsacMeasurement {
  BerMeasurement downlink;
  UplinkMeasurement uplink;
};

/// Fully integrated frames (downlink packet + uplink bits + localization)
/// on @p sim, whose tag the caller has calibrated, with payloads drawn from
/// @p data_rng.
IsacMeasurement measure_integrated(LinkSimulator& sim, std::size_t frames,
                                   std::size_t payload_bits, std::size_t uplink_bits,
                                   Rng& data_rng);

}  // namespace bis::core
