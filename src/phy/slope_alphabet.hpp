#pragma once

/// @file slope_alphabet.hpp
/// The CSSK symbol alphabet (paper §3.1–§3.2.2). Downlink symbols are chirp
/// slopes; the tag distinguishes them by the beat frequency each slope
/// produces at its decoder, Δf = α·ΔT. The alphabet is designed so that:
///   - beat frequencies are uniformly spaced by Δf_int between Δf_min and
///     Δf_max (Eq. 13: N_slope = (Δf_max − Δf_min)/Δf_int),
///   - chirp durations stay inside [T_min, max_duty·T_period] (the paper's
///     80 % duty bound from commercial radar inter-chirp constraints),
///   - two slopes are reserved for the preamble header and sync fields
///     (paper §3.1: "We allocate 2 unique chirp slopes for defining the
///     header and sync fields"), placed at the band edges where they are
///     most distinguishable.
///
/// Slot layout (by increasing beat frequency / decreasing chirp duration),
/// with g = preamble_guard_slots unused positions isolating the reserved
/// preamble slopes from the data band so preamble detection stays robust:
///   slot 0                          = SYNC   (longest chirp, lowest Δf)
///   slots 1 … g                     = guard (unused)
///   slots g+1 … g+2^b               = data (Gray-coded symbol mapping, so
///                                     an adjacent-slot error costs 1 bit)
///   slots g+2^b+1 … 2g+2^b          = guard (unused)
///   slot 2g + 2^b + 1               = HEADER (shortest chirp, highest Δf)

#include <cstddef>
#include <vector>

#include "rf/chirp.hpp"
#include "rf/delay_line.hpp"

namespace bis::phy {

struct SlopeAlphabetConfig {
  double bandwidth_hz = 1e9;         ///< B, fixed across symbols.
  double start_frequency_hz = 9e9;   ///< f0 of every chirp.
  double chirp_period_s = 120e-6;    ///< T_period, fixed symbol cadence.
  double min_chirp_duration_s = 20e-6;  ///< Commercial radar bound (§6).
  double max_duty = 0.8;             ///< T_chirp ≤ max_duty · T_period.
  std::size_t bits_per_symbol = 5;   ///< N_symbol (Eq. 12).
  std::size_t preamble_guard_slots = 2;  ///< Unused slots beside header/sync.
  bool gray_coding = true;           ///< Gray-map symbols onto slots.
  rf::DelayLineConfig delay_line;    ///< Tag delay line that maps α → Δf.

  bool operator==(const SlopeAlphabetConfig&) const = default;
};

/// Binary-reflected Gray code and its inverse.
std::size_t gray_encode(std::size_t value);
std::size_t gray_decode(std::size_t gray);

class SlopeAlphabet {
 public:
  /// Design an alphabet; throws when the configuration cannot produce the
  /// requested number of distinguishable slopes.
  static SlopeAlphabet design(const SlopeAlphabetConfig& config);

  std::size_t bits_per_symbol() const { return config_.bits_per_symbol; }
  std::size_t data_symbol_count() const;  ///< 2^bits_per_symbol.
  std::size_t slot_count() const { return durations_.size(); }

  std::size_t sync_slot() const { return 0; }
  std::size_t header_slot() const { return slot_count() - 1; }
  std::size_t first_data_slot() const { return config_.preamble_guard_slots + 1; }
  std::size_t slot_for_data(std::size_t symbol) const;
  bool is_data_slot(std::size_t slot) const;
  std::size_t data_for_slot(std::size_t slot) const;

  /// Chirp duration of a slot.
  double duration(std::size_t slot) const;

  /// Nominal (uncalibrated, Eq. 11) beat frequency of a slot at the tag.
  double nominal_beat_frequency(std::size_t slot) const;

  /// All nominal beat frequencies, indexed by slot.
  const std::vector<double>& nominal_beat_frequencies() const { return beat_freqs_; }

  /// Spacing between adjacent beat frequencies (Δf_int of Eq. 13).
  double beat_spacing_hz() const { return beat_spacing_hz_; }

  /// Full chirp parameters of a slot (duration + idle filling the period).
  rf::ChirpParams chirp(std::size_t slot) const;

  const SlopeAlphabetConfig& config() const { return config_; }

 private:
  SlopeAlphabet(SlopeAlphabetConfig config, std::vector<double> durations,
                std::vector<double> beat_freqs, double spacing);

  SlopeAlphabetConfig config_;
  std::vector<double> durations_;   ///< Chirp duration per slot.
  std::vector<double> beat_freqs_;  ///< Nominal Δf per slot.
  double beat_spacing_hz_ = 0.0;
};

}  // namespace bis::phy
