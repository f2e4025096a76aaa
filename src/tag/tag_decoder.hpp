#pragma once

/// @file tag_decoder.hpp
/// The tag's full downlink decoding pipeline (paper §3.2.2):
///   1. estimate the chirp period T_period from the header field
///      (PeriodEstimator — "FFT across multiple header bits"),
///   2. fold the envelope stream on that period into chirp-aligned windows
///      (PeriodicGate; the Fig. 6(e) condition: window inside the chirp and
///      aligned with it); without a period or a slice the frame is unlocked,
///   3. classify each window's beat frequency against the calibrated slope
///      table (SymbolDemod's tone GLRT bank),
///   4. walk the slot sequence through the packet state machine:
///      header run → sync run → payload symbols → bits.

#include <vector>

#include "phy/bits.hpp"
#include "tag/period_estimator.hpp"
#include "tag/periodic_gate.hpp"
#include "tag/symbol_demod.hpp"

namespace bis::tag {

struct TagDecoderConfig {
  double sample_rate_hz = 500e3;
  std::vector<double> slot_beat_freqs_hz;  ///< Calibrated Δf per slot.
  std::vector<double> slot_durations_s;    ///< Protocol constant: chirp
                                           ///< duration per slot, used for
                                           ///< duration-matched windows.
  std::vector<double> slot_phases_rad;     ///< Calibrated phases (optional).
  std::size_t bits_per_symbol = 5;
  std::size_t header_slot = 0;  ///< Set from the alphabet.
  std::size_t sync_slot = 0;
  std::size_t first_data_slot = 1;  ///< Alphabet layout (guard slots).
  std::size_t preamble_guard_slots = 0;  ///< Classification tolerance: a slot
                                         ///< within the guard band of the
                                         ///< header/sync slope still counts
                                         ///< as that preamble field.
  bool gray_coding = true;          ///< Must match the alphabet.
  std::size_t min_header_run = 3;  ///< Header bursts required to lock.
  std::size_t expected_header_chirps = 8;  ///< Protocol constant: header
                                           ///< field length in chirp periods.
  std::size_t expected_sync_chirps = 3;  ///< Protocol constant: the sync
                                         ///< field length. Once this many
                                         ///< sync bursts are seen, the next
                                         ///< burst is payload even if it
                                         ///< classifies into the sync guard
                                         ///< band.
  PeriodEstimatorConfig period;
  PeriodicGateConfig periodic_gate;  ///< Period-folded windowing.
};

struct DownlinkDecodeResult {
  bool locked = false;            ///< Preamble found (header run + sync).
  double estimated_period_s = 0;  ///< From the period estimator (0 = n/a).
  std::size_t header_run = 0;     ///< Header bursts observed.
  std::size_t sync_run = 0;       ///< Sync bursts observed.
  std::vector<std::size_t> payload_slots;  ///< Raw decoded payload slots.
  phy::Bits bits;                 ///< Payload bits (framed; caller parses).
  std::vector<double> confidences;  ///< Per-symbol decision confidence.
};

class TagDecoder {
 public:
  explicit TagDecoder(const TagDecoderConfig& config);

  /// Decode one captured envelope stream (typically one packet/frame).
  ///
  /// @p absorptive_mask — the tag's own per-chirp switch schedule (it drives
  /// the switch, so it always knows it). Periods where the tag was
  /// reflective carry no downlink symbol and are skipped entirely; periods
  /// where it was absorptive but no burst was detected become *erasures*
  /// (placeholder symbols) so payload alignment survives a missed chirp.
  /// An empty mask means "absorptive throughout" (sequential downlink mode).
  DownlinkDecodeResult decode_stream(const dsp::RVec& stream,
                                     const std::vector<bool>& absorptive_mask = {}) const;

  const TagDecoderConfig& config() const { return config_; }

 private:
  TagDecoderConfig config_;
  PeriodicGate periodic_gate_;
  PeriodEstimator period_;
  SymbolDemod demod_;
};

}  // namespace bis::tag
