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

#include <span>
#include <vector>

#include "phy/bits.hpp"
#include "phy/packet.hpp"
#include "phy/slope_alphabet.hpp"
#include "tag/period_estimator.hpp"
#include "tag/periodic_gate.hpp"
#include "tag/symbol_demod.hpp"

namespace bis::tag {

struct DownlinkDecodeResult {
  bool locked = false;            ///< Preamble found (header run + sync).
  double estimated_period_s = 0;  ///< From the period estimator (0 = n/a).
  std::size_t header_run = 0;     ///< Header bursts observed.
  std::size_t sync_run = 0;       ///< Sync bursts observed.
  std::vector<std::size_t> payload_slots;  ///< Raw decoded payload slots.
  phy::Bits bits;                 ///< Payload bits (framed; caller parses).
  std::vector<double> confidences;  ///< Per-symbol decision confidence.
};

/// The period-folded gate a decoder for @p alphabet slices with when it
/// classifies against @p beat_freqs_hz (one per slot) at the ADC rate
/// @p sample_rate_hz. Calibration slices through the same gate, so a
/// re-calibration, which moves the lowest beat tone, can move the gate.
PeriodicGateConfig decoder_gate_config(const phy::SlopeAlphabet& alphabet,
                                       std::span<const double> beat_freqs_hz,
                                       double sample_rate_hz);

class TagDecoder {
 public:
  /// A decoder for @p alphabet's slot layout that classifies against
  /// @p beat_freqs_hz, one per slot (the calibrated table or the nominal
  /// Eq. 11 one), at the tag ADC rate @p sample_rate_hz. It keeps its own
  /// copy of the alphabet.
  TagDecoder(const phy::SlopeAlphabet& alphabet,
             std::span<const double> beat_freqs_hz, double sample_rate_hz);

  /// Decode one captured envelope stream (typically one packet/frame) of a
  /// packet with @p packet's header and sync field lengths.
  ///
  /// @p absorptive_mask — the tag's own per-chirp switch schedule (it drives
  /// the switch, so it always knows it). Periods where the tag was
  /// reflective carry no downlink symbol and are skipped entirely; periods
  /// where it was absorptive but no burst was detected become *erasures*
  /// (placeholder symbols) so payload alignment survives a missed chirp.
  /// An empty mask means "absorptive throughout" (sequential downlink mode).
  DownlinkDecodeResult decode_stream(const dsp::RVec& stream,
                                     const phy::PacketConfig& packet,
                                     const std::vector<bool>& absorptive_mask = {}) const;

 private:
  phy::SlopeAlphabet alphabet_;
  double sample_rate_hz_;
  PeriodicGate periodic_gate_;
  PeriodEstimator period_;
  SymbolDemod demod_;
};

}  // namespace bis::tag
