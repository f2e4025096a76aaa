#pragma once

/// @file uplink_decoder.hpp
/// Decodes the tag's uplink message from the slow-time series at the tag's
/// range bin (paper §3.3). Each uplink symbol spans a block of chirps; the
/// block's slow-time spectrum is evaluated at the candidate modulation
/// frequencies (Goertzel — only a handful of frequencies matter):
///   - FSK: symbol = argmax over the frequency alphabet;
///   - OOK: bit = 1 when the assigned tone rises @p threshold above the
///     off-tone noise estimate.

#include <span>
#include <vector>

#include "phy/bits.hpp"
#include "phy/uplink.hpp"
#include "radar/receive_chain.hpp"

namespace bis::radar {

struct UplinkDecodeResult {
  std::vector<std::size_t> symbols;
  phy::Bits bits;
  std::vector<double> symbol_confidence;  ///< Winner/runner-up power ratio.
};

class UplinkDecoder {
 public:
  explicit UplinkDecoder(phy::UplinkConfig config);

  /// Decode the slow-time series of the tag's grid bin across one frame
  /// into @p out (its vectors are cleared, capacity retained, so the
  /// per-frame loop is allocation-free once warm). The frame must contain a
  /// whole number of symbol blocks.
  void decode_into(const AlignedProfiles& profiles, std::size_t tag_bin,
                   UplinkDecodeResult& out) const;
  /// Decode from a raw slow-time magnitude series, as decode_into does for
  /// the tag bin's column.
  void decode_series_into(std::span<const double> series,
                          UplinkDecodeResult& out) const;

  const phy::UplinkConfig& config() const { return config_; }

 private:
  phy::UplinkConfig config_;
  double ook_threshold_ratio_ = 2.0;
};

}  // namespace bis::radar
