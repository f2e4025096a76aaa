#pragma once

/// @file packet.hpp
/// Downlink packet structure (paper §3.1, Fig. 3): preamble (header field +
/// sync field) followed by the data payload, one CSSK symbol per chirp
/// period. The header field (a run of the reserved header slope) lets the
/// tag estimate the chirp period with a large FFT window; the sync field
/// marks the start of the payload for window alignment.
///
/// The payload is framed as a 16-bit count of the bits that follow (so the
/// tag knows exactly where the payload ends and trailing sensing chirps are
/// harmless), the 8-bit tag address when one is set, the payload bits, and
/// their CRC-8 (phy/crc.hpp). There is no FEC: the paper reaches its 1e-3
/// BER target uncoded.

#include <cstddef>
#include <optional>
#include <vector>

#include "phy/bits.hpp"
#include "phy/slope_alphabet.hpp"
#include "rf/waveform.hpp"

namespace bis::phy {

struct PacketConfig {
  std::size_t header_chirps = 8;  ///< Length of the header field.
  std::size_t sync_chirps = 3;    ///< Length of the sync field.
  std::optional<std::uint8_t> tag_address;  ///< Multi-tag: 8-bit address
                                            ///< prepended to the payload;
                                            ///< std::nullopt = broadcast.
};

/// Broadcast address: all tags accept packets addressed to 0xFF.
inline constexpr std::uint8_t kBroadcastAddress = 0xFF;

class DownlinkPacket {
 public:
  DownlinkPacket(PacketConfig config, Bits payload);

  /// Bits after length/address/CRC framing — what is CSSK-mapped.
  const Bits& framed_bits() const { return framed_; }
  const Bits& payload() const { return payload_; }
  const PacketConfig& config() const { return config_; }

  /// Number of chirps the packet occupies for a given alphabet.
  std::size_t chirp_count(const SlopeAlphabet& alphabet) const;

  /// Serialize to the slot sequence: header·N, sync·M, payload symbols.
  std::vector<std::size_t> to_slots(const SlopeAlphabet& alphabet) const;

  /// Build the over-the-air chirp frame for this packet.
  rf::ChirpFrame to_frame(const SlopeAlphabet& alphabet) const;

 private:
  PacketConfig config_;
  Bits payload_;
  Bits framed_;
};

struct ParsedPacket {
  Bits payload;                ///< Recovered payload bits.
  bool crc_ok = false;         ///< CRC-8 verdict.
  bool address_match = false;  ///< True when addressed to us or broadcast.
  std::optional<std::uint8_t> address;  ///< Parsed address, when configured.
};

/// Reverse of the framing applied by DownlinkPacket: read the length, verify
/// and strip the CRC-8, strip the address. @p my_address is the receiving
/// tag's address (matched against the packet address or broadcast); pass
/// std::nullopt when addressing is disabled.
ParsedPacket parse_framed_bits(std::span<const int> framed, const PacketConfig& config,
                               std::optional<std::uint8_t> my_address);

}  // namespace bis::phy
