#pragma once

/// @file crc.hpp
/// CRC-8 for downlink packet integrity. The paper motivates the downlink
/// with "on-demand retransmissions in case of packet loss" — CRC failure is
/// the retransmission trigger in our protocol layer.

#include <cstdint>
#include <span>

#include "phy/bits.hpp"

namespace bis::phy {

/// CRC-8 (poly 0x07, init 0xFF, xorout 0xFF), bitwise over a bit vector.
std::uint8_t crc8(std::span<const int> bits);

/// Append the CRC-8 of @p bits as 8 bits (MSB first).
Bits append_crc8(std::span<const int> bits);

/// Check and strip a trailing CRC-8. Returns true and fills @p payload on
/// success; returns false on mismatch or if the input is shorter than 8 bits.
bool check_and_strip_crc8(std::span<const int> bits, Bits& payload);

}  // namespace bis::phy
