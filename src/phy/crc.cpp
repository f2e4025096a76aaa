#include "phy/crc.hpp"

#include "common/check.hpp"

namespace bis::phy {

std::uint8_t crc8(std::span<const int> bits) {
  BIS_CHECK(is_bit_vector(bits));
  std::uint8_t crc = 0xFF;  // non-zero init avoids zero-padding degeneracy
  for (int bit : bits) {
    const std::uint8_t top = static_cast<std::uint8_t>((crc >> 7) & 1);
    crc = static_cast<std::uint8_t>(crc << 1);
    if (top ^ static_cast<std::uint8_t>(bit)) crc ^= 0x07;
  }
  // Final XOR, part of the wire format: without it, a message followed by
  // its own CRC keeps passing the check for ANY number of retained CRC bits
  // (the register simply shifts its own top bits back in).
  return static_cast<std::uint8_t>(crc ^ 0xFF);
}

Bits append_crc8(std::span<const int> bits) {
  Bits out(bits.begin(), bits.end());
  const std::uint8_t crc = crc8(bits);
  for (int b = 7; b >= 0; --b) out.push_back((crc >> b) & 1);
  return out;
}

bool check_and_strip_crc8(std::span<const int> bits, Bits& payload) {
  if (bits.size() < 8) return false;
  const auto data = bits.first(bits.size() - 8);
  std::uint8_t received = 0;
  for (std::size_t i = bits.size() - 8; i < bits.size(); ++i)
    received = static_cast<std::uint8_t>((received << 1) | bits[i]);
  if (crc8(data) != received) return false;
  payload.assign(data.begin(), data.end());
  return true;
}

}  // namespace bis::phy
