#include "phy/packet.hpp"

#include "common/check.hpp"
#include "phy/crc.hpp"

namespace bis::phy {
namespace {

Bits frame_bits(const PacketConfig& config, const Bits& payload) {
  Bits body;
  if (config.tag_address.has_value()) {
    const std::uint8_t addr = *config.tag_address;
    for (int b = 7; b >= 0; --b) body.push_back((addr >> b) & 1);
  }
  body.insert(body.end(), payload.begin(), payload.end());
  body = append_crc8(body);

  BIS_CHECK_MSG(body.size() < (1u << 16), "packet too long for length prefix");
  const auto len = static_cast<std::uint16_t>(body.size());
  Bits framed;
  for (int b = 15; b >= 0; --b) framed.push_back((len >> b) & 1);
  framed.insert(framed.end(), body.begin(), body.end());
  return framed;
}

}  // namespace

DownlinkPacket::DownlinkPacket(PacketConfig config, Bits payload)
    : config_(std::move(config)), payload_(std::move(payload)) {
  BIS_CHECK_MSG(is_bit_vector(payload_), "payload must contain only 0/1");
  BIS_CHECK(config_.header_chirps >= 2);
  BIS_CHECK(config_.sync_chirps >= 1);
  framed_ = frame_bits(config_, payload_);
}

std::size_t DownlinkPacket::chirp_count(const SlopeAlphabet& alphabet) const {
  const std::size_t b = alphabet.bits_per_symbol();
  const std::size_t payload_chirps = (framed_.size() + b - 1) / b;
  return config_.header_chirps + config_.sync_chirps + payload_chirps;
}

std::vector<std::size_t> DownlinkPacket::to_slots(const SlopeAlphabet& alphabet) const {
  std::vector<std::size_t> slots;
  slots.reserve(chirp_count(alphabet));
  for (std::size_t i = 0; i < config_.header_chirps; ++i)
    slots.push_back(alphabet.header_slot());
  for (std::size_t i = 0; i < config_.sync_chirps; ++i)
    slots.push_back(alphabet.sync_slot());
  for (auto sym : bits_to_symbols(framed_, alphabet.bits_per_symbol()))
    slots.push_back(alphabet.slot_for_data(sym));
  return slots;
}

rf::ChirpFrame DownlinkPacket::to_frame(const SlopeAlphabet& alphabet) const {
  rf::ChirpFrame frame;
  for (auto slot : to_slots(alphabet)) frame.push_back(alphabet.chirp(slot));
  return frame;
}

ParsedPacket parse_framed_bits(std::span<const int> framed, const PacketConfig& config,
                               std::optional<std::uint8_t> my_address) {
  ParsedPacket out;
  if (framed.size() < 16) return out;
  std::size_t len = 0;
  for (std::size_t i = 0; i < 16; ++i)
    len = (len << 1) | static_cast<std::size_t>(framed[i]);
  if (16 + len > framed.size()) return out;  // corrupted length field
  // Anything after the counted bits is symbol padding or sensing chirps.
  Bits bits(framed.begin() + 16, framed.begin() + 16 + static_cast<long>(len));

  Bits verified;
  out.crc_ok = check_and_strip_crc8(bits, verified);
  if (out.crc_ok) bits = verified;

  if (config.tag_address.has_value()) {
    if (bits.size() < 8) {
      out.address_match = false;
      return out;
    }
    std::uint8_t addr = 0;
    for (std::size_t i = 0; i < 8; ++i)
      addr = static_cast<std::uint8_t>((addr << 1) | bits[i]);
    out.address = addr;
    out.address_match = !my_address.has_value() || addr == *my_address ||
                        addr == kBroadcastAddress;
    bits.erase(bits.begin(), bits.begin() + 8);
  } else {
    out.address_match = true;
  }

  out.payload = std::move(bits);
  return out;
}

}  // namespace bis::phy
