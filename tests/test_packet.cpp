// Downlink packet framing: preamble layout, length prefix, CRC, address
// filtering, slot serialization, the pinned wire bits, and parse round
// trips.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "common/random.hpp"
#include "phy/packet.hpp"

namespace bis::phy {
namespace {

SlopeAlphabet test_alphabet(std::size_t bits = 5) {
  SlopeAlphabetConfig c;
  c.bandwidth_hz = 1e9;
  c.start_frequency_hz = 9e9;
  c.chirp_period_s = 120e-6;
  c.min_chirp_duration_s = 36e-6;
  c.bits_per_symbol = bits;
  c.delay_line.length_diff_m = 45.0 * 0.0254;
  return SlopeAlphabet::design(c);
}

TEST(Packet, SlotLayoutHasPreambleThenPayload) {
  const auto alphabet = test_alphabet();
  PacketConfig cfg;
  cfg.header_chirps = 8;
  cfg.sync_chirps = 3;
  Rng rng(1);
  const DownlinkPacket packet(cfg, rng.bits(40));
  const auto slots = packet.to_slots(alphabet);
  ASSERT_EQ(slots.size(), packet.chirp_count(alphabet));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(slots[i], alphabet.header_slot());
  for (std::size_t i = 8; i < 11; ++i) EXPECT_EQ(slots[i], alphabet.sync_slot());
  for (std::size_t i = 11; i < slots.size(); ++i)
    EXPECT_TRUE(alphabet.is_data_slot(slots[i])) << i;
}

TEST(Packet, FrameMatchesSlots) {
  const auto alphabet = test_alphabet();
  Rng rng(2);
  const DownlinkPacket packet(PacketConfig{}, rng.bits(25));
  const auto slots = packet.to_slots(alphabet);
  const auto frame = packet.to_frame(alphabet);
  ASSERT_EQ(frame.size(), slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    EXPECT_DOUBLE_EQ(frame[i].duration_s, alphabet.duration(slots[i]));
  EXPECT_TRUE(frame.uniform_period());
  EXPECT_TRUE(frame.uniform_bandwidth());
}

TEST(Packet, ParseRoundTripClean) {
  Rng rng(3);
  const auto payload = rng.bits(64);
  PacketConfig cfg;
  const DownlinkPacket packet(cfg, payload);
  const auto parsed = parse_framed_bits(packet.framed_bits(), cfg, std::nullopt);
  EXPECT_TRUE(parsed.crc_ok);
  EXPECT_TRUE(parsed.address_match);
  EXPECT_EQ(parsed.payload, payload);
}

TEST(Packet, ParseToleratesTrailingJunk) {
  // The length prefix makes trailing sensing chirps harmless.
  Rng rng(4);
  const auto payload = rng.bits(32);
  PacketConfig cfg;
  const DownlinkPacket packet(cfg, payload);
  auto framed = packet.framed_bits();
  for (int i = 0; i < 23; ++i) framed.push_back(rng.coin() ? 1 : 0);
  const auto parsed = parse_framed_bits(framed, cfg, std::nullopt);
  EXPECT_TRUE(parsed.crc_ok);
  EXPECT_EQ(parsed.payload, payload);
}

TEST(Packet, CrcCatchesCorruption) {
  Rng rng(5);
  PacketConfig cfg;
  const DownlinkPacket packet(cfg, rng.bits(48));
  auto framed = packet.framed_bits();
  framed[20] ^= 1;
  const auto parsed = parse_framed_bits(framed, cfg, std::nullopt);
  EXPECT_FALSE(parsed.crc_ok);
}

TEST(Packet, CorruptedLengthFieldFailsSafely) {
  Rng rng(6);
  PacketConfig cfg;
  const DownlinkPacket packet(cfg, rng.bits(48));
  auto framed = packet.framed_bits();
  framed[0] ^= 1;  // top bit of the 16-bit length — now absurdly large
  const auto parsed = parse_framed_bits(framed, cfg, std::nullopt);
  EXPECT_FALSE(parsed.crc_ok);
}

TEST(Packet, AddressFiltering) {
  Rng rng(7);
  const auto payload = rng.bits(24);
  PacketConfig cfg;
  cfg.tag_address = 0x42;
  const DownlinkPacket packet(cfg, payload);

  const auto match = parse_framed_bits(packet.framed_bits(), cfg, 0x42);
  EXPECT_TRUE(match.crc_ok);
  EXPECT_TRUE(match.address_match);
  EXPECT_EQ(match.payload, payload);
  ASSERT_TRUE(match.address.has_value());
  EXPECT_EQ(*match.address, 0x42);

  const auto other = parse_framed_bits(packet.framed_bits(), cfg, 0x17);
  EXPECT_TRUE(other.crc_ok);
  EXPECT_FALSE(other.address_match);
}

TEST(Packet, BroadcastAcceptedByEveryAddress) {
  Rng rng(8);
  PacketConfig cfg;
  cfg.tag_address = kBroadcastAddress;
  const DownlinkPacket packet(cfg, rng.bits(16));
  for (std::uint8_t addr : {0x01, 0x42, 0xFE}) {
    const auto parsed = parse_framed_bits(packet.framed_bits(), cfg, addr);
    EXPECT_TRUE(parsed.address_match) << int(addr);
  }
}

TEST(Packet, ChirpCountFormula) {
  const auto alphabet = test_alphabet(5);
  PacketConfig cfg;
  Rng rng(11);
  const DownlinkPacket packet(cfg, rng.bits(50));
  // framed = 16 (length) + 50 + 8 (crc) = 74 bits → ceil(74/5) = 15 symbols.
  EXPECT_EQ(packet.framed_bits().size(), 74u);
  EXPECT_EQ(packet.chirp_count(alphabet), 8u + 3u + 15u);
}

TEST(Packet, FramedBitsArePinned) {
  // Every other framing test round-trips through parse_framed_bits, so a
  // change that moves framing and parsing together passes them; these bit
  // strings pin the wire format: the 16-bit length, the address byte when
  // one is set, the payload and its CRC-8. They were recorded while framing
  // still had settings (length prefix, CRC-8, Hamming FEC), at their
  // defaults, before those became the constant format.
  const auto bits_of = [](std::string_view s) {
    Bits b;
    for (const char c : s) b.push_back(c == '1' ? 1 : 0);
    return b;
  };
  const auto text_of = [](const Bits& b) {
    std::string s;
    for (const int v : b) s += v ? '1' : '0';
    return s;
  };
  struct Case {
    std::optional<std::uint8_t> address;
    std::string_view payload;
    std::string_view framed;
  };
  const Case cases[] = {
      {std::nullopt, "1011001110001111010",
       "0000000000011011101100111000111101011101001"},
      {0x42, "1100101000111010",
       "000000000010000001000010110010100011101001001101"},
      {kBroadcastAddress, "0110", "000000000001010011111111011011101101"},
      {std::nullopt, "", "000000000000100000000000"},
      {0x17, "", "00000000000100000001011101101001"},
  };
  for (const auto& c : cases) {
    PacketConfig cfg;
    cfg.tag_address = c.address;
    const DownlinkPacket packet(cfg, bits_of(c.payload));
    EXPECT_EQ(text_of(packet.framed_bits()), c.framed)
        << "payload '" << c.payload << "', address "
        << (c.address ? int(*c.address) : -1);
    const auto parsed =
        parse_framed_bits(packet.framed_bits(), cfg, c.address);
    EXPECT_TRUE(parsed.crc_ok);
    EXPECT_TRUE(parsed.address_match);
    EXPECT_EQ(text_of(parsed.payload), c.payload);
  }
}

TEST(Packet, EmptyPayloadAllowed) {
  PacketConfig cfg;
  const DownlinkPacket packet(cfg, {});
  const auto parsed = parse_framed_bits(packet.framed_bits(), cfg, std::nullopt);
  EXPECT_TRUE(parsed.crc_ok);
  EXPECT_TRUE(parsed.payload.empty());
}

}  // namespace
}  // namespace bis::phy
