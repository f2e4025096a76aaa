// Bit utilities and CRC-8.

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "phy/bits.hpp"
#include "phy/crc.hpp"

namespace bis::phy {
namespace {

TEST(Bits, BytesRoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA5, 0x3C};
  const auto bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 32u);
  EXPECT_EQ(bits_to_bytes(bits), bytes);
}

TEST(Bits, MsbFirst) {
  const std::vector<std::uint8_t> bytes = {0x80};
  const auto bits = bytes_to_bits(bytes);
  EXPECT_EQ(bits[0], 1);
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
}

TEST(Bits, StringRoundTrip) {
  const std::string s = "BiScatter!";
  EXPECT_EQ(bits_to_string(string_to_bits(s)), s);
}

TEST(Bits, SymbolsRoundTrip) {
  Rng rng(3);
  for (std::size_t bps : {1u, 2u, 5u, 8u}) {
    const auto bits = rng.bits(7 * bps);
    const auto symbols = bits_to_symbols(bits, bps);
    EXPECT_EQ(symbols.size(), 7u);
    EXPECT_EQ(symbols_to_bits(symbols, bps), bits);
  }
}

TEST(Bits, SymbolPaddingZeros) {
  const Bits bits = {1, 1, 1};
  const auto symbols = bits_to_symbols(bits, 2);
  ASSERT_EQ(symbols.size(), 2u);
  EXPECT_EQ(symbols[0], 3u);  // 11
  EXPECT_EQ(symbols[1], 2u);  // 1 + pad 0
}

TEST(Bits, SymbolValuesMsbFirst) {
  const Bits bits = {1, 0, 1, 1, 0};
  const auto symbols = bits_to_symbols(bits, 5);
  EXPECT_EQ(symbols[0], 0b10110u);
}

TEST(Bits, HammingDistance) {
  const Bits a = {1, 0, 1, 1};
  const Bits b = {1, 1, 1, 0};
  EXPECT_EQ(hamming_distance(a, b), 2u);
  const Bits c = {1, 0};
  EXPECT_EQ(hamming_distance(a, c), 2u);  // 2 missing positions
}

TEST(Bits, Validation) {
  EXPECT_TRUE(is_bit_vector(std::vector<int>{0, 1, 1, 0}));
  EXPECT_FALSE(is_bit_vector(std::vector<int>{0, 2}));
  EXPECT_THROW(bits_to_bytes(std::vector<int>{1, 1, 1}), std::invalid_argument);
}

TEST(Crc8, DetectsSingleBitFlips) {
  Rng rng(5);
  const auto payload = rng.bits(64);
  const auto framed = append_crc8(payload);
  Bits out;
  EXPECT_TRUE(check_and_strip_crc8(framed, out));
  EXPECT_EQ(out, payload);
  for (std::size_t i = 0; i < framed.size(); i += 7) {
    auto corrupted = framed;
    corrupted[i] ^= 1;
    EXPECT_FALSE(check_and_strip_crc8(corrupted, out)) << "bit " << i;
  }
}

TEST(Crc8, DifferentPayloadsDifferentCrc) {
  const std::uint8_t a = crc8(std::vector<int>{1, 0, 1});
  const std::uint8_t b = crc8(std::vector<int>{1, 0, 0});
  EXPECT_NE(a, b);
}

TEST(Crc, TooShortInputRejected) {
  Bits out;
  EXPECT_FALSE(check_and_strip_crc8(std::vector<int>{1, 0, 1}, out));
}

}  // namespace
}  // namespace bis::phy
