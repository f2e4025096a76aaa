// Uplink modulation alphabet, BER accounting, data-rate arithmetic
// (paper Eqs. 12–14, §3.2.3).

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "phy/ber.hpp"
#include "phy/datarate.hpp"
#include "phy/uplink.hpp"

namespace bis::phy {
namespace {

TEST(Uplink, BitsPerSymbol) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kOok;
  EXPECT_EQ(uplink_bits_per_symbol(cfg), 1u);
  cfg.scheme = UplinkScheme::kFsk;
  cfg.mod_frequencies_hz = {800, 1200, 1600, 2000};
  EXPECT_EQ(uplink_bits_per_symbol(cfg), 2u);
  cfg.mod_frequencies_hz = {800, 1200, 1600};
  EXPECT_EQ(uplink_bits_per_symbol(cfg), 1u);  // floor(log2 3)
}

TEST(Uplink, ValidationRejectsAboveNyquist) {
  UplinkConfig cfg;
  cfg.chirp_period_s = 120e-6;  // Nyquist ≈ 4167 Hz
  cfg.mod_frequencies_hz = {5000.0};
  cfg.scheme = UplinkScheme::kOok;
  EXPECT_THROW(validate_uplink_config(cfg), std::invalid_argument);
}

TEST(Uplink, ValidationRejectsTooShortSymbol) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kOok;
  cfg.mod_frequencies_hz = {100.0};
  cfg.chirps_per_symbol = 64;  // 64·120 µs = 7.7 ms < 2 cycles of 100 Hz
  EXPECT_THROW(validate_uplink_config(cfg), std::invalid_argument);
}

TEST(Uplink, SymbolStatesSquareWave) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kFsk;
  cfg.mod_frequencies_hz = {800, 1600};
  cfg.chirps_per_symbol = 64;
  const auto states = uplink_symbol_states(cfg, 0);
  ASSERT_EQ(states.size(), 64u);
  // 800 Hz at 120 µs cadence: period ≈ 10.4 chirps, duty 0.5.
  int ones = 0;
  for (int s : states) {
    EXPECT_TRUE(s == 0 || s == 1);
    ones += s;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 64.0, 0.5, 0.12);
  // The square wave must actually toggle.
  int transitions = 0;
  for (std::size_t i = 1; i < states.size(); ++i)
    if (states[i] != states[i - 1]) ++transitions;
  EXPECT_GE(transitions, 8);
}

TEST(Uplink, OokZeroIsStaticReflective) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kOok;
  cfg.mod_frequencies_hz = {800.0};
  const auto states = uplink_symbol_states(cfg, 0);
  for (int s : states) EXPECT_EQ(s, 1);
}

TEST(Uplink, ModulateConcatenatesSymbols) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kFsk;
  cfg.mod_frequencies_hz = {800, 1200, 1600, 2000};
  cfg.chirps_per_symbol = 64;
  Rng rng(1);
  const auto bits = rng.bits(6);  // 3 FSK symbols
  const auto states = uplink_modulate(cfg, bits);
  EXPECT_EQ(states.size(), 3u * 64u);
}

TEST(Uplink, DataRate) {
  UplinkConfig cfg;
  cfg.scheme = UplinkScheme::kFsk;
  cfg.mod_frequencies_hz = {800, 1200, 1600, 2000};
  cfg.chirps_per_symbol = 64;
  cfg.chirp_period_s = 120e-6;
  // 2 bits / (64·120 µs) ≈ 260 bit/s.
  EXPECT_NEAR(uplink_data_rate(cfg), 2.0 / (64.0 * 120e-6), 1e-9);
}

TEST(ErrorCounter, CountsMismatchesAndLengthDelta) {
  // One call per packet: a 4-bit packet received with one flip and one bit
  // missing, then a lost 4-bit packet (every bit counted as an error).
  ErrorCounter c;
  c.add(2, 4);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.errors(), 2u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.5);
  c.add(4, 4);
  EXPECT_EQ(c.total(), 8u);
  EXPECT_EQ(c.errors(), 6u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.75);
}

TEST(ErrorCounter, WilsonIntervalBrackets) {
  ErrorCounter c;
  c.add(10, 1000);
  EXPECT_NEAR(c.rate(), 0.01, 1e-12);
  EXPECT_LT(c.wilson_lower_95(), 0.01);
  EXPECT_GT(c.wilson_upper_95(), 0.01);
  EXPECT_LT(c.wilson_upper_95(), 0.03);
}

TEST(ErrorCounter, ZeroErrorsStillHaveUpperBound) {
  ErrorCounter c;
  c.add(0, 4000);
  EXPECT_EQ(c.rate(), 0.0);
  EXPECT_GT(c.wilson_upper_95(), 0.0);
  EXPECT_LT(c.wilson_upper_95(), 1.5e-3);
}

TEST(ErrorCounter, EmptyCounter) {
  ErrorCounter c;
  EXPECT_EQ(c.rate(), 0.0);
  EXPECT_EQ(c.wilson_upper_95(), 1.0);
}

TEST(Ber, OokTheoreticalCurve) {
  // 0.5·exp(−SNR/2): at 0 dB → 0.5·e^-0.5 ≈ 0.303.
  EXPECT_NEAR(ook_theoretical_ber(0.0), 0.5 * std::exp(-0.5), 1e-9);
  EXPECT_LT(ook_theoretical_ber(10.0), ook_theoretical_ber(4.0));
}

TEST(DataRate, SlopeCountEq13) {
  // (110k − 11k)/3k = 33.
  EXPECT_EQ(slope_count(11e3, 110e3, 3e3), 33u);
}

TEST(DataRate, SymbolBitsEq12) {
  EXPECT_EQ(symbol_bits(2), 1u);
  EXPECT_EQ(symbol_bits(32), 5u);
  EXPECT_EQ(symbol_bits(33), 5u);
  EXPECT_EQ(symbol_bits(1024 + 2), 10u);
}

TEST(DataRate, Equation14PaperExample) {
  // Paper §3.2.2: 10 bits / 100 µs = 0.1 Mbps.
  EXPECT_NEAR(downlink_data_rate(10, 100e-6), 1e5, 1e-9);
}

TEST(DataRate, GoodputBelowRawRate) {
  const double raw = downlink_data_rate(5, 120e-6);
  const double good = downlink_goodput(5, 120e-6, 20, 11);
  EXPECT_LT(good, raw);
  EXPECT_NEAR(good / raw, 20.0 / 31.0, 1e-9);
}

}  // namespace
}  // namespace bis::phy
