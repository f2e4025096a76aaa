// RF component models: ADC, noise, the channel preset, RF switch.

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "rf/adc.hpp"
#include "rf/channel.hpp"
#include "rf/noise.hpp"
#include "rf/rf_switch.hpp"

namespace bis::rf {
namespace {

TEST(Adc, QuantizationStep) {
  AdcConfig cfg;
  cfg.bits = 12;
  cfg.full_scale = 1.0;
  const Adc adc(cfg);
  EXPECT_NEAR(adc.lsb(), 2.0 / 4096.0, 1e-12);
  // Quantization error bounded by half an LSB away from the rails.
  for (double x : {0.123, -0.77, 0.5001}) {
    EXPECT_NEAR(adc.quantize(x), x, adc.lsb() / 2.0 + 1e-15);
  }
}

TEST(Adc, ClipsAtFullScale) {
  AdcConfig cfg;
  cfg.bits = 8;
  cfg.full_scale = 1.0;
  const Adc adc(cfg);
  EXPECT_LE(adc.quantize(5.0), 1.0);
  EXPECT_GE(adc.quantize(-5.0), -1.0);
}

TEST(Adc, SamplesForRounds) {
  AdcConfig cfg;
  cfg.sample_rate_hz = 500e3;
  const Adc adc(cfg);
  EXPECT_EQ(adc.samples_for(120e-6), 60u);
  // A duration a hair under an integer count still rounds to it.
  EXPECT_EQ(adc.samples_for(119.999999e-6), 60u);
  EXPECT_EQ(adc.samples_for(0.0), 0u);
}

TEST(Adc, MoreBitsLessError) {
  AdcConfig lo;
  lo.bits = 6;
  AdcConfig hi;
  hi.bits = 14;
  const Adc a6(lo), a14(hi);
  double e6 = 0.0, e14 = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double x = -0.9 + 0.018 * i;
    e6 += std::abs(a6.quantize(x) - x);
    e14 += std::abs(a14.quantize(x) - x);
  }
  EXPECT_LT(e14, e6 / 50.0);
}

TEST(Noise, AwgnStatistics) {
  Rng rng(31);
  std::vector<double> x(20000, 0.0);
  add_awgn(std::span<double>(x), 0.5, rng);
  bis::RunningStats st;
  for (double v : x) st.add(v);
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 0.5, 0.02);
}

TEST(Noise, ComplexAwgnPerComponent) {
  Rng rng(32);
  std::vector<bis::dsp::cdouble> x(20000, {0.0, 0.0});
  add_awgn(std::span<bis::dsp::cdouble>(x), 0.3, rng);
  bis::RunningStats re, im;
  for (const auto& v : x) {
    re.add(v.real());
    im.add(v.imag());
  }
  EXPECT_NEAR(re.stddev(), 0.3, 0.02);
  EXPECT_NEAR(im.stddev(), 0.3, 0.02);
}

TEST(Noise, SigmaForToneSnr) {
  // amp=1 tone (power 0.5) at 10 dB SNR → noise var 0.05.
  EXPECT_NEAR(sigma_for_tone_snr(1.0, 10.0), std::sqrt(0.05), 1e-12);
}

TEST(Noise, PhaseNoiseGrowsWithTime) {
  PhaseNoise pn(1.0, Rng(5));
  bis::RunningStats early, late;
  for (int trial = 0; trial < 200; ++trial) {
    PhaseNoise p(1.0, Rng(1000 + trial));
    double phase = 0.0;
    for (int i = 0; i < 10; ++i) phase = p.step(1e-3);
    early.add(phase);
    for (int i = 0; i < 90; ++i) phase = p.step(1e-3);
    late.add(phase);
  }
  // Random walk: std grows ~√t (10× time → ~3.2× std).
  EXPECT_GT(late.stddev(), 2.0 * early.stddev());
}

TEST(Noise, ZeroRateIsSilent) {
  PhaseNoise pn(0.0, Rng(1));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pn.step(1e-3), 0.0);
}

TEST(Channel, OfficePresetHasNegativeGainTaps) {
  const auto ch = ChannelModel::indoor_office();
  EXPECT_GE(ch.taps.size(), 2u);
  for (const auto& t : ch.taps) {
    EXPECT_LT(t.relative_gain_db, 0.0);
    EXPECT_GT(t.excess_delay_s, 0.0);
  }
}

TEST(RfSwitch, RoutingFollowsState) {
  RfSwitch sw{RfSwitchConfig{}};
  sw.set_state(SwitchState::kReflective);
  EXPECT_GT(sw.reflective_path_amplitude(), 0.8);
  EXPECT_LT(sw.decoder_path_amplitude(), 0.05);
  sw.set_state(SwitchState::kAbsorptive);
  EXPECT_GT(sw.decoder_path_amplitude(), 0.8);
  EXPECT_LT(sw.reflective_path_amplitude(), 0.05);
}

TEST(RfSwitch, IsolationSetsLeakage) {
  RfSwitchConfig cfg;
  cfg.isolation_db = 20.0;
  RfSwitch sw(cfg);
  sw.set_state(SwitchState::kAbsorptive);
  EXPECT_NEAR(sw.reflective_path_amplitude(), 0.1, 1e-9);
}

}  // namespace
}  // namespace bis::rf
