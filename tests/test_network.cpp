// Multi-tag network (paper §6 "Extension to Multi-Radar Multi-Tag
// Scenarios"): addressed/broadcast downlink and simultaneous multi-tag
// sensing with per-tag modulation frequencies.

#include <gtest/gtest.h>

#include "core/network.hpp"

namespace bis::core {
namespace {

NetworkConfig three_tag_network() {
  NetworkConfig net;
  net.base.seed = 77;
  const auto freqs = assign_mod_frequencies(3, net.base.radar.chirp_period_s);
  net.tags = {
      {0x01, 1.8, freqs[0]},
      {0x02, 3.6, freqs[1]},
      {0x03, 5.4, freqs[2]},
  };
  return net;
}

TEST(Network, AssignedFrequenciesSeparatedAndBelowNyquist) {
  const double period = 120e-6;
  const auto freqs = assign_mod_frequencies(5, period);
  ASSERT_EQ(freqs.size(), 5u);
  const double nyquist = 1.0 / (2.0 * period);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(freqs[i], 0.1 * nyquist);
    EXPECT_LT(freqs[i], 0.9 * nyquist);
    if (i) {
      EXPECT_GT(freqs[i] - freqs[i - 1], 0.05 * nyquist);
    }
  }
}

TEST(Network, BroadcastReachesEveryTag) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const phy::Bits payload = {1, 0, 1, 1, 0, 1, 0, 0};
  const auto deliveries = net.send_downlink(phy::kBroadcastAddress, payload);
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(d.locked) << int(d.address);
    EXPECT_TRUE(d.crc_ok) << int(d.address);
    EXPECT_TRUE(d.address_match) << int(d.address);
    EXPECT_EQ(d.payload, payload) << int(d.address);
  }
}

TEST(Network, UnicastFiltersOtherTags) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const phy::Bits payload = {0, 1, 1, 0};
  const auto deliveries = net.send_downlink(0x02, payload);
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(d.crc_ok) << int(d.address);  // all decode the broadcast frame
    if (d.address == 0x02) {
      EXPECT_TRUE(d.address_match);
      EXPECT_EQ(d.payload, payload);
    } else {
      EXPECT_FALSE(d.address_match);
    }
  }
}

TEST(Network, SensesAllTagsSimultaneously) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const auto obs = net.sense_all(/*downlink_active=*/false);
  ASSERT_EQ(obs.size(), 3u);
  const double true_ranges[3] = {1.8, 3.6, 5.4};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(obs[i].detected) << i;
    EXPECT_LT(obs[i].range_error_m, 0.08) << i;
    EXPECT_NEAR(obs[i].range_m, true_ranges[i], 0.1) << i;
  }
}

TEST(Network, ConsecutiveSensingFramesDrawFreshNoise) {
  // The sensing generator is seeded once, at construction: each frame draws
  // fresh noise, and two networks built from one config sense the same frame
  // sequence.
  BiScatterNetwork a(three_tag_network());
  BiScatterNetwork b(three_tag_network());
  const auto a1 = a.sense_all();
  const auto a2 = a.sense_all();
  const auto b1 = b.sense_all();
  const auto b2 = b.sense_all();
  ASSERT_EQ(a1.size(), 3u);
  bool fresh = false;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a1[i].snr_db, b1[i].snr_db) << i;
    EXPECT_EQ(a1[i].range_m, b1[i].range_m) << i;
    EXPECT_EQ(a2[i].snr_db, b2[i].snr_db) << i;
    EXPECT_EQ(a2[i].range_m, b2[i].range_m) << i;
    if (a1[i].snr_db != a2[i].snr_db || a1[i].range_m != a2[i].range_m)
      fresh = true;
  }
  EXPECT_TRUE(fresh) << "the second frame repeated the first";
}

TEST(Network, SensingSurvivesConcurrentDownlink) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const auto obs = net.sense_all(/*downlink_active=*/true);
  std::size_t detected = 0;
  for (const auto& o : obs)
    if (o.detected && o.range_error_m < 0.1) ++detected;
  EXPECT_GE(detected, 2u);
}

TEST(NetworkCalibration, CalibrateAllMatchesPerTagCalibrate) {
  // calibrate_all calibrates the tags as one batch on the network's pool;
  // the tables, and what each tag decodes next, equal calibrating each tag
  // alone.
  const NetworkConfig cfg = three_tag_network();
  BiScatterNetwork batched(cfg);
  batched.calibrate_all();
  BiScatterNetwork alone(cfg);
  const double amplitude =
      incident_paths_for(cfg.base, cfg.base.calibration_range_m).front().amplitude_v;
  for (std::size_t i = 0; i < cfg.tags.size(); ++i)
    alone.tag_node(i).calibrate(amplitude);

  for (std::size_t i = 0; i < cfg.tags.size(); ++i) {
    const auto& a = batched.tag_node(i).calibration();
    const auto& b = alone.tag_node(i).calibration();
    EXPECT_TRUE(a.calibrated);
    EXPECT_EQ(a.slot_beat_freqs_hz, b.slot_beat_freqs_hz) << i;
    EXPECT_EQ(a.slot_phases_rad, b.slot_phases_rad) << i;
  }
  const phy::Bits payload = {1, 1, 0, 1, 0, 0, 1, 0};
  const auto got = batched.send_downlink(phy::kBroadcastAddress, payload);
  const auto want = alone.send_downlink(phy::kBroadcastAddress, payload);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].locked, want[i].locked) << i;
    EXPECT_EQ(got[i].crc_ok, want[i].crc_ok) << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << i;
  }
}

}  // namespace
}  // namespace bis::core
