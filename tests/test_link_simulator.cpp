// End-to-end link simulation: the system-level behaviours every evaluation
// figure relies on.

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiments.hpp"
#include "core/link_server.hpp"
#include "core/link_simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::core {
namespace {

SystemConfig base_config(double range_m = 3.0, std::uint64_t seed = 42) {
  SystemConfig cfg;
  cfg.tag_range_m = range_m;
  cfg.seed = seed;
  return cfg;
}

TEST(LinkSimulator, DownlinkCleanAtShortRange) {
  LinkSimulator sim(base_config(2.0));
  sim.calibrate_tag();
  Rng rng(1);
  const auto payload = rng.bits(80);
  const auto r = sim.run_downlink(payload);
  EXPECT_TRUE(r.locked);
  EXPECT_TRUE(r.crc_ok);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_EQ(r.parsed.payload, payload);
}

TEST(LinkSimulator, TagDecoderBuiltOnFirstDownlink) {
  // A tag plans its decoder only when a downlink arrives: constructing and
  // calibrating a link builds none, nor do uplink-only LinkServer links;
  // the first downlink builds one and the second reuses it.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& builds =
      obs::Registry::instance().counter("bis.tag.decoder_builds");
  const std::uint64_t before = builds.value();

  LinkSimulator sim(base_config(2.0));
  sim.calibrate_tag();
  LinkServerConfig server_cfg;
  server_cfg.base = base_config(2.0);
  server_cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  server_cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  server_cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  server_cfg.n_links = 2;
  server_cfg.workers = 2;
  server_cfg.bits_per_frame = 2;
  LinkServer server(server_cfg);
  server.run(1);
  EXPECT_EQ(builds.value(), before);

  Rng rng(1);
  EXPECT_TRUE(sim.run_downlink(rng.bits(80)).locked);
  EXPECT_TRUE(sim.run_downlink(rng.bits(80)).locked);
  EXPECT_EQ(builds.value(), before + 1);
  obs::set_enabled(was_enabled);
}

TEST(LinkSimulator, DownlinkSnrFallsWithRange) {
  LinkSimulator sim(base_config());
  const double s1 = sim.downlink_envelope_snr_db(1.0);
  const double s4 = sim.downlink_envelope_snr_db(4.0);
  // Square-law detector: one-way R² becomes 40 dB/decade at the output.
  EXPECT_NEAR(s1 - s4, 40.0 * std::log10(4.0), 0.5);
}

TEST(LinkSimulator, UplinkRoundTripAndLocalization) {
  LinkSimulator sim(base_config(4.0));
  sim.calibrate_tag();
  const phy::Bits bits = {1, 0, 1, 1, 0, 0, 1, 0};
  const auto r = sim.run_uplink(bits, /*downlink_active=*/false);
  EXPECT_TRUE(r.detection.found);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_LT(r.range_error_m, 0.05);  // centimetre-level (paper §5.2)
  EXPECT_GT(r.snr_processed_db, 20.0);
}

TEST(LinkSimulator, LocalizationSurvivesCsskSlopes) {
  // Fig. 16: localization during downlink communication stays cm-level.
  LinkSimulator sim(base_config(5.0));
  sim.calibrate_tag();
  const phy::Bits bits = {1, 0, 1, 0};
  const auto r = sim.run_uplink(bits, /*downlink_active=*/true);
  EXPECT_TRUE(r.detection.found);
  EXPECT_LT(r.range_error_m, 0.06);
}

TEST(LinkSimulator, IntegratedFrameCarriesBothDirections) {
  auto cfg = base_config(2.5);
  cfg.tag.node.uplink.chirps_per_symbol = 32;
  LinkSimulator sim(cfg);
  sim.calibrate_tag();
  Rng rng(2);
  const auto payload = rng.bits(100);
  const phy::Bits ul = {1, 0, 1, 1};
  const auto r = sim.run_integrated(payload, ul);
  EXPECT_TRUE(r.downlink.locked);
  EXPECT_TRUE(r.downlink.crc_ok);
  EXPECT_EQ(r.downlink.bit_errors, 0u);
  EXPECT_TRUE(r.uplink.detection.found);
  EXPECT_EQ(r.uplink.bit_errors, 0u);
  EXPECT_LT(r.uplink.range_error_m, 0.06);
}

TEST(LinkSimulator, RetroReflectivityBoostsUplink) {
  auto with = base_config(6.0);
  auto without = base_config(6.0);
  without.tag.rf.retro_reflective = false;
  EXPECT_NEAR(LinkSimulator(with).uplink_power_at_radar_dbm(6.0) -
                  LinkSimulator(without).uplink_power_at_radar_dbm(6.0),
              with.tag.rf.retro_gain_db, 1e-9);
}

TEST(LinkSimulator, BerDegradesWithDistance) {
  // Coarse shape check of Fig. 13 (the bench sweeps finely).
  auto near_cfg = base_config(2.0, 7);
  auto far_cfg = base_config(11.0, 7);
  const auto near = measure_downlink_ber(near_cfg, 1500, 100);
  const auto far = measure_downlink_ber(far_cfg, 1500, 100);
  EXPECT_EQ(near.errors, 0u);
  EXPECT_GT(far.ber, 1e-3);
}

TEST(LinkSimulator, HeadlineOperatingPoint) {
  // The paper's headline: BER < 1e-3 at 7 m with 5-bit symbols.
  auto cfg = base_config(7.0, 3);
  const auto m = measure_downlink_ber(cfg, 4000, 120);
  EXPECT_LT(m.ber, 1e-3);
  EXPECT_EQ(m.packets_locked, m.packets);
}

TEST(LinkSimulator, SmallerBandwidthWorse) {
  auto wide = base_config(5.0, 9);
  auto narrow = base_config(5.0, 9);
  narrow.radar = RadarPreset::chirpgen_9ghz(250e6);
  const auto w = measure_downlink_ber(wide, 1500, 100);
  const auto n = measure_downlink_ber(narrow, 1500, 100);
  EXPECT_LT(w.ber, n.ber);  // Fig. 12's bandwidth ordering
}

TEST(LinkSimulator, ShorterDelayLineWorse) {
  auto long_dl = base_config(7.0, 11);
  auto short_dl = base_config(7.0, 11);
  short_dl.tag = TagPreset::prototype(9.0);
  const auto l = measure_downlink_ber(long_dl, 1500, 100);
  const auto s = measure_downlink_ber(short_dl, 1500, 100);
  EXPECT_LT(l.ber, s.ber);  // Fig. 14's ΔL ordering
}

TEST(LinkSimulator, DeterministicForFixedSeed) {
  auto cfg = base_config(6.0, 123);
  const auto a = measure_downlink_ber(cfg, 1000, 80);
  const auto b = measure_downlink_ber(cfg, 1000, 80);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.bits, b.bits);
}

TEST(Experiments, UplinkMeasurementShapes) {
  auto cfg = base_config(3.0, 5);
  const auto m = measure_uplink(cfg, 3, 8, false);
  EXPECT_EQ(m.detection_rate, 1.0);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_GT(m.mean_snr_processed_db, 20.0);
  EXPECT_LT(m.mean_range_error_m, 0.05);
}

TEST(Experiments, LocalizationMeasurement) {
  auto cfg = base_config(4.0, 6);
  const auto m = measure_localization(cfg, 5, false);
  EXPECT_EQ(m.detection_rate, 1.0);
  EXPECT_LT(m.median_error_m, 0.03);
  EXPECT_GE(m.p90_error_m, m.median_error_m);
}

TEST(Experiments, IntegratedMeasurement) {
  auto cfg = base_config(2.5, 8);
  cfg.tag.node.uplink.chirps_per_symbol = 32;
  // Integrated mode: the tag sees ~half the preamble chirps (it reflects
  // the other half), so the radar uses a longer preamble.
  cfg.packet.header_chirps = 12;
  cfg.packet.sync_chirps = 4;
  LinkSimulator sim(cfg);
  sim.calibrate_tag();
  Rng data_rng(cfg.seed ^ 0x15ACull);
  const auto m = measure_integrated(sim, 4, 80, 4, data_rng);
  EXPECT_EQ(m.downlink.packets_locked, m.downlink.packets);
  EXPECT_EQ(m.downlink.errors, 0u);
  EXPECT_EQ(m.uplink.detection_rate, 1.0);
}

}  // namespace
}  // namespace bis::core
