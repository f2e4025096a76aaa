// Tag detection, localization, and uplink decoding at the radar
// (paper §3.3), on synthesized frames.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/random.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"
#include "radar/uplink_decoder.hpp"

namespace bis::radar {
namespace {

constexpr double kFs = 2e6;
constexpr double kPeriod = 120e-6;

rf::ChirpParams fixed_chirp() {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = 1e9;
  c.duration_s = 60e-6;
  c.idle_s = kPeriod - c.duration_s;
  return c;
}

/// A frame where the tag at @p tag_range toggles per @p states; clutter at
/// fixed ranges; modest noise.
AlignedProfiles make_frame(double tag_range, const std::vector<int>& states,
                           std::uint64_t seed, double tag_amp = 2e-5,
                           double noise_dbm = -90.0) {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = noise_dbm;
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  IfSynthesizer synth(cfg, Rng(seed));
  const auto chirp = fixed_chirp();
  ReceiveFrame frame;
  for (std::size_t m = 0; m < states.size(); ++m) {
    std::vector<IfReturn> rets = {
        {1.3, 2e-4, 0.1}, {4.2, 8e-5, 1.0},  // static clutter
        {tag_range, states[m] ? tag_amp : tag_amp * 0.02, 0.0}};
    frame.if_samples.push_back(synth.synthesize(chirp, rets));
  }
  const ReceiveChain chain(kFs, RangeAlignConfig{},
                           /*background_subtraction=*/true);
  chain.range_fft(std::vector<rf::ChirpParams>(states.size(), chirp), frame,
                  nullptr);
  chain.if_correct(frame, nullptr);
  return frame.aligned;
}

std::vector<int> square_states(double f_mod, std::size_t n) {
  std::vector<int> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * kPeriod;
    const double ph = t * f_mod - std::floor(t * f_mod);
    s[i] = ph < 0.5 ? 1 : 0;
  }
  return s;
}

TEST(TagDetector, LocalizesModulatedTag) {
  const auto aligned = make_frame(6.0, square_states(800.0, 256), 1);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  const auto d = det.detect(aligned);
  EXPECT_TRUE(d.found);
  EXPECT_NEAR(d.range_m, 6.0, 0.05);  // centimetre-level
  EXPECT_GT(d.snr_db, 15.0);
  EXPECT_GT(d.signature_score, 0.5);
}

TEST(TagDetector, IgnoresStaticClutter) {
  // Without modulation the detector must not claim a confident detection at
  // a clutter range.
  const std::vector<int> always_on(256, 1);
  const auto aligned = make_frame(6.0, always_on, 2);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  const auto d = det.detect(aligned);
  EXPECT_FALSE(d.found);
}

TEST(TagDetector, FindsTagAmongCandidateFrequencies) {
  const auto aligned = make_frame(3.5, square_states(1600.0, 256), 3);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  cfg.candidate_mod_freqs_hz = {800.0, 1200.0, 1600.0, 2000.0};
  const TagDetector det(cfg);
  const auto d = det.detect(aligned);
  EXPECT_TRUE(d.found);
  EXPECT_NEAR(d.range_m, 3.5, 0.05);
}

TEST(TagDetector, SnrFallsWithTagAmplitude) {
  // Compare in the noise-limited regime (very strong tags saturate the SNR
  // metric at the range-sidelobe leakage floor, which is also physical).
  const auto strong = make_frame(5.0, square_states(800.0, 256), 4, 4e-6);
  const auto weak = make_frame(5.0, square_states(800.0, 256), 4, 8e-7);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  const double snr_strong = det.detect(strong).snr_db;
  const double snr_weak = det.detect(weak).snr_db;
  EXPECT_GT(snr_strong, snr_weak + 6.0);
}

TEST(TagDetector, TooFewChirpsReturnsNotFound) {
  const auto aligned = make_frame(5.0, square_states(800.0, 4), 5);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  EXPECT_FALSE(det.detect(aligned).found);
}

TEST(TagDetector, SlowTimeSpectrumWindowing) {
  const auto aligned = make_frame(5.0, square_states(800.0, 128), 6);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  const auto whole = det.slow_time_spectrum(aligned, 10);
  const auto half = det.slow_time_spectrum(aligned, 10, 0, 64);
  EXPECT_GT(whole.size(), half.size());
}

TEST(TagDetector, TiledSpectraMatchPerBinSpectrumBitForBit) {
  // The scoring path's Doppler stage against the per-bin definition, on a
  // 99-chirp window: odd, so the rfft packs a lone last sample, and not a
  // power of two, so only a true divide reproduces each bin's mean. The
  // tile is wider than the detector's own and starts mid-frame.
  const auto aligned = make_frame(5.0, square_states(800.0, 128), 9);
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  const TagDetector det(cfg);
  const std::size_t first = 20, count = 99, b0 = 3, width = 67;
  const auto tile = det.slow_time_spectra(aligned, b0, width, first, count);
  for (std::size_t j = 0; j < width; ++j) {
    const auto spec = det.slow_time_spectrum(aligned, b0 + j, first, count);
    ASSERT_EQ(tile.size(), spec.size() * width);
    for (std::size_t k = 0; k < spec.size(); ++k)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(tile[k * width + j]),
                std::bit_cast<std::uint64_t>(spec[k]))
          << "bin " << b0 + j << " frequency " << k;
  }
}

TEST(UplinkDecoder, FskSymbolsRoundTrip) {
  phy::UplinkConfig ul;
  ul.scheme = phy::UplinkScheme::kFsk;
  ul.mod_frequencies_hz = {800.0, 1200.0, 1600.0, 2000.0};
  ul.chirps_per_symbol = 64;
  ul.chirp_period_s = kPeriod;

  Rng rng(7);
  const auto bits = rng.bits(8);  // 4 symbols
  const auto states = phy::uplink_modulate(ul, bits);
  const auto aligned = make_frame(4.0, states, 8);

  TagDetectorConfig dc;
  dc.expected_mod_freq_hz = 800.0;
  dc.candidate_mod_freqs_hz = ul.mod_frequencies_hz;
  dc.block_chirps = ul.chirps_per_symbol;
  const TagDetector det(dc);
  const auto d = det.detect(aligned);
  ASSERT_TRUE(d.found);

  const UplinkDecoder decoder(ul);
  UplinkDecodeResult r;
  decoder.decode_into(aligned, d.grid_bin, r);
  ASSERT_GE(r.bits.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(r.bits[i], bits[i]) << i;
}

TEST(UplinkDecoder, OokBitsRoundTrip) {
  phy::UplinkConfig ul;
  ul.scheme = phy::UplinkScheme::kOok;
  ul.mod_frequencies_hz = {1000.0};
  ul.chirps_per_symbol = 48;
  ul.chirp_period_s = kPeriod;

  const phy::Bits bits = {1, 0, 1, 1, 0};
  const auto states = phy::uplink_modulate(ul, bits);
  // Quiet frame: OOK "off" symbols decode from pure noise (tone power vs a
  // 2x off-tone median), so at -90 dBm the off-bit decision is a near coin
  // flip per noise realization. This test exercises the round trip, not
  // noise robustness.
  const auto aligned = make_frame(4.0, states, 9, 2e-5, -100.0);

  TagDetectorConfig dc;
  dc.expected_mod_freq_hz = 1000.0;
  const TagDetector det(dc);
  const auto d = det.detect(aligned);
  ASSERT_TRUE(d.found);

  const UplinkDecoder decoder(ul);
  UplinkDecodeResult r;
  decoder.decode_into(aligned, d.grid_bin, r);
  ASSERT_GE(r.bits.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_EQ(r.bits[i], bits[i]) << i;
}

TEST(UplinkDecoder, ConfidenceReported) {
  phy::UplinkConfig ul;
  ul.scheme = phy::UplinkScheme::kFsk;
  ul.mod_frequencies_hz = {800.0, 1600.0};
  ul.chirps_per_symbol = 64;
  ul.chirp_period_s = kPeriod;
  const phy::Bits bits = {1, 0};
  const auto states = phy::uplink_modulate(ul, bits);
  const auto aligned = make_frame(4.0, states, 10);
  const UplinkDecoder decoder(ul);
  // Decode straight at the true bin.
  std::size_t bin = 0;
  double best = 1e18;
  for (std::size_t b = 0; b < aligned.n_bins(); ++b) {
    const double d = std::abs(aligned.range_grid[b] - 4.0);
    if (d < best) {
      best = d;
      bin = b;
    }
  }
  UplinkDecodeResult r;
  decoder.decode_into(aligned, bin, r);
  ASSERT_EQ(r.symbol_confidence.size(), 2u);
  for (double c : r.symbol_confidence) EXPECT_GT(c, 1.5);
}

TEST(UplinkDecoder, SeriesShorterThanSymbolThrows) {
  phy::UplinkConfig ul;
  ul.scheme = phy::UplinkScheme::kOok;
  ul.mod_frequencies_hz = {1000.0};
  ul.chirps_per_symbol = 64;
  ul.chirp_period_s = kPeriod;
  const UplinkDecoder decoder(ul);
  dsp::RVec series(10, 0.0);
  UplinkDecodeResult r;
  EXPECT_THROW(decoder.decode_series_into(series, r), std::invalid_argument);
}

}  // namespace
}  // namespace bis::radar
