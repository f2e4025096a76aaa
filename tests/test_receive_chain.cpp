// The radar receive chain (paper §3.3): range FFT, the IF-correction /
// range-alignment stage (Fig. 7), windowed background subtraction, and the
// alphabet worst case.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "core/system_config.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/peak.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/receive_chain.hpp"

namespace bis::radar {
namespace {

constexpr double kFs = 2e6;

rf::ChirpParams chirp_with_duration(double duration_s) {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = 1e9;
  c.duration_s = duration_s;
  c.idle_s = 120e-6 - duration_s;
  return c;
}

IfSynthConfig quiet() {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = -140.0;
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  cfg.quantize = false;
  return cfg;
}

ReceiveChain chain_with(const RangeAlignConfig& align = {},
                        bool background_subtraction = false) {
  return ReceiveChain(kFs, align, background_subtraction);
}

RangeProfile profile_for(double target_range, double duration, Rng rng = Rng(1)) {
  IfSynthesizer synth(quiet(), rng);
  const auto chirp = chirp_with_duration(duration);
  const auto x =
      synth.synthesize(chirp, std::vector<IfReturn>{{target_range, 1e-3, 0.0}});
  RangeProfile profile;
  chain_with().range_fft(x, chirp, profile);
  return profile;
}

/// @p profiles IF-corrected as one frame, without background subtraction.
AlignedProfiles align(std::vector<RangeProfile> profiles,
                      const RangeAlignConfig& config = {}) {
  ReceiveFrame frame;
  frame.profiles = std::move(profiles);
  chain_with(config).if_correct(frame, nullptr);
  return frame.aligned;
}

double peak_range(const RangeProfile& p) {
  dsp::RVec mag(p.bins.size());
  for (std::size_t i = 0; i < mag.size(); ++i) mag[i] = std::abs(p.bins[i]);
  const auto peak = dsp::find_peak(mag);
  return peak.refined_index / static_cast<double>(p.n_fft) * p.max_range_m();
}

TEST(ReceiveChain, PeakAtTargetRange) {
  for (double r : {1.5, 4.0, 7.0}) {
    const auto p = profile_for(r, 50e-6);
    EXPECT_NEAR(peak_range(p), r, 0.08) << r;
  }
}

TEST(ReceiveChain, BinMetadataConsistent) {
  const auto p = profile_for(3.0, 50e-6);
  EXPECT_EQ(p.bins.size(), p.n_fft);
  EXPECT_NEAR(p.bin_range_m(0), 0.0, 1e-12);
  EXPECT_NEAR(p.bin_range_m(p.n_fft / 2), p.max_range_m() / 2.0, 1e-9);
  EXPECT_NEAR(p.bin_spacing_m() * static_cast<double>(p.n_fft), p.max_range_m(),
              1e-9);
  const auto axis = p.range_axis();
  EXPECT_EQ(axis.size(), p.bins.size());
  EXPECT_LT(axis.front(), axis.back());
  // The axis hoists R_max out of the loop but keeps bin_range_m's
  // expression, so the regrid's stencil keys equal the per-bin ranges.
  for (std::size_t k = 0; k < axis.size(); ++k)
    ASSERT_EQ(axis[k], p.bin_range_m(k)) << "bin " << k;
}

TEST(ReceiveChain, AmplitudeComparableAcrossDurations) {
  // The window-sum normalization keeps the peak magnitude of the same
  // target comparable for short and long CSSK chirps.
  const auto a = profile_for(3.0, 40e-6);
  const auto b = profile_for(3.0, 90e-6);
  dsp::RVec ma(a.bins.size()), mb(b.bins.size());
  for (std::size_t i = 0; i < ma.size(); ++i) ma[i] = std::abs(a.bins[i]);
  for (std::size_t i = 0; i < mb.size(); ++i) mb[i] = std::abs(b.bins[i]);
  const double pa = *std::max_element(ma.begin(), ma.end());
  const double pb = *std::max_element(mb.begin(), mb.end());
  EXPECT_NEAR(pa / pb, 1.0, 0.1);
}

TEST(ReceiveChain, RawBinsDisagreeAcrossSlopes) {
  // Fig. 7(a): without IF correction, the same target lands on different
  // bins for different chirp durations.
  const auto a = profile_for(5.0, 40e-6);
  const auto b = profile_for(5.0, 90e-6);
  dsp::RVec ma(a.bins.size()), mb(b.bins.size());
  for (std::size_t i = 0; i < ma.size(); ++i) ma[i] = std::abs(a.bins[i]);
  for (std::size_t i = 0; i < mb.size(); ++i) mb[i] = std::abs(b.bins[i]);
  const double bin_a = dsp::find_peak(ma).refined_index / static_cast<double>(a.n_fft);
  const double bin_b = dsp::find_peak(mb).refined_index / static_cast<double>(b.n_fft);
  EXPECT_GT(std::abs(bin_a - bin_b), 0.05);  // normalized bin positions differ
}

TEST(ReceiveChain, CorrectedProfilesAgree) {
  // Fig. 7(b): after alignment the peak sits at the same grid position for
  // every slope.
  std::vector<RangeProfile> profiles;
  Rng rng(7);
  for (double d : {40e-6, 55e-6, 70e-6, 90e-6})
    profiles.push_back(profile_for(5.0, d, rng.fork()));
  const auto aligned = align(profiles);
  ASSERT_EQ(aligned.n_chirps(), 4u);
  std::vector<double> peaks;
  for (std::size_t m = 0; m < 4; ++m) {
    dsp::RVec mag(aligned.n_bins());
    for (std::size_t b = 0; b < aligned.n_bins(); ++b)
      mag[b] = std::abs(aligned.rows[m][b]);
    const auto p = dsp::find_peak(mag);
    const double step = aligned.range_grid[1] - aligned.range_grid[0];
    peaks.push_back(aligned.range_grid[p.index] +
                    (p.refined_index - static_cast<double>(p.index)) * step);
  }
  for (double r : peaks) EXPECT_NEAR(r, 5.0, 0.08);
  EXPECT_LT(bis::stddev(peaks), 0.04);
}

TEST(ReceiveChain, GridCoversMinimumMaxRange) {
  std::vector<RangeProfile> profiles;
  profiles.push_back(profile_for(2.0, 40e-6));
  profiles.push_back(profile_for(2.0, 90e-6));
  const auto aligned = align(profiles);
  const double r_min_max =
      std::min(profiles[0].max_range_m(), profiles[1].max_range_m());
  EXPECT_NEAR(aligned.range_grid.back(), r_min_max, 1e-6);
}

TEST(ReceiveChain, ColumnAccessors) {
  std::vector<RangeProfile> profiles;
  profiles.push_back(profile_for(3.0, 50e-6));
  profiles.push_back(profile_for(3.0, 50e-6));
  const auto aligned = align(profiles);
  const auto col = aligned.column(10);
  const auto mag = aligned.column_magnitude(10);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_NEAR(std::abs(col[0]), mag[0], 1e-12);
}

TEST(ReceiveChain, ColumnMagnitudeIsKmagOfColumn) {
  // One magnitude definition on the radar path: every column_magnitude
  // overload equals kmag (sqrt(re² + im²)) of the complex column bit for bit.
  // hypot rounds differently on about one random value in six.
  AlignedProfiles p;
  p.range_grid.assign(37, 0.0);
  Rng rng(23);
  for (int m = 0; m < 64; ++m) {
    dsp::CVec row(p.range_grid.size());
    for (auto& v : row) v = {rng.gaussian(), rng.gaussian()};
    p.rows.push_back(std::move(row));
  }
  const std::size_t first = 5, count = 40;
  std::vector<double> span_out(p.n_chirps()), window_out(count);
  for (std::size_t bin = 0; bin < p.n_bins(); ++bin) {
    const dsp::CVec col = p.column(bin);
    dsp::RVec expected(col.size());
    dsp::kernels::kmag(col, expected);
    const dsp::RVec allocated = p.column_magnitude(bin);
    p.column_magnitude(bin, span_out);
    p.column_magnitude(bin, first, count, window_out);
    for (std::size_t m = 0; m < p.n_chirps(); ++m) {
      const auto bits = std::bit_cast<std::uint64_t>(expected[m]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(allocated[m]), bits)
          << "bin " << bin << " chirp " << m;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(span_out[m]), bits)
          << "bin " << bin << " chirp " << m;
      if (m >= first && m < first + count) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(window_out[m - first]), bits)
            << "bin " << bin << " chirp " << m << " (window)";
      }
    }
  }
}

TEST(BackgroundSubtraction, RemovesStaticClutterKeepsToggling) {
  // Two chirps with identical clutter; the tag toggles. After subtracting
  // row 0, the clutter vanishes and the tag difference remains.
  IfSynthesizer synth(quiet(), Rng(3));
  const auto chirp = chirp_with_duration(60e-6);
  ReceiveFrame frame;
  for (int m = 0; m < 2; ++m) {
    std::vector<IfReturn> rets = {{2.0, 5e-3, 0.3}};  // clutter
    rets.push_back({5.0, m == 0 ? 0.0 : 1e-3, 0.0});  // tag off/on
    frame.if_samples.push_back(synth.synthesize(chirp, rets));
  }
  const ReceiveChain chain = chain_with({}, /*background_subtraction=*/true);
  chain.range_fft(std::vector<rf::ChirpParams>(2, chirp), frame, nullptr);
  chain.if_correct(frame, nullptr);
  const AlignedProfiles& aligned = frame.aligned;
  dsp::RVec mag(aligned.n_bins());
  for (std::size_t b = 0; b < aligned.n_bins(); ++b)
    mag[b] = std::abs(aligned.rows[1][b]);
  const auto p = dsp::find_peak(mag);
  const double peak_r = aligned.range_grid[p.index];
  EXPECT_NEAR(peak_r, 5.0, 0.2);  // the toggling tag, not the 2 m clutter
}

TEST(ReceiveChain, BackgroundWindowsMustTileTheFrame) {
  // if_correct subtracts each window's first row; a window that does not
  // divide the frame would leave a ragged tail with no background of its
  // own, so the chain refuses it before touching the frame.
  ReceiveFrame frame;
  for (int m = 0; m < 6; ++m) frame.profiles.push_back(profile_for(3.0, 50e-6));
  const ReceiveChain chain = chain_with({}, /*background_subtraction=*/true);
  EXPECT_THROW(chain.if_correct(frame, nullptr, 4), std::invalid_argument);
  EXPECT_TRUE(frame.aligned.rows.empty());
  EXPECT_NO_THROW(chain.if_correct(frame, nullptr, 3));
  EXPECT_EQ(frame.aligned.rows[3], dsp::CVec(frame.aligned.n_bins()));
}

TEST(ReceiveChain, ExtentIsTheAlphabetWorstCase) {
  // The extent the link server pins its grid with, and job buffers are
  // reserved at, is exactly what range_fft produces for the alphabet's
  // longest, largest-N_FFT and shortest-R_max chirps.
  const core::SystemConfig cfg;
  const auto alphabet = cfg.make_alphabet();
  const ReceiveChain chain = cfg.make_receive_chain();
  std::size_t max_samples = 0, max_fft = 0;
  double min_range = 1e300;
  for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot) {
    const auto chirp = alphabet.chirp(slot);
    const dsp::CVec silence(chain.samples_per_chirp(chirp));
    RangeProfile p;
    chain.range_fft(silence, chirp, p);
    max_samples = std::max(max_samples, silence.size());
    max_fft = std::max(max_fft, p.n_fft);
    min_range = std::min(min_range, p.max_range_m());
  }
  const AlphabetExtent extent = chain.extent(alphabet);
  EXPECT_EQ(extent.max_samples, max_samples);
  EXPECT_EQ(extent.max_fft_bins, max_fft);
  EXPECT_EQ(extent.covered_range_m, min_range);
  EXPECT_EQ(ReceiveChain::fft_size(max_samples), max_fft);

  ReceiveFrame frame;
  ReceiveChain::reserve(frame, 3, extent);
  ASSERT_EQ(frame.if_samples.size(), 3u);
  ASSERT_EQ(frame.profiles.size(), 3u);
  EXPECT_GE(frame.if_samples[2].capacity(), max_samples);
  EXPECT_GE(frame.profiles[2].bins.capacity(), max_fft);
}

}  // namespace
}  // namespace bis::radar
