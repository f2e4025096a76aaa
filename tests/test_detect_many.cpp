// Batched multi-tag detection (TagDetector::detect_many): bitwise parity
// with the per-tag detect() reference at every pool width and SIMD target;
// bitwise agreement of detect_many/detect_slots
// with an independent per-bin reference; and the modulation-frequency
// collision counter used by BiScatterNetwork.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/network.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peak.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/range_align.hpp"
#include "radar/range_processor.hpp"
#include "radar/tag_detector.hpp"

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

struct SceneTag {
  double range_m;
  double mod_freq_hz;  ///< 0 = static reflector (never switches).
};

/// A frame with several square-wave tags plus static clutter. Each tag
/// toggles between full and residual amplitude on its own frequency.
AlignedProfiles make_frame(const std::vector<SceneTag>& tags,
                           std::uint64_t seed, std::size_t n_chirps = 256) {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = -90.0;
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  IfSynthesizer synth(cfg, Rng(seed));
  RangeProcessor proc{RangeProcessorConfig{}};
  const auto chirp = fixed_chirp();
  std::vector<RangeProfile> profiles;
  for (std::size_t m = 0; m < n_chirps; ++m) {
    const double t = static_cast<double>(m) * kPeriod;
    std::vector<IfReturn> rets = {{1.3, 2e-4, 0.1}, {4.2, 8e-5, 1.0}};
    for (const SceneTag& tag : tags) {
      bool on = true;
      if (tag.mod_freq_hz > 0.0) {
        const double ph =
            t * tag.mod_freq_hz - std::floor(t * tag.mod_freq_hz);
        on = ph < 0.5;
      }
      rets.push_back({tag.range_m, on ? 2e-5 : 4e-7, 0.0});
    }
    profiles.push_back(proc.process(synth.synthesize(chirp, rets), chirp, kFs));
  }
  RangeAligner aligner{RangeAlignConfig{}};
  auto aligned = aligner.align(profiles);
  subtract_background(aligned, 0);
  return aligned;
}

::testing::AssertionResult det_bits_eq(const TagDetection& a,
                                       const TagDetection& b) {
  if (a.found != b.found)
    return ::testing::AssertionFailure() << "found " << a.found << " vs "
                                         << b.found;
  if (a.grid_bin != b.grid_bin)
    return ::testing::AssertionFailure() << "grid_bin " << a.grid_bin
                                         << " vs " << b.grid_bin;
  const double av[] = {a.range_m, a.mod_power, a.snr_db, a.signature_score};
  const double bv[] = {b.range_m, b.mod_power, b.snr_db, b.signature_score};
  for (int i = 0; i < 4; ++i) {
    if (std::bit_cast<std::uint64_t>(av[i]) !=
        std::bit_cast<std::uint64_t>(bv[i]))
      return ::testing::AssertionFailure()
             << "field " << i << ": " << av[i] << " vs " << bv[i]
             << " (bit patterns differ)";
  }
  return ::testing::AssertionSuccess();
}

TagDetectorConfig config_for(double freq) {
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = freq;
  return cfg;
}

/// Reference: a fresh single-tag detector per target, inline.
std::vector<TagDetection> sequential_reference(
    const AlignedProfiles& aligned, const std::vector<TagTarget>& targets) {
  std::vector<TagDetection> out;
  for (const TagTarget& t : targets) {
    TagDetectorConfig cfg = config_for(t.expected_mod_freq_hz);
    cfg.candidate_mod_freqs_hz = t.candidate_mod_freqs_hz;
    out.push_back(TagDetector(cfg).detect(aligned));
  }
  return out;
}

/// Restores the process-global SIMD dispatch target after each test.
class DetectMany : public ::testing::Test {
 protected:
  void TearDown() override { dsp::kernels::set_target(saved_); }
  dsp::kernels::SimdTarget saved_ = dsp::kernels::active_target();
};

std::vector<dsp::kernels::SimdTarget> available_targets() {
  using dsp::kernels::SimdTarget;
  std::vector<SimdTarget> out;
  for (SimdTarget t :
       {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2})
    if (dsp::kernels::target_available(t)) out.push_back(t);
  return out;
}

}  // namespace

TEST_F(DetectMany, BitwiseParityAcrossThreadsAndTargets) {
  const std::vector<SceneTag> scene = {
      {2.0, 700.0}, {3.1, 1100.0}, {5.2, 1500.0}, {6.4, 2100.0}};
  const auto aligned = make_frame(scene, 41);
  std::vector<TagTarget> targets;
  for (const SceneTag& t : scene) targets.push_back({t.mod_freq_hz, {}});

  for (dsp::kernels::SimdTarget t : available_targets()) {
    ASSERT_TRUE(dsp::kernels::set_target(t));
    SCOPED_TRACE(dsp::kernels::target_name(t));
    const auto ref = sequential_reference(aligned, targets);
    ASSERT_TRUE(ref[0].found && ref[1].found && ref[2].found && ref[3].found);
    const TagDetector det(config_for(targets[0].expected_mod_freq_hz));
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      const auto got = det.detect_many(aligned, targets,
                                       threads > 1 ? &pool : nullptr);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("tag=" + std::to_string(i));
        EXPECT_TRUE(det_bits_eq(got[i], ref[i]));
      }
    }
  }
}

TEST_F(DetectMany, SingleTargetMatchesDetect) {
  const auto aligned = make_frame({{4.0, 900.0}}, 42);
  const TagDetector det(config_for(900.0));
  const std::vector<TagTarget> targets = {{900.0, {}}};
  const auto batched = det.detect_many(aligned, targets);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_TRUE(det_bits_eq(batched[0], det.detect(aligned)));
  EXPECT_TRUE(batched[0].found);
}

TEST_F(DetectMany, DuplicateFrequenciesYieldIdenticalDetections) {
  // Two targets listening on the same tone must come back bit-identical —
  // the bank folds their rows independently but from the same spectra.
  const auto aligned = make_frame({{3.0, 1300.0}}, 43);
  const TagDetector det(config_for(1300.0));
  const std::vector<TagTarget> targets = {{1300.0, {}}, {1300.0, {}}};
  ThreadPool pool(2);
  const auto got = det.detect_many(aligned, targets, &pool);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].found);
  EXPECT_TRUE(det_bits_eq(got[0], got[1]));
}

TEST_F(DetectMany, StaticReflectorAtClutterRangeNotDetected) {
  // One modulated tag plus a strong *static* reflector: the target listening
  // for a tone that nothing transmits must not claim the clutter bin.
  const auto aligned = make_frame({{3.5, 1100.0}, {5.0, 0.0}}, 44);
  const TagDetector det(config_for(1100.0));
  const std::vector<TagTarget> targets = {{1100.0, {}}, {1900.0, {}}};
  const auto got = det.detect_many(aligned, targets);
  EXPECT_TRUE(got[0].found);
  EXPECT_NEAR(got[0].range_m, 3.5, 0.05);
  EXPECT_FALSE(got[1].found);
}

TEST_F(DetectMany, FskCandidatesMatchSequentialReference) {
  const auto aligned = make_frame({{3.5, 1600.0}}, 45);
  const std::vector<TagTarget> targets = {
      {800.0, {800.0, 1200.0, 1600.0, 2000.0}}};
  const auto ref = sequential_reference(aligned, targets);
  TagDetectorConfig cfg = config_for(800.0);
  cfg.candidate_mod_freqs_hz = targets[0].candidate_mod_freqs_hz;
  const TagDetector det(cfg);
  const auto got = det.detect_many(aligned, targets);
  ASSERT_TRUE(ref[0].found);
  EXPECT_TRUE(det_bits_eq(got[0], ref[0]));
}

// ---------------------------------------------------------------------------
// Independent per-bin reference. detect() and detect_many() run the same
// windowed scoring core, so the parity tests above compare that core with
// itself. This reference rebuilds detection from public pieces only — the
// detector's slow_time_spectrum, bis::median, square_wave_signature scored
// by signature_score, and find_peak — applying the documented gates and
// block fusion one bin and one candidate frequency at a time, with the
// noise floor computed eagerly for every bin.

namespace {

struct ReferenceDetections {
  std::vector<TagDetection> dets;
  std::size_t signature_passes = 0;  ///< (block, bin, row) past the gate.
  std::size_t bins_below_min_range = 0;
};

ReferenceDetections reference_detect(const TagDetector& detector,
                                     const AlignedProfiles& a,
                                     std::span<const TagTarget> targets,
                                     std::size_t first, std::size_t count) {
  const TagDetectorConfig& cfg = detector.config();
  const std::size_t n_bins = a.n_bins();
  std::size_t block = cfg.block_chirps;
  if (block == 0 || block > count) block = count;
  const std::size_t n_fft =
      dsp::next_power_of_two(block) * cfg.slow_time_pad_factor;
  // The detector's documented 1 ps quantization of the chirp cadence.
  const double period = std::round(a.chirp_period_s * 1e12) / 1e12;
  const double bin_hz = (1.0 / period) / static_cast<double>(n_fft);

  ReferenceDetections ref;
  for (std::size_t b = 0; b < n_bins; ++b)
    if (a.range_grid[b] < cfg.min_range_m) ++ref.bins_below_min_range;
  for (const TagTarget& target : targets) {
    std::vector<double> cands = target.candidate_mod_freqs_hz;
    if (cands.empty()) cands = {target.expected_mod_freq_hz};
    std::vector<double> metric(n_bins, 0.0), tone(n_bins, 0.0),
        score(n_bins, 0.0);
    for (std::size_t blk = 0; blk < count / block; ++blk) {
      std::vector<double> bm(n_bins, 0.0), bt(n_bins, 0.0), bs(n_bins, 0.0);
      for (std::size_t b = 0; b < n_bins; ++b) {
        if (a.range_grid[b] < cfg.min_range_m) continue;
        const dsp::RVec spec =
            detector.slow_time_spectrum(a, b, first + blk * block, block);
        const double floor = std::max(
            median(std::span<const double>(spec).subspan(1)), 1e-30);
        for (double f : cands) {
          const double s = dsp::signature_score(
              spec, dsp::square_wave_signature(f, cfg.duty_cycle, block,
                                               period, n_fft,
                                               cfg.n_harmonics));
          const long long mod_bin = std::llround(f / bin_hz);
          double p = 0.0;
          for (long long k = mod_bin - 1; k <= mod_bin + 1; ++k)
            if (k >= 0 && k < static_cast<long long>(spec.size()))
              p = std::max(p, spec[static_cast<std::size_t>(k)]);
          bt[b] = std::max(bt[b], p);
          bs[b] = std::max(bs[b], s);
          if (s < cfg.min_signature_score) continue;
          ++ref.signature_passes;
          if (p < cfg.min_tone_prominence * floor) continue;
          bm[b] = std::max(bm[b], p * s);
        }
      }
      // Block fusion: peak-normalized metric sum, max-merged tone and score.
      const double peak = *std::max_element(bm.begin(), bm.end());
      const double norm = peak > 0.0 ? 1.0 / peak : 0.0;
      for (std::size_t b = 0; b < n_bins; ++b) {
        metric[b] += norm * bm[b];
        tone[b] = std::max(tone[b], bt[b]);
        score[b] = std::max(score[b], bs[b]);
      }
    }

    TagDetection det;
    const dsp::Peak pk = dsp::find_peak(metric);
    if (metric[pk.index] > 0.0) {
      // SNR against the median tone power of the other in-range bins.
      std::vector<double> noise;
      for (std::size_t b = 0; b < n_bins; ++b) {
        const std::size_t dist = b > pk.index ? b - pk.index : pk.index - b;
        if (a.range_grid[b] >= cfg.min_range_m && dist > 4)
          noise.push_back(tone[b]);
      }
      const double nf = noise.empty() ? 1e-30 : median(noise);
      det.grid_bin = pk.index;
      det.mod_power = tone[pk.index];
      det.signature_score = score[pk.index];
      det.snr_db = to_db(std::max(tone[pk.index], 1e-30) / std::max(nf, 1e-30));
      det.found = det.snr_db >= cfg.detection_threshold_db;
      const double step = a.range_grid[1] - a.range_grid[0];
      det.range_m = a.range_grid[pk.index] +
                    (pk.refined_index - static_cast<double>(pk.index)) * step;
    }
    ref.dets.push_back(det);
  }
  return ref;
}

/// detect_many over the whole frame, inline and on a pool, against the
/// reference.
void expect_matches_reference(const TagDetector& detector,
                              const AlignedProfiles& a,
                              const std::vector<TagTarget>& targets,
                              const ReferenceDetections& ref) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const auto got = detector.detect_many(a, targets, p);
    ASSERT_EQ(got.size(), ref.dets.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(det_bits_eq(got[i], ref.dets[i]))
          << "tag " << i << (p ? " pooled" : " inline");
  }
}

}  // namespace

TEST_F(DetectMany, MatchesIndependentReferenceOokSingleBlock) {
  const auto aligned = make_frame({{4.0, 900.0}, {2.6, 1500.0}}, 46);
  const TagDetector det(config_for(900.0));
  const std::vector<TagTarget> targets = {{900.0, {}}, {1500.0, {}}};
  const auto ref = reference_detect(det, aligned, targets, 0, 256);
  ASSERT_TRUE(ref.dets[0].found && ref.dets[1].found);
  EXPECT_NEAR(ref.dets[0].range_m, 4.0, 0.05);
  expect_matches_reference(det, aligned, targets, ref);
  EXPECT_TRUE(det_bits_eq(det.detect(aligned), ref.dets[0]));
}

TEST_F(DetectMany, MatchesIndependentReferenceFskFourBlocks) {
  const auto aligned = make_frame({{3.5, 1600.0}}, 47);
  TagDetectorConfig cfg = config_for(800.0);
  cfg.candidate_mod_freqs_hz = {800.0, 1200.0, 1600.0, 2000.0};
  cfg.block_chirps = 64;  // 256 chirps → 4 fused blocks.
  const TagDetector det(cfg);
  const std::vector<TagTarget> targets = {{800.0, cfg.candidate_mod_freqs_hz},
                                          {1200.0, {1200.0, 2000.0}}};
  const auto ref = reference_detect(det, aligned, targets, 0, 256);
  ASSERT_TRUE(ref.dets[0].found);
  EXPECT_NEAR(ref.dets[0].range_m, 3.5, 0.05);
  expect_matches_reference(det, aligned, targets, ref);
}

TEST_F(DetectMany, MatchesIndependentReferenceWhenNoBinPassesSignatureGate) {
  // Nothing transmits 1900 Hz, and a gate this strict rejects every bin, so
  // the noise floor is never read.
  const auto aligned = make_frame({{3.5, 1100.0}, {5.0, 0.0}}, 48);
  TagDetectorConfig cfg = config_for(1900.0);
  cfg.min_signature_score = 0.9;
  const TagDetector det(cfg);
  const std::vector<TagTarget> targets = {{1900.0, {}}, {2300.0, {}}};
  const auto ref = reference_detect(det, aligned, targets, 0, 256);
  ASSERT_EQ(ref.signature_passes, 0u);
  EXPECT_FALSE(ref.dets[0].found || ref.dets[1].found);
  expect_matches_reference(det, aligned, targets, ref);
}

TEST_F(DetectMany, MatchesIndependentReferenceWithBinsBelowMinRange) {
  // The 2 m tag sits inside the ignored near region; the 4.5 m tag does not.
  const auto aligned = make_frame({{2.0, 900.0}, {4.5, 1300.0}}, 49);
  TagDetectorConfig cfg = config_for(900.0);
  cfg.min_range_m = 3.0;
  const TagDetector det(cfg);
  const std::vector<TagTarget> targets = {{900.0, {}}, {1300.0, {}}};
  const auto ref = reference_detect(det, aligned, targets, 0, 256);
  ASSERT_GT(ref.bins_below_min_range, 4u);
  ASSERT_TRUE(ref.dets[1].found);
  EXPECT_NEAR(ref.dets[1].range_m, 4.5, 0.05);
  EXPECT_GT(std::abs(ref.dets[0].range_m - 2.0), 0.5);  // Never at 2 m.
  expect_matches_reference(det, aligned, targets, ref);
}

TEST_F(DetectMany, DetectSlotsMatchesIndependentReference) {
  // Two 128-chirp slot windows of one 256-chirp frame, each with its own
  // targets; slot 1 listens on tones slot 0 does not.
  const auto aligned = make_frame({{2.4, 900.0}, {4.2, 1500.0}}, 50);
  const TagDetector det(config_for(900.0));
  const std::vector<TagTarget> targets = {
      {900.0, {}}, {1500.0, {}}, {1500.0, {}}, {700.0, {900.0, 1300.0}}};
  const std::vector<SlotSpan> spans = {{0, 128, 0, 2}, {128, 128, 2, 2}};
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<TagDetection> got(targets.size());
    det.detect_slots(aligned, spans, targets, got, p);
    for (const SlotSpan& span : spans) {
      const auto ref = reference_detect(
          det, aligned,
          std::span<const TagTarget>(targets).subspan(span.first_target,
                                                      span.n_targets),
          span.first_chirp, span.n_chirps);
      for (std::size_t t = 0; t < span.n_targets; ++t)
        EXPECT_TRUE(det_bits_eq(got[span.first_target + t], ref.dets[t]))
            << "slot at chirp " << span.first_chirp << " target " << t
            << (p ? " pooled" : " inline");
    }
    EXPECT_TRUE(got[0].found && got[1].found && got[2].found && got[3].found);
  }
}

// ---------------------------------------------------------------------------
// Modulation-frequency spacing diagnostics (BiScatterNetwork)

TEST(ModFreqCollisions, CountsPairsCloserThanSlowTimeResolution) {
  // 256 chirps at 120 µs → resolution 1/(256·120e-6) ≈ 32.55 Hz.
  const double res = 1.0 / (256.0 * kPeriod);
  const std::vector<double> clean = {600.0, 600.0 + 2.0 * res,
                                     600.0 + 4.0 * res};
  EXPECT_EQ(core::count_mod_freq_collisions(clean, 256, kPeriod), 0u);

  const std::vector<double> tight = {600.0, 600.0 + 0.5 * res, 900.0};
  EXPECT_EQ(core::count_mod_freq_collisions(tight, 256, kPeriod), 1u);

  // Unsorted input: the counter must sort before pairing neighbours.
  const std::vector<double> unsorted = {900.0, 600.0 + 0.5 * res, 600.0};
  EXPECT_EQ(core::count_mod_freq_collisions(unsorted, 256, kPeriod), 1u);

  const std::vector<double> all_same = {700.0, 700.0, 700.0};
  EXPECT_EQ(core::count_mod_freq_collisions(all_same, 256, kPeriod), 2u);
}

TEST(ModFreqCollisions, DegenerateInputsCountZero) {
  EXPECT_EQ(core::count_mod_freq_collisions({}, 256, kPeriod), 0u);
  const std::vector<double> one = {800.0};
  EXPECT_EQ(core::count_mod_freq_collisions(one, 256, kPeriod), 0u);
  const std::vector<double> two = {800.0, 800.1};
  EXPECT_EQ(core::count_mod_freq_collisions(two, 0, kPeriod), 0u);
  EXPECT_EQ(core::count_mod_freq_collisions(two, 256, 0.0), 0u);
}

TEST(ModFreqCollisions, NetworkSpacingAvoidsCollisionsAtModestCounts) {
  // assign_mod_frequencies spreads tags over 70% of slow-time Nyquist; at
  // counts where spacing exceeds the frame's frequency resolution the
  // network must report zero collisions.
  const auto freqs = core::assign_mod_frequencies(16, kPeriod);
  EXPECT_EQ(core::count_mod_freq_collisions(freqs, 256, kPeriod), 0u);
}

}  // namespace bis::radar
