// Golden bit patterns of the synthesis sample path: ziggurat deviates, one
// radar IF link frame and one tag ADC stream; and of that link frame through
// the radar receive chain. Every other synthesis and receive-chain test is
// relative (fast path against a reference in the same build), so a change
// that moves both sides passes them; these values pin the absolute output.
// They were recorded before the one-pass tone bank, the branch-free ziggurat
// sign and the kquantize kernel replaced the per-tone, branchy and
// per-sample loops, which are exact rewrites. A value here moves only with a
// deliberate output change, recorded as such.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "core/link_simulator.hpp"
#include "core/system_config.hpp"
#include "dsp/kernels/kernels.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/receive_chain.hpp"
#include "tag/tag_frontend.hpp"

namespace bis {
namespace {

/// FNV-1a over the little-endian bytes of each value's bit pattern.
struct BitHash {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  void add(std::span<const double> v) {
    for (const double x : v) add(x);
  }
  void add(std::span<const dsp::cdouble> v) {
    add(std::span<const double>(reinterpret_cast<const double*>(v.data()),
                                2 * v.size()));
  }
};

std::vector<dsp::kernels::SimdTarget> available_targets() {
  std::vector<dsp::kernels::SimdTarget> out;
  for (const auto t : {dsp::kernels::SimdTarget::kScalar,
                       dsp::kernels::SimdTarget::kSse2,
                       dsp::kernels::SimdTarget::kAvx2})
    if (dsp::kernels::target_available(t)) out.push_back(t);
  return out;
}

/// Restores the process-wide kernel target after a test that switches it.
class SynthesisGolden : public ::testing::Test {
 protected:
  void TearDown() override { dsp::kernels::set_target(saved_); }
  dsp::kernels::SimdTarget saved_ = dsp::kernels::active_target();
};

constexpr double kZigR = 3.6541528853610088;  // the ziggurat's tail edge

TEST_F(SynthesisGolden, FillGaussianDrawsArePinned) {
  // 12,291 draws: fills of uneven sizes, each followed by a Box–Muller draw,
  // and one scaled fill, so the generator state must carry exactly from
  // one fill to the next and across the other draw kinds.
  Rng rng(20261019);
  const std::size_t chunks[] = {1, 7, 512, 61, 4096, 3, 1000, 2047, 4555};
  std::vector<double> draws;
  std::vector<double> buf;
  for (std::size_t c = 0; c < std::size(chunks); ++c) {
    buf.assign(chunks[c], 0.0);
    if (c == 5)
      rng.fill_gaussian(buf, 0.5, 2.0);
    else
      rng.fill_gaussian(buf);
    draws.insert(draws.end(), buf.begin(), buf.end());
    draws.push_back(rng.gaussian());
  }
  ASSERT_GE(draws.size(), 10000u);
  EXPECT_EQ(draws.size(), 12291u);

  BitHash all;
  all.add(draws);
  std::vector<std::size_t> tails;
  for (std::size_t i = 0; i < draws.size(); ++i)
    if (std::abs(draws[i]) > kZigR) tails.push_back(i);
  ASSERT_FALSE(tails.empty()) << "the seed must reach the ziggurat's tail";

  const std::uint64_t first[] = {
      0x3fe4a1e9a11bc6a5ull,  //  0.64476472345832703
      0xbfcdfb795700c467ull,  // -0.23423687694733816
      0x3ff4f69a08dc4a94ull,  //  1.3102054926027096
      0xbfe42b3193fcba30ull,  // -0.63027266410592198
  };
  for (std::size_t i = 0; i < std::size(first); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(draws[i]), first[i])
        << "draw " << i << " = " << draws[i];
  // Both tail draws come from unscaled fills (the 4096 and 2047 chunks).
  ASSERT_EQ(tails, (std::vector<std::size_t>{4596, 6962}));
  const std::uint64_t tail_bits[] = {
      0xc00ef178df270e87ull,  // -3.8679063257021116
      0x400febbec569555cull,  //  3.9901099608202184
  };
  for (std::size_t t = 0; t < tails.size(); ++t)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(draws[tails[t]]), tail_bits[t])
        << "tail draw " << tails[t] << " = " << draws[tails[t]];
  EXPECT_EQ(all.h, 0x0035dfd747062028ull) << std::hex << all.h;
}

/// One uplink frame as LinkSimulator synthesizes it: the five office clutter
/// returns plus the tag, 32 CSSK data chirps, the tag switching between
/// reflective and absorptive, noise, phase noise and, when @p synth_cfg
/// quantizes, the 12-bit ADC with automatic IF gain. Chirp i's IF samples
/// land in if_samples[i].
void synthesize_link_frame(const core::SystemConfig& cfg,
                           const radar::IfSynthConfig& synth_cfg,
                           std::vector<rf::ChirpParams>& chirps,
                           std::vector<dsp::CVec>& if_samples) {
  const auto alphabet = cfg.make_alphabet();
  chirps.clear();
  Rng draw(7);
  core::draw_sensing_chirps(alphabet, 32, true, draw, chirps);
  auto scene = core::clutter_returns(cfg);
  scene.push_back({cfg.tag_range_m, 0.0, 0.0});
  ASSERT_EQ(scene.size(), 6u);
  const double tag_amp = core::tag_backscatter_amplitude(cfg, cfg.tag_range_m);
  const auto& sw = cfg.tag.node.frontend.rf_switch;
  const double reflect = db_to_amplitude(-sw.insertion_loss_db);
  const double leak = db_to_amplitude(-sw.isolation_db);

  radar::IfSynthesizer synth(synth_cfg, Rng(cfg.seed).fork());
  if_samples.resize(chirps.size());
  for (std::size_t i = 0; i < chirps.size(); ++i) {
    scene.back().amplitude_v = tag_amp * (i % 3 == 0 ? leak : reflect);
    synth.synthesize_into(chirps[i], scene, if_samples[i]);
  }
}

TEST_F(SynthesisGolden, IfSynthesizerLinkFrameIsPinned) {
  // The link frame with and without the ADC: the frame without it pins the
  // tone sums and the noise to the last bit, which the quantizer would
  // mostly round away.
  const core::SystemConfig cfg;
  ASSERT_TRUE(cfg.radar.if_synth.quantize);
  const auto frame_hash = [&](const radar::IfSynthConfig& synth_cfg) {
    std::vector<rf::ChirpParams> chirps;
    std::vector<dsp::CVec> if_samples;
    synthesize_link_frame(cfg, synth_cfg, chirps, if_samples);
    BitHash frame;
    std::size_t samples = 0;
    for (const auto& out : if_samples) {
      frame.add(std::span<const dsp::cdouble>(out));
      samples += out.size();
    }
    EXPECT_EQ(samples, 3503u);
    return frame.h;
  };
  radar::IfSynthConfig analog = cfg.radar.if_synth;
  analog.quantize = false;

  for (const auto target : available_targets()) {
    ASSERT_TRUE(dsp::kernels::set_target(target));
    SCOPED_TRACE(dsp::kernels::target_name(target));
    const std::uint64_t quantized = frame_hash(cfg.radar.if_synth);
    EXPECT_EQ(quantized, 0x2fa7f75cfddd6850ull) << std::hex << quantized;
    const std::uint64_t raw = frame_hash(analog);
    EXPECT_EQ(raw, 0x4dedacdd51fc6e1cull) << std::hex << raw;
  }
}

TEST_F(SynthesisGolden, TagFrontendStreamIsPinned) {
  // One downlink frame at the tag: the line-of-sight path plus the channel
  // taps at 3 m, 24 CSSK chirps with the switch absorbing two of every
  // three, detector noise, PGA and the kHz-class ADC.
  const core::SystemConfig cfg;
  const auto alphabet = cfg.make_alphabet();
  std::vector<rf::ChirpParams> chirps;
  Rng draw(11);
  core::draw_sensing_chirps(alphabet, 24, true, draw, chirps);
  const auto paths = core::incident_paths_for(cfg, 3.0);
  bool absorptive[24];
  for (std::size_t i = 0; i < 24; ++i) absorptive[i] = i % 3 != 2;

  for (const auto target : available_targets()) {
    ASSERT_TRUE(dsp::kernels::set_target(target));
    SCOPED_TRACE(dsp::kernels::target_name(target));
    tag::TagFrontend fe(cfg.tag.node.frontend, Rng(cfg.seed ^ 0x7A67ull));
    fe.auto_gain(paths);
    const auto stream = fe.receive_frame(chirps, paths, absorptive);
    BitHash h;
    h.add(stream);
    EXPECT_EQ(stream.size(), 1440u);
    EXPECT_EQ(h.h, 0xc545ed421d9d9fdeull) << std::hex << h.h;
  }
}

/// Restores the kernel target, like SynthesisGolden.
class ReceiveChainGolden : public SynthesisGolden {};

TEST_F(ReceiveChainGolden, AlignedFrameIsPinned) {
  // The link frame above through the receive chain as the default
  // SystemConfig builds it: the range FFT of every chirp, IF correction onto
  // the common range grid, and background subtraction. The hash covers every
  // aligned row, then the range grid, byte for byte (the frame fingerprint
  // bench_network --smoke prints). Recorded before the chain's raw-bin
  // stacking branch (RangeAlignConfig::enabled) was deleted.
  const core::SystemConfig cfg;
  const radar::ReceiveChain chain = cfg.make_receive_chain();
  for (const auto target : available_targets()) {
    ASSERT_TRUE(dsp::kernels::set_target(target));
    SCOPED_TRACE(dsp::kernels::target_name(target));
    std::vector<rf::ChirpParams> chirps;
    radar::ReceiveFrame frame;
    synthesize_link_frame(cfg, cfg.radar.if_synth, chirps, frame.if_samples);
    chain.range_fft(chirps, frame, nullptr);
    chain.if_correct(frame, nullptr);
    BitHash h;
    for (const auto& row : frame.aligned.rows)
      h.add(std::span<const dsp::cdouble>(row));
    h.add(frame.aligned.range_grid);
    EXPECT_EQ(frame.aligned.n_chirps(), 32u);
    EXPECT_EQ(frame.aligned.n_bins(), 512u);
    EXPECT_EQ(h.h, 0xdb9416648e1e3f22ull) << std::hex << h.h;
  }
}

}  // namespace
}  // namespace bis
