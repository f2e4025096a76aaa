// IF synthesis — the radar-side hardware-substitution boundary. A return at
// range r must appear as a complex tone at f_IF = 2αr/c.

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/peak.hpp"
#include "radar/if_synthesizer.hpp"

namespace bis::radar {
namespace {

rf::ChirpParams test_chirp(double duration_s = 50e-6) {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = 1e9;
  c.duration_s = duration_s;
  c.idle_s = 120e-6 - duration_s;
  return c;
}

IfSynthConfig quiet_config() {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = -150.0;  // near-silent for deterministic checks
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  cfg.quantize = false;
  return cfg;
}

double dominant_freq(const dsp::CVec& x, double fs) {
  const auto spec = dsp::fft_padded(x, dsp::next_power_of_two(x.size()) * 8);
  dsp::RVec mag(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) mag[i] = std::abs(spec[i]);
  const auto p = dsp::find_peak(mag);
  return p.refined_index * fs / static_cast<double>(spec.size());
}

TEST(IfSynth, SampleCountMatchesDuration) {
  IfSynthesizer synth(quiet_config(), Rng(1));
  const auto chirp = test_chirp(50e-6);
  EXPECT_EQ(synth.samples_per_chirp(chirp), 100u);  // 50 µs · 2 MS/s
}

TEST(IfSynth, SingleReturnTonesAtBeatFrequency) {
  IfSynthesizer synth(quiet_config(), Rng(2));
  const auto chirp = test_chirp();
  for (double r : {1.0, 3.0, 7.0}) {
    const IfReturn ret{r, 1e-3, 0.0};
    const auto x = synth.synthesize(chirp, std::vector<IfReturn>{ret});
    const double measured = dominant_freq(x, 2e6);
    EXPECT_NEAR(measured, chirp.beat_frequency(r), 4e3) << r;
  }
}

TEST(IfSynth, AmplitudePreserved) {
  IfSynthesizer synth(quiet_config(), Rng(3));
  const auto chirp = test_chirp();
  const IfReturn ret{3.0, 2.5e-4, 0.0};
  const auto x = synth.synthesize(chirp, std::vector<IfReturn>{ret});
  // Complex tone: |x[n]| = amplitude.
  for (std::size_t i = 0; i < x.size(); i += 17)
    EXPECT_NEAR(std::abs(x[i]), 2.5e-4, 1e-8);
}

TEST(IfSynth, MultipleReturnsSuperpose) {
  IfSynthesizer synth(quiet_config(), Rng(4));
  const auto chirp = test_chirp();
  const std::vector<IfReturn> rets = {{2.0, 1e-3, 0.0}, {5.0, 1e-3, 1.0}};
  const auto x = synth.synthesize(chirp, rets);
  const auto spec = dsp::fft_padded(x, 1024);
  dsp::RVec mag(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) mag[i] = std::abs(spec[i]);
  // Count the local maxima above a tenth of the strongest bin.
  const double threshold = 0.1 * *std::max_element(mag.begin(), mag.end());
  std::size_t peaks = 0;
  for (std::size_t i = 1; i + 1 < mag.size(); ++i)
    if (mag[i] >= threshold && mag[i] >= mag[i - 1] && mag[i] > mag[i + 1])
      ++peaks;
  EXPECT_GE(peaks, 2u);
}

TEST(IfSynth, NoiseFloorMatchesConfig) {
  auto cfg = quiet_config();
  cfg.noise_power_dbm = -94.0;
  IfSynthesizer synth(cfg, Rng(5));
  const auto chirp = test_chirp();
  const auto x = synth.synthesize(chirp, {});
  double power = 0.0;
  for (const auto& v : x) power += std::norm(v);
  power /= static_cast<double>(x.size());
  EXPECT_NEAR(10.0 * std::log10(power * 1e3), -94.0, 1.5);
}

TEST(IfSynth, QuantizationPreservesWeakSignalWithAutoGain) {
  auto cfg = quiet_config();
  cfg.noise_power_dbm = -94.0;
  cfg.quantize = true;
  IfSynthesizer synth(cfg, Rng(6));
  const auto chirp = test_chirp();
  // A tag-level return 20 dB above the per-sample noise floor must survive
  // the ADC thanks to the automatic IF gain.
  const IfReturn ret{4.0, std::sqrt(bis::dbm_to_watts(-74.0)), 0.0};
  const auto x = synth.synthesize(chirp, std::vector<IfReturn>{ret});
  const double measured = dominant_freq(x, 2e6);
  EXPECT_NEAR(measured, chirp.beat_frequency(4.0), 5e3);
}

TEST(IfSynth, ZeroAmplitudeReturnsIgnored) {
  IfSynthesizer synth(quiet_config(), Rng(7));
  const auto chirp = test_chirp();
  const auto x = synth.synthesize(chirp, std::vector<IfReturn>{{3.0, 0.0, 0.0}});
  for (const auto& v : x) EXPECT_LT(std::abs(v), 1e-6);
}

TEST(IfSynth, PhaseConsistentAcrossChirpsWithoutPhaseNoise) {
  IfSynthesizer synth(quiet_config(), Rng(8));
  const auto chirp = test_chirp();
  const std::vector<IfReturn> rets = {{3.0, 1e-3, 0.0}};
  const auto a = synth.synthesize(chirp, rets);
  const auto b = synth.synthesize(chirp, rets);
  for (std::size_t i = 0; i < a.size(); i += 13)
    EXPECT_LT(std::abs(a[i] - b[i]), 1e-8);  // residual -150 dBm noise
}

TEST(IfSynth, PhaseNoiseDecorrelatesChirps) {
  auto cfg = quiet_config();
  cfg.phase_noise_rad_per_sqrt_s = 5.0;
  IfSynthesizer synth(cfg, Rng(9));
  const auto chirp = test_chirp();
  const std::vector<IfReturn> rets = {{3.0, 1e-3, 0.0}};
  const auto a = synth.synthesize(chirp, rets);
  dsp::CVec b;
  for (int i = 0; i < 50; ++i) b = synth.synthesize(chirp, rets);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff / static_cast<double>(a.size()), 1e-5);
}

}  // namespace
}  // namespace bis::radar
