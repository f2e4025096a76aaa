// Tag analog frontend: envelope stream structure, AGC, beat tone placement,
// switch isolation, multipath cross terms, period plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "common/random.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/types.hpp"
#include "obs/metrics.hpp"
#include "tag/tag_frontend.hpp"

namespace bis::tag {
namespace {

struct Fixture {
  TagFrontendConfig cfg;
  Fixture() {
    cfg.delay_line.length_diff_m = 45.0 * 0.0254;
    cfg.delay_line.velocity_factor = 0.7;
    cfg.envelope.conversion_gain = 1900.0;
    cfg.envelope.output_noise_density = 1e-12;  // near-silent
    cfg.adc.sample_rate_hz = 500e3;
    cfg.adc.bits = 12;
    cfg.adc.full_scale = 1.65;
  }
};

rf::ChirpParams chirp(double duration_s = 60e-6, double bandwidth = 1e9) {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = bandwidth;
  c.duration_s = duration_s;
  c.idle_s = 120e-6 - duration_s;
  return c;
}

TEST(TagFrontend, StreamLengthCoversFullPeriod) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(1));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  const auto s = fe.receive_chirp_period(chirp(), paths, true);
  EXPECT_EQ(s.size(), 60u);  // 120 µs at 500 kS/s
}

TEST(TagFrontend, BeatToneAtEq11Frequency) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(2));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  const auto c = chirp(96e-6);
  const auto s = fe.receive_chirp_period(c, paths, true);
  const auto n_active = static_cast<std::size_t>(c.duration_s * 500e3);
  const rf::DelayLinePair line(f.cfg.delay_line);
  const double expected = c.slope() * line.delta_t(c.center_frequency_hz());
  const double measured = dsp::estimate_tone_frequency(
      std::span<const double>(s.data(), n_active), 500e3, expected * 0.5,
      expected * 1.5);
  EXPECT_NEAR(measured, expected, 0.06 * expected);
}

TEST(TagFrontend, BeatScalesWithSlope) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(3));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  const rf::DelayLinePair line(f.cfg.delay_line);
  double measured[2];
  const double durations[2] = {48e-6, 96e-6};
  for (int i = 0; i < 2; ++i) {
    const auto c = chirp(durations[i]);
    const auto s = fe.receive_chirp_period(c, paths, true);
    const auto n = static_cast<std::size_t>(c.duration_s * 500e3);
    const double exp_f = c.slope() * line.delta_t(c.center_frequency_hz());
    measured[i] = dsp::estimate_tone_frequency(
        std::span<const double>(s.data(), n), 500e3, exp_f * 0.6, exp_f * 1.4);
  }
  // Halving the duration doubles the slope and thus the beat (Eq. 11).
  EXPECT_NEAR(measured[0] / measured[1], 2.0, 0.15);
}

TEST(TagFrontend, IdleIsQuiet) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(4));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  const auto c = chirp(40e-6);
  const auto s = fe.receive_chirp_period(c, paths, true);
  double active_energy = 0.0, idle_energy = 0.0;
  const std::size_t n_active = 20;
  for (std::size_t i = 0; i < n_active; ++i) active_energy += s[i] * s[i];
  for (std::size_t i = 30; i < 60; ++i) idle_energy += s[i] * s[i];
  EXPECT_GT(active_energy / static_cast<double>(n_active),
            100.0 * (idle_energy / 30.0 + 1e-30));
}

TEST(TagFrontend, ReflectiveModeLeaksOnlyIsolation) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(5));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  const auto c = chirp();
  const auto absorptive = fe.receive_chirp_period(c, paths, true);
  const auto reflective = fe.receive_chirp_period(c, paths, false);
  const double ea = bis::dsp::kernels::ksum_sq(absorptive);
  const double er = bis::dsp::kernels::ksum_sq(reflective);
  // Isolation 35 dB on amplitude → 70 dB on the square-law output energy.
  EXPECT_LT(er, ea * 1e-4);
}

TEST(TagFrontend, AutoGainTargetsAdcRange) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(6));
  for (double amp : {1e-5, 1e-4, 1e-3}) {
    const std::vector<IncidentPath> paths = {{amp, 0.0, 0.0}};
    fe.auto_gain(paths);
    const auto s = fe.receive_chirp_period(chirp(), paths, true);
    double peak = 0.0;
    for (double v : s) peak = std::max(peak, std::abs(v));
    EXPECT_GT(peak, 0.1) << amp;   // not buried in quantization
    EXPECT_LE(peak, 1.65) << amp;  // not past the rails
  }
}

/// Sum of the Hann periodogram bins of @p x in [f_lo, f_hi].
double band_sum(std::span<const double> x, double fs, double f_lo, double f_hi,
                std::size_t n_fft) {
  const auto p = dsp::periodogram(x, n_fft, dsp::WindowType::kHann);
  const double bin_hz = fs / static_cast<double>(n_fft);
  double sum = 0.0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    const double f = static_cast<double>(k) * bin_hz;
    if (f >= f_lo && f <= f_hi) sum += p[k];
  }
  return sum;
}

TEST(TagFrontend, MultipathAddsCrossTones) {
  Fixture f;
  // Strong reflection 20 ns late: cross tone at α·(Δτ±ΔT) and α·Δτ.
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}, {5e-5, 20e-9, 1.0}};
  const std::vector<IncidentPath> los = {paths.front()};
  const auto c = chirp(96e-6);
  const auto n = static_cast<std::size_t>(c.duration_s * 500e3);
  // Expect spectral energy at α·Δτ (the LoS×echo beat), which the
  // line-of-sight path alone does not produce. Both frontends latch the
  // same PGA gain.
  const double f_mp = c.slope() * 20e-9;
  const auto beat_power = [&](std::span<const IncidentPath> incident) {
    TagFrontend fe(f.cfg, Rng(7));
    fe.auto_gain(paths);
    const auto s = fe.receive_chirp_period(c, incident, true);
    return band_sum(std::span<const double>(s.data(), n), 500e3, f_mp * 0.8,
                    f_mp * 1.2, 1024);
  };
  const double p_mp = beat_power(paths);
  const double p_clean = beat_power(los);
  EXPECT_GT(p_mp, 5.0 * (p_clean + 1e-30));
}

TEST(TagFrontend, FrameConcatenatesPeriods) {
  Fixture f;
  TagFrontend fe(f.cfg, Rng(8));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  fe.auto_gain(paths);
  std::vector<rf::ChirpParams> chirps = {chirp(40e-6), chirp(60e-6), chirp(96e-6)};
  std::unique_ptr<bool[]> flags(new bool[3]);
  std::fill_n(flags.get(), 3, true);
  const auto stream =
      fe.receive_frame(chirps, paths, std::span<const bool>(flags.get(), 3));
  EXPECT_EQ(stream.size(), 180u);  // 3 × 60 samples
}

// ---------------------------------------------------------------------------
// Period plans

/// The frontend's per-period loop as it ran before periods were planned:
/// every period mixes the incident paths and sums DC plus every tone, then
/// adds noise, PGA and quantization. Planned frames must equal it bit for
/// bit, and must draw the same noise.
class ReferenceFrontend {
 public:
  ReferenceFrontend(const TagFrontendConfig& cfg, Rng rng)
      : delay_line_(cfg.delay_line),
        envelope_(cfg.envelope),
        adc_(cfg.adc),
        switch_(cfg.rf_switch),
        rng_(rng) {}

  dsp::RVec receive_frame(const std::vector<rf::ChirpParams>& chirps,
                          std::span<const IncidentPath> paths,
                          const std::vector<bool>& absorptive, double gain) {
    std::size_t total = 0;
    for (const auto& c : chirps) total += adc_.samples_for(c.period());
    dsp::RVec stream(total, 0.0);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < chirps.size(); ++i) {
      const std::size_t n = adc_.samples_for(chirps[i].period());
      period(chirps[i], paths, absorptive[i], gain,
             std::span<double>(stream).subspan(offset, n));
      offset += n;
    }
    return stream;
  }

 private:
  void period(const rf::ChirpParams& chirp, std::span<const IncidentPath> paths,
              bool absorptive, double gain, std::span<double> out) {
    switch_.set_state(absorptive ? rf::SwitchState::kAbsorptive
                                 : rf::SwitchState::kReflective);
    const double route = switch_.decoder_path_amplitude();
    const double f_center = chirp.center_frequency_hz();
    const double delta_t = delay_line_.delta_t(f_center);
    const double long_line_scale =
        db_to_amplitude(-delay_line_.insertion_loss_db(f_center));
    std::vector<rf::ChirpCopy> copies;
    for (const auto& p : paths) {
      const double a = p.amplitude_v * route / std::sqrt(2.0);
      copies.push_back({a, p.excess_delay_s, p.phase_rad});
      copies.push_back({a * long_line_scale, p.excess_delay_s + delta_t, p.phase_rad});
    }
    const auto mixed =
        envelope_.mix(copies, chirp.slope(), chirp.start_frequency_hz);

    const std::size_t n_total = out.size();
    const std::size_t n_active =
        std::min(adc_.samples_for(chirp.duration_s), n_total);
    const double dt = 1.0 / adc_.sample_rate();
    const double noise_rms = envelope_.output_noise_rms(adc_.sample_rate() / 2.0);
    const std::span<double> active = out.first(n_active);
    std::fill(active.begin(), active.end(), mixed.dc);
    std::fill(out.begin() + static_cast<long>(n_active), out.end(), 0.0);
    for (const auto& tone : mixed.tones)
      dsp::accumulate_tone(active, tone.amplitude, tone.frequency_hz, dt,
                           tone.phase_rad);
    constexpr std::size_t kChunk = 512;
    double noise[kChunk];
    for (std::size_t base = 0; base < n_total; base += kChunk) {
      const std::size_t n = std::min(kChunk, n_total - base);
      rng_.fill_gaussian(std::span<double>(noise, n));
      const std::span<double> chunk = out.subspan(base, n);
      dsp::kernels::kscale_add(chunk, gain, noise_rms,
                               std::span<const double>(noise, n));
      for (double& v : chunk) v = adc_.quantize(v);
    }
  }

  rf::DelayLinePair delay_line_;
  rf::EnvelopeDetector envelope_;
  rf::Adc adc_;
  rf::RfSwitch switch_;
  Rng rng_;
};

/// A frame of chirps with per-chirp switch states.
struct Frame {
  std::vector<rf::ChirpParams> chirps;
  std::vector<bool> absorptive;

  dsp::RVec receive(TagFrontend& fe, std::span<const IncidentPath> paths) const {
    std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
    std::copy(absorptive.begin(), absorptive.end(), flags.get());
    return fe.receive_frame(chirps, paths,
                            std::span<const bool>(flags.get(), chirps.size()));
  }
};

/// @p n periods cycling through a few slopes (two of them 1 ns apart, so
/// only an exact key tells them apart) and both switch states.
Frame mixed_frame(std::size_t n, std::size_t phase) {
  const double durations[] = {40e-6, 52e-6, 60e-6, 60.001e-6, 72e-6, 96e-6};
  Frame f;
  for (std::size_t i = 0; i < n; ++i) {
    f.chirps.push_back(chirp(durations[(i * 5 + phase) % 6]));
    f.absorptive.push_back((i + phase) % 3 != 0);
  }
  return f;
}

void expect_same_samples(const dsp::RVec& got, const dsp::RVec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

std::uint64_t period_plans_built() {
  return obs::Registry::instance().counter("bis.tag.period_plans").value();
}

TEST(TagFrontendPlan, MatchesPerPeriodReference) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  Fixture f;
  f.cfg.envelope.output_noise_density = 1e-9;  // noise spans many LSBs
  TagFrontend fe(f.cfg, Rng(21));
  ReferenceFrontend ref(f.cfg, Rng(21));

  // Two paths: every frame plans, then reuses, each (slope, state).
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.3},
                                           {4e-5, 7e-9, 1.1}};
  fe.auto_gain(paths);
  const Frame a = mixed_frame(30, 0);
  expect_same_samples(a.receive(fe, paths),
                      ref.receive_frame(a.chirps, paths, a.absorptive, fe.gain()));
  const auto single = chirp(72e-6);
  expect_same_samples(fe.receive_chirp_period(single, paths, false),
                      ref.receive_frame({single}, paths, {false}, fe.gain()));

  // Other paths (the echo 1 ps later): the plans must drop.
  const std::vector<IncidentPath> moved = {{1e-4, 0.0, 0.3},
                                           {4e-5, 7.001e-9, 1.1}};
  const Frame b = mixed_frame(30, 1);
  expect_same_samples(b.receive(fe, moved),
                      ref.receive_frame(b.chirps, moved, b.absorptive, fe.gain()));

  // A new PGA gain keeps the plans: the next frame builds none, and the
  // one after it still matches (same noise draws).
  const double old_gain = fe.gain();
  fe.auto_gain(std::vector<IncidentPath>{{3e-4, 0.0, 0.0}});
  ASSERT_NE(fe.gain(), old_gain);
  const std::uint64_t before = period_plans_built();
  const Frame c = mixed_frame(30, 1);
  expect_same_samples(c.receive(fe, moved),
                      ref.receive_frame(c.chirps, moved, c.absorptive, fe.gain()));
  EXPECT_EQ(period_plans_built(), before);
  const Frame d = mixed_frame(17, 2);
  expect_same_samples(d.receive(fe, moved),
                      ref.receive_frame(d.chirps, moved, d.absorptive, fe.gain()));
  obs::set_enabled(was_enabled);
}

TEST(TagFrontendPlan, OnePlanPerDistinctChirpAndState) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  Fixture f;
  TagFrontend fe(f.cfg, Rng(22));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}, {3e-5, 5e-9, 0.7}};
  fe.auto_gain(paths);
  const std::uint64_t before = period_plans_built();
  std::set<std::tuple<double, bool>> distinct;
  for (std::size_t packet = 0; packet < 6; ++packet) {
    const Frame frame = mixed_frame(11 + packet, packet);
    for (std::size_t i = 0; i < frame.chirps.size(); ++i)
      distinct.emplace(frame.chirps[i].duration_s, frame.absorptive[i]);
    frame.receive(fe, paths);
  }
  EXPECT_EQ(period_plans_built() - before, distinct.size());
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace bis::tag
