#include "tag/tag_frontend.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/oscillator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::tag {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::size_t TagFrontend::PlanKeyHash::operator()(const PlanKey& key) const {
  std::uint64_t h = key.absorptive ? 1 : 0;
  for (const std::uint64_t bits : key.chirp_bits) {
    h = (h ^ bits) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  }
  return static_cast<std::size_t>(h);
}

TagFrontend::TagFrontend(const TagFrontendConfig& config, Rng rng)
    : config_(config),
      delay_line_(config.delay_line),
      envelope_(config.envelope),
      adc_(config.adc),
      switch_(config.rf_switch),
      rng_(rng) {
  BIS_CHECK(config_.pga_max_gain >= 1.0);
}

void TagFrontend::auto_gain(std::span<const IncidentPath> paths) {
  // Expected detector output amplitude for the strongest path's self-beat.
  double strongest = 0.0;
  for (const auto& p : paths) strongest = std::max(strongest, p.amplitude_v);
  const double sw = switch_.config().insertion_loss_db;
  const double a = strongest * db_to_amplitude(-sw);
  // Per-line amplitude after the 2-way split (−3 dB each leg).
  const double a_line = a / std::sqrt(2.0);
  const double tone = envelope_.config().conversion_gain * a_line * a_line;
  if (tone <= 0.0) {
    gain_ = 1.0;
    return;
  }
  const double target = 0.4 * adc_.config().full_scale;
  double g = target / tone;
  g = std::clamp(g, 1.0, config_.pga_max_gain);
  // Quantize to power-of-two PGA steps.
  gain_ = std::pow(2.0, std::floor(std::log2(g)));
}

double TagFrontend::output_noise_rms() const {
  const double analog =
      envelope_.output_noise_rms(adc_.sample_rate() / 2.0) * gain_;
  // ADC quantization noise (LSB/√12) adds in quadrature.
  const double q = adc_.lsb() / std::sqrt(12.0);
  return std::sqrt(analog * analog + q * q);
}

dsp::RVec TagFrontend::receive_chirp_period(const rf::ChirpParams& chirp,
                                            std::span<const IncidentPath> paths,
                                            bool absorptive) {
  dsp::RVec out(adc_.samples_for(chirp.period()), 0.0);
  track_paths(paths);
  synthesize_period(chirp, paths, absorptive, out);
  return out;
}

void TagFrontend::track_paths(std::span<const IncidentPath> paths) {
  const bool same = std::equal(
      paths.begin(), paths.end(), planned_paths_.begin(), planned_paths_.end(),
      [](const IncidentPath& a, const IncidentPath& b) {
        return same_bits(a.amplitude_v, b.amplitude_v) &&
               same_bits(a.excess_delay_s, b.excess_delay_s) &&
               same_bits(a.phase_rad, b.phase_rad);
      });
  if (same) return;
  plans_.clear();
  planned_paths_.assign(paths.begin(), paths.end());
}

const dsp::RVec& TagFrontend::period_plan(const rf::ChirpParams& chirp,
                                          std::span<const IncidentPath> paths,
                                          bool absorptive) {
  const PlanKey key{{std::bit_cast<std::uint64_t>(chirp.start_frequency_hz),
                     std::bit_cast<std::uint64_t>(chirp.bandwidth_hz),
                     std::bit_cast<std::uint64_t>(chirp.duration_s),
                     std::bit_cast<std::uint64_t>(chirp.idle_s)},
                    absorptive};
  if (const auto it = plans_.find(key); it != plans_.end()) return it->second;
  if (plans_.size() >= kMaxPlans) plans_.clear();

  // Tones + DC during the active sweep. Oscillator bank: per tone, one
  // complex multiply per sample replaces the cos call; accumulation order
  // (dc, then tones in order) matches the old per-sample loop.
  const auto mixed = mix_period(chirp, paths, absorptive);
  const std::size_t n_active = std::min(adc_.samples_for(chirp.duration_s),
                                        adc_.samples_for(chirp.period()));
  const double dt = 1.0 / adc_.sample_rate();
  dsp::RVec active(n_active, mixed.dc);
  for (const auto& tone : mixed.tones)
    dsp::accumulate_tone(active, tone.amplitude, tone.frequency_hz, dt,
                         tone.phase_rad);
  static obs::Counter& built =
      obs::Registry::instance().counter("bis.tag.period_plans");
  built.add();
  return plans_.emplace(key, std::move(active)).first->second;
}

rf::EnvelopeDetector::Output TagFrontend::mix_period(
    const rf::ChirpParams& chirp, std::span<const IncidentPath> paths,
    bool absorptive) {
  BIS_CHECK(chirp.valid());
  switch_.set_state(absorptive ? rf::SwitchState::kAbsorptive
                               : rf::SwitchState::kReflective);
  const double route = switch_.decoder_path_amplitude();

  // Build the set of chirp copies at the combiner: two per path (short and
  // long delay line). The split into two lines costs 3 dB of amplitude per
  // leg; the long line additionally suffers its differential insertion loss.
  const double f_center = chirp.center_frequency_hz();
  const double delta_t = delay_line_.delta_t(f_center);
  const double long_line_scale =
      db_to_amplitude(-delay_line_.insertion_loss_db(f_center));

  std::vector<rf::ChirpCopy> copies;
  copies.reserve(paths.size() * 2);
  for (const auto& p : paths) {
    const double a = p.amplitude_v * route / std::sqrt(2.0);
    copies.push_back({a, p.excess_delay_s, p.phase_rad});
    copies.push_back({a * long_line_scale, p.excess_delay_s + delta_t, p.phase_rad});
  }

  return envelope_.mix(copies, chirp.slope(), chirp.start_frequency_hz);
}

void TagFrontend::synthesize_period(const rf::ChirpParams& chirp,
                                    std::span<const IncidentPath> paths,
                                    bool absorptive, std::span<double> out) {
  const dsp::RVec& plan = period_plan(chirp, paths, absorptive);

  // Synthesize the ADC stream for the full period: the planned tones + DC
  // during the active sweep, detector noise throughout, PGA, quantization.
  const std::size_t n_total = out.size();
  BIS_CHECK(n_total == adc_.samples_for(chirp.period()));
  const double noise_rms = envelope_.output_noise_rms(adc_.sample_rate() / 2.0);

  std::copy(plan.begin(), plan.end(), out.begin());
  std::fill(out.begin() + static_cast<long>(plan.size()), out.end(), 0.0);
  // Batched detector noise: one ziggurat fill per chunk replaces the
  // per-sample Box–Muller call that used to dominate this loop.
  constexpr std::size_t kChunk = 512;
  double noise[kChunk];
  for (std::size_t base = 0; base < n_total; base += kChunk) {
    const std::size_t n = std::min(kChunk, n_total - base);
    rng_.fill_gaussian(std::span<double>(noise, n));
    // PGA apply v = gain·(signal + noise_rms·deviate) through the kernel
    // layer (same association as the fused scalar loop it replaces), then
    // the ADC's kquantize kernel.
    const std::span<double> chunk = out.subspan(base, n);
    dsp::kernels::kscale_add(chunk, gain_, noise_rms,
                             std::span<const double>(noise, n));
    adc_.quantize(chunk);
  }
}

dsp::RVec TagFrontend::receive_frame(std::span<const rf::ChirpParams> chirps,
                                     std::span<const IncidentPath> paths,
                                     std::span<const bool> absorptive) {
  BIS_TRACE_SPAN("tag.frontend_frame");
  BIS_CHECK(chirps.size() == absorptive.size());
  static obs::Counter& chirps_received =
      obs::Registry::instance().counter("bis.tag.chirps_received");
  chirps_received.add(chirps.size());
  // Pre-size the stream from the summed per-period sample counts so each
  // period writes straight into its slice (the old stream.insert growth
  // re-copied the whole prefix every few chirps).
  std::size_t total = 0;
  for (const auto& chirp : chirps) total += adc_.samples_for(chirp.period());
  dsp::RVec stream(total, 0.0);
  track_paths(paths);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < chirps.size(); ++i) {
    const std::size_t n = adc_.samples_for(chirps[i].period());
    synthesize_period(chirps[i], paths, absorptive[i],
                      std::span<double>(stream).subspan(offset, n));
    offset += n;
  }
  return stream;
}

}  // namespace bis::tag
