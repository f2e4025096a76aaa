#include "tag/symbol_demod.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dsp/window.hpp"

namespace bis::tag {
namespace {

/// Longest analysis length among the slot durations (0 without durations):
/// the bank's table length.
std::size_t max_analysis_length(const SymbolDemodConfig& config) {
  std::size_t n = 0;
  for (double d : config.slot_durations_s)
    n = std::max(n, SymbolDemod::analysis_length(d, config.sample_rate_hz));
  return n;
}

SymbolDemod::Result pick(std::span<const double> powers) {
  SymbolDemod::Result r;
  for (std::size_t i = 1; i < powers.size(); ++i)
    if (powers[i] > powers[r.slot]) r.slot = i;
  const double peak = powers[r.slot];
  double runner_up = 0.0;
  for (std::size_t i = 0; i < powers.size(); ++i)
    if (i != r.slot) runner_up = std::max(runner_up, powers[i]);
  r.confidence = runner_up > 0.0 ? peak / runner_up : peak;
  return r;
}

}  // namespace

SymbolDemod::SymbolDemod(const SymbolDemodConfig& config)
    : config_(config),
      bank_(config.slot_beat_freqs_hz, config.sample_rate_hz,
            max_analysis_length(config)) {
  BIS_CHECK_MSG(config_.slot_beat_freqs_hz.size() >= 2,
                "alphabet needs at least two slots");
  BIS_CHECK(config_.slot_durations_s.empty() ||
            config_.slot_durations_s.size() == config_.slot_beat_freqs_hz.size());
  if (config_.slot_durations_s.empty()) return;
  min_planned_length_ = bank_.max_length();
  for (double d : config_.slot_durations_s)
    min_planned_length_ = std::min(
        min_planned_length_, analysis_length(d, config_.sample_rate_hz));
  for (std::size_t n = min_planned_length_; n <= bank_.max_length(); ++n)
    windows_.push_back(bank_.window(analysis_weights(n)));
}

std::size_t SymbolDemod::analysis_length(double duration_s, double sample_rate_hz) {
  const auto n = static_cast<long long>(std::llround(duration_s * sample_rate_hz));
  return static_cast<std::size_t>(std::max<long long>(4, n - 2));
}

dsp::RVec SymbolDemod::analysis_weights(std::size_t n) {
  auto w = dsp::make_window(dsp::WindowType::kHann, n);
  for (double& v : w) v = std::sqrt(v);
  return w;
}

/// Hann-tapered GLRT with DC nuisance (see dsp/tone_fit.hpp): the
/// least-squares fit stays well-behaved even when the window holds only ~1
/// beat cycle (small-bandwidth / short-delay-line configurations), where
/// mean-removal + DFT-bin methods collapse.
SymbolDemod::Result SymbolDemod::classify(std::span<const double> window) const {
  BIS_CHECK(window.size() >= 4);
  const auto& freqs = config_.slot_beat_freqs_hz;
  const double fs = config_.sample_rate_hz;
  const auto& phases = config_.slot_phases_rad;
  const std::size_t n = window.size();
  // Every decoded chirp lands here, so its scores go into per-thread
  // scratch rather than a fresh vector.
  thread_local std::vector<double> powers;
  powers.resize(freqs.size());

  if (phases.empty() && n >= min_planned_length_ &&
      n - min_planned_length_ < windows_.size()) {
    bank_.scores(window, windows_[n - min_planned_length_], powers);
    return pick(powers);
  }
  const auto w = analysis_weights(n);
  if (phases.empty()) return pick(dsp::tone_glrt_scores(window, freqs, fs, w));
  for (std::size_t i = 0; i < freqs.size(); ++i)
    powers[i] = dsp::tone_known_phase_score(window, freqs[i], phases[i], fs, w);
  return pick(powers);
}

}  // namespace bis::tag
