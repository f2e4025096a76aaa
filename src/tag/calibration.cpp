#include "tag/calibration.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "dsp/tone_fit.hpp"
#include "dsp/peak.hpp"
#include "obs/metrics.hpp"
#include "tag/symbol_demod.hpp"

namespace bis::tag {
namespace {

/// Chirps per slope training run.
constexpr std::size_t kRepeatsPerSlot = 6;
/// Beat-frequency search half-width: an absolute floor, widened relative to
/// the nominal Δf, because dielectric dispersion plus short-window estimator
/// bias can shift the apparent Δf by tens of percent at mmWave (§4, §5.3).
constexpr double kSearchHalfwidthHz = 4e3;
constexpr double kSearchHalfwidthFraction = 0.35;
/// Search grid resolution.
constexpr double kGridStepHz = 100.0;

}  // namespace

CalibrationTable CalibrationTable::nominal(const phy::SlopeAlphabet& alphabet) {
  CalibrationTable t;
  t.slot_beat_freqs_hz = alphabet.nominal_beat_frequencies();
  t.slot_phases_rad.clear();  // unknown without a calibration run
  t.calibrated = false;
  return t;
}

CalibrationTable run_calibration(TagFrontend& frontend,
                                 const phy::SlopeAlphabet& alphabet,
                                 double incident_amplitude_v,
                                 const PeriodicGateConfig& gate_config) {
  const CalibrationTarget target{&frontend, incident_amplitude_v, gate_config};
  return run_calibration(std::span<const CalibrationTarget>(&target, 1), alphabet)
      .front();
}

std::vector<CalibrationTable> run_calibration(
    std::span<const CalibrationTarget> targets, const phy::SlopeAlphabet& alphabet,
    ThreadPool* pool) {
  BIS_CHECK(!targets.empty());
  const double fs = targets.front().frontend->sample_rate();
  std::vector<const TagFrontend*> frontends;
  for (const auto& t : targets) {
    BIS_CHECK(t.incident_amplitude_v > 0.0);
    // Every slot's grid, window and bank below are shared by the batch.
    BIS_CHECK(t.frontend->sample_rate() == fs);
    frontends.push_back(t.frontend);
  }
  std::sort(frontends.begin(), frontends.end());
  BIS_CHECK(std::adjacent_find(frontends.begin(), frontends.end()) ==
            frontends.end());
  const std::size_t n_slots = alphabet.slot_count();

  // Training runs: per tag, a burst train of every slope in slot order,
  // received exactly like live traffic and kept for the scoring pass.
  std::vector<std::vector<dsp::RVec>> streams(targets.size());
  bis::parallel_for(pool, 0, targets.size(), [&](std::size_t t) {
    TagFrontend& frontend = *targets[t].frontend;
    const std::vector<IncidentPath> paths = {
        {targets[t].incident_amplitude_v, 0.0, 0.0}};
    frontend.auto_gain(paths);
    std::array<bool, kRepeatsPerSlot> flags;
    flags.fill(true);
    for (std::size_t slot = 0; slot < n_slots; ++slot) {
      const std::vector<rf::ChirpParams> chirps(kRepeatsPerSlot, alphabet.chirp(slot));
      streams[t].push_back(frontend.receive_frame(chirps, paths, flags));
    }
  });

  std::vector<CalibrationTable> tables(targets.size());
  std::vector<PeriodicGate> gates;
  for (const auto& t : targets) gates.emplace_back(t.gate);
  for (auto& table : tables) {
    table.slot_beat_freqs_hz = alphabet.nominal_beat_frequencies();  // fallback
    table.slot_phases_rad.assign(n_slots, 0.0);
    table.calibrated = true;
  }
  static obs::Counter& banks_built =
      obs::Registry::instance().counter("bis.tag.calibration_banks");

  // One task per slot; each writes only its own slot of every table.
  bis::parallel_for(pool, 0, n_slots, [&](std::size_t slot) {
    const auto chirp = alphabet.chirp(slot);
    const double nominal = alphabet.nominal_beat_frequency(slot);
    std::vector<std::optional<std::vector<PeriodicWindow>>> windows;
    for (std::size_t t = 0; t < targets.size(); ++t)
      windows.push_back(gates[t].slice(streams[t][slot], chirp.period()));
    if (std::none_of(windows.begin(), windows.end(),
                     [](const auto& w) { return w.has_value(); }))
      return;

    // Frequency search grid around the nominal prediction.
    const double halfwidth =
        std::max(kSearchHalfwidthHz, kSearchHalfwidthFraction * nominal);
    std::vector<double> grid;
    for (double f = nominal - halfwidth; f <= nominal + halfwidth; f += kGridStepHz) {
      if (f > 0.0 && f < fs / 2.0) grid.push_back(f);
    }
    if (grid.size() < 3) return;

    // Duration-matched analysis window, same as the decoder's final pass.
    const std::size_t len = SymbolDemod::analysis_length(chirp.duration_s, fs);

    // Same √Hann-weighted DC-nuisance GLRT scorer as the live demodulator,
    // planned once for this slot's grid and window length.
    const dsp::ToneGlrtBank bank(grid, fs, len);
    banks_built.add();
    const auto weights = SymbolDemod::analysis_weights(len);
    const auto plan = bank.window(weights);
    dsp::RVec acc(grid.size());
    dsp::RVec scores(grid.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (!windows[t]) continue;
      const dsp::RVec& stream = streams[t][slot];
      std::fill(acc.begin(), acc.end(), 0.0);
      std::size_t used = 0;
      for (const auto& w : *windows[t]) {
        if (!w.burst_present) continue;
        if (w.start + len > stream.size()) continue;
        bank.scores(std::span<const double>(stream.data() + w.start, len), plan,
                    scores);
        for (std::size_t g = 0; g < grid.size(); ++g) acc[g] += scores[g];
        ++used;
      }
      if (used == 0) continue;

      const auto peak = dsp::find_peak(acc);
      if (acc[peak.index] <= 0.0) continue;
      const double f_star = grid.front() + peak.refined_index * kGridStepHz;
      tables[t].slot_beat_freqs_hz[slot] = f_star;

      // Phase at the gated window start: average the per-window fits as
      // unit vectors (phases are reproducible because the tone phase
      // depends only on the delay-line geometry and slope, not on range).
      double px = 0.0, py = 0.0;
      for (const auto& w : *windows[t]) {
        if (!w.burst_present) continue;
        if (w.start + len > stream.size()) continue;
        const std::span<const double> window(stream.data() + w.start, len);
        const auto fit = dsp::tone_fit(window, f_star, fs, weights);
        px += std::cos(fit.phase_rad);
        py += std::sin(fit.phase_rad);
      }
      tables[t].slot_phases_rad[slot] = std::atan2(py, px);
    }
  });
  return tables;
}

}  // namespace bis::tag
