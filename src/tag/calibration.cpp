#include "tag/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "dsp/tone_fit.hpp"
#include "dsp/peak.hpp"
#include "tag/symbol_demod.hpp"

namespace bis::tag {

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
                                 const CalibrationConfig& config,
                                 const PeriodicGateConfig& gate_config) {
  BIS_CHECK(incident_amplitude_v > 0.0);
  BIS_CHECK(config.repeats_per_slot >= 2);
  BIS_CHECK(config.search_halfwidth_hz > 0.0);
  BIS_CHECK(config.grid_step_hz > 0.0);

  const std::vector<IncidentPath> paths = {{incident_amplitude_v, 0.0, 0.0}};
  frontend.auto_gain(paths);
  const double fs = frontend.sample_rate();
  const PeriodicGate gate(gate_config);

  CalibrationTable table;
  table.slot_beat_freqs_hz.resize(alphabet.slot_count(), 0.0);
  table.slot_phases_rad.resize(alphabet.slot_count(), 0.0);

  for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot) {
    const auto chirp = alphabet.chirp(slot);
    const double nominal = alphabet.nominal_beat_frequency(slot);
    table.slot_beat_freqs_hz[slot] = nominal;  // fallback

    // Training run: a burst train of this slope, received and gated exactly
    // like live traffic.
    std::vector<rf::ChirpParams> chirps(config.repeats_per_slot, chirp);
    std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
    std::fill_n(flags.get(), chirps.size(), true);
    const auto stream = frontend.receive_frame(
        chirps, paths, std::span<const bool>(flags.get(), chirps.size()));

    const auto windows = gate.slice(stream, chirp.period());
    if (!windows) continue;

    // Frequency search grid around the nominal prediction.
    const double halfwidth = std::max(
        config.search_halfwidth_hz, config.search_halfwidth_fraction * nominal);
    std::vector<double> grid;
    for (double f = nominal - halfwidth; f <= nominal + halfwidth;
         f += config.grid_step_hz) {
      if (f > 0.0 && f < fs / 2.0) grid.push_back(f);
    }
    if (grid.size() < 3) continue;

    // Duration-matched analysis window, same as the decoder's final pass.
    const std::size_t len = SymbolDemod::analysis_length(chirp.duration_s, fs);

    // Same √Hann-weighted DC-nuisance GLRT scorer as the live demodulator,
    // planned once for this slot's grid and window length.
    const dsp::ToneGlrtBank bank(grid, fs, len);
    const auto weights = SymbolDemod::analysis_weights(len);
    const auto plan = bank.window(weights);
    dsp::RVec acc(grid.size(), 0.0);
    dsp::RVec scores(grid.size());
    std::size_t used = 0;
    for (const auto& w : *windows) {
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
    const double f_star = grid.front() + peak.refined_index * config.grid_step_hz;
    table.slot_beat_freqs_hz[slot] = f_star;

    // Phase at the gated window start: average the per-window fits as unit
    // vectors (phases are reproducible because the tone phase depends only
    // on the delay-line geometry and slope, not on range).
    double px = 0.0, py = 0.0;
    for (const auto& w : *windows) {
      if (!w.burst_present) continue;
      if (w.start + len > stream.size()) continue;
      const std::span<const double> window(stream.data() + w.start, len);
      const auto fit = dsp::tone_fit(window, f_star, fs, weights);
      px += std::cos(fit.phase_rad);
      py += std::sin(fit.phase_rad);
    }
    table.slot_phases_rad[slot] = std::atan2(py, px);
  }
  table.calibrated = true;
  return table;
}

}  // namespace bis::tag
