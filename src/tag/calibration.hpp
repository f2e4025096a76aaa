#pragma once

/// @file calibration.hpp
/// One-time tag calibration (paper §3.2.1: "it is a common practice to
/// estimate the actual delay-line delay (ΔT) and the expected Δf per slope
/// … as a one-time calibration"; §5: "We run a calibration at 0.5m distance,
/// and used the same calibration configuration for all the other
/// experimental setups").
///
/// The radar sweeps every slope slot a few times at short range; the tag
/// measures the actual beat frequency of each — which differs from the
/// nominal Eq. 11 value because the delay line is dispersive, and which also
/// carries the short-window estimation bias of the tag's own demodulator
/// (image interference of the real-sampled tone). Calibration therefore
/// runs through the *same* gating and windowing machinery as live decoding,
/// so every systematic offset cancels at classification time.

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "dsp/types.hpp"
#include "phy/slope_alphabet.hpp"
#include "tag/periodic_gate.hpp"
#include "tag/tag_frontend.hpp"

namespace bis::tag {

struct CalibrationTable {
  std::vector<double> slot_beat_freqs_hz;  ///< Measured Δf per slot.
  std::vector<double> slot_phases_rad;     ///< Measured tone phase at the
                                           ///< (gated) window start per slot;
                                           ///< range-independent, so the
                                           ///< 0.5 m calibration transfers.
  bool calibrated = false;

  /// Nominal table straight from Eq. 11 (the uncalibrated fallback).
  static CalibrationTable nominal(const phy::SlopeAlphabet& alphabet);
};

/// One tag of a calibration batch: its frontend, the amplitude it is
/// calibrated at, and the gate its decoder will slice with.
struct CalibrationTarget {
  TagFrontend* frontend = nullptr;
  double incident_amplitude_v = 0.0;
  PeriodicGateConfig gate;
};

/// Run the calibration procedure: for each slot, receive a training run of
/// six chirps of that slope through the frontend, gate it exactly as the
/// decoder would, and locate the apparent beat frequency with the decoder's
/// own duration-matched √Hann GLRT estimator, on a 100 Hz grid within
/// max(4 kHz, 35 % of the nominal Δf) of the nominal value. A batch of one.
CalibrationTable run_calibration(TagFrontend& frontend,
                                 const phy::SlopeAlphabet& alphabet,
                                 double incident_amplitude_v,
                                 const PeriodicGateConfig& gate_config);

/// Calibrate every target, each exactly as the one-tag call would. A slot's
/// search grid, analysis length, √Hann window and GLRT bank depend only on
/// the alphabet and the ADC rate, so the batch plans them once per slot for
/// every target; every frontend must share one sample rate. Each frontend
/// first receives its training runs in slot order (drawing its own noise,
/// as alone); then the slots are scored, one task per slot on @p pool
/// (nullptr runs inline), each holding only its own bank.
std::vector<CalibrationTable> run_calibration(
    std::span<const CalibrationTarget> targets, const phy::SlopeAlphabet& alphabet,
    ThreadPool* pool = nullptr);

}  // namespace bis::tag
