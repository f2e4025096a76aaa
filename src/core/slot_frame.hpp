#pragma once

/// @file slot_frame.hpp
/// Batched MAC-slot waveform assembly for the inventory engine. A Gen2-style
/// inventory round is thousands of short slots; simulating each one as a
/// standalone frame pays one range-FFT/align pipeline pass — and all its
/// setup — per slot. The assembler instead concatenates many slots into ONE
/// slow-time frame (slot i owns chirps [i·slot_chirps, (i+1)·slot_chirps)),
/// runs a single range-FFT + IF-correction pass over the whole batch, and
/// background-subtracts each slot window against its own first chirp.
///
/// The grouping is invisible to the signal: every slot's IF samples come
/// from its own deterministically seeded synthesizer (a pure function of
/// (seed, round, slot)), every chirp's range FFT and regrid are per-chirp
/// pure maps, and the per-window subtraction touches only the window's own
/// rows — so the slot's rows in a batch are bit-identical to assembling it
/// alone, regardless of batch composition or thread count.
///
/// Collisions are modeled at the waveform level: all of a slot's responders
/// are superposed point returns whose square-wave switching (each with its
/// own duty phase) multiplies the backscatter amplitude chirp by chirp. Two
/// tags on the same slow-time channel corrupt each other's signature; the
/// matched filter downstream must reject the slot rather than decode it.

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/receive_chain.hpp"
#include "rf/chirp.hpp"

namespace bis::core {

/// One responder (a tag that drew this slot) as the waveform layer sees it.
struct SlotResponder {
  std::uint32_t tag = 0;       ///< Engine tag index (for outcome mapping).
  std::uint32_t channel = 0;   ///< Slow-time channel index in the plan.
  double mod_freq_hz = 0.0;    ///< The channel's beacon frequency.
  double range_m = 0.0;
  double amplitude_v = 0.0;    ///< Two-way backscatter amplitude.
  double phase_rad = 0.0;      ///< Static return phase.
  double duty_phase = 0.0;     ///< Square-wave phase offset, [0, 1).
};

/// One occupied slot scheduled into a batched frame.
struct SlotJob {
  std::uint64_t slot_index = 0;  ///< MAC slot number (seeds the synthesis).
  std::span<const SlotResponder> responders;
};

struct SlotFrameConfig {
  std::size_t slot_chirps = 64;      ///< Slow-time chirps per slot.
  rf::ChirpParams chirp;             ///< Fixed sensing chirp (every chirp).
  double chirp_period_s = 0.0;       ///< Slow-time cadence.
  radar::IfSynthConfig if_synth;
  radar::RangeAlignConfig if_correction;
  bool use_background_subtraction = true;
  std::uint64_t seed = 1;            ///< Master seed (mixed per slot).
  std::vector<radar::IfReturn> clutter;  ///< Static clutter prefix.
  double reflect_amp = 1.0;          ///< RF-switch reflective factor.
  double leak_amp = 0.0;             ///< Absorptive-state leakage factor.
};

/// The square-wave beacon loop every sensing frame shares (the network's,
/// each inventory slot's). @p returns holds a static clutter prefix followed
/// by one entry per beacon. For chirp c the beacons' returns are set for
/// slow time t = c·chirp_period_s — beacon i reflects
/// (amplitude_v·reflect_amp) while frac(t·mod_freq_hz + duty_phase) < 0.5
/// and leaks (amplitude_v·leak_amp) otherwise — and chirps[c] is
/// synthesized into out[c].
void synthesize_beacons(radar::IfSynthesizer& synth,
                        std::span<const rf::ChirpParams> chirps,
                        double chirp_period_s,
                        std::span<const SlotResponder> beacons,
                        double reflect_amp, double leak_amp,
                        std::span<radar::IfReturn> returns,
                        std::span<dsp::CVec> out);

/// Assembles batched slow-time frames out of MAC slot jobs. Frame buffers
/// are owned and reused across batches; the returned profiles are valid
/// until the next assemble() call.
class SlotFrameAssembler {
 public:
  explicit SlotFrameAssembler(const SlotFrameConfig& config);

  /// Synthesize, range-FFT, align, and per-window background-subtract
  /// @p jobs into one frame of jobs.size()·slot_chirps chirps. Slot i's
  /// window starts at chirp i·slot_chirps. Per-slot synthesis fans across
  /// @p pool (nullptr = inline); each slot's rows are bit-identical to a
  /// single-slot assemble() of the same job.
  const radar::AlignedProfiles& assemble(std::span<const SlotJob> jobs,
                                         std::uint64_t round,
                                         ThreadPool* pool = nullptr);

  const radar::AlignedProfiles& aligned() const { return frame_.aligned; }
  const SlotFrameConfig& config() const { return config_; }

 private:
  void synthesize_slot(const SlotJob& job, std::uint64_t round,
                       std::size_t row_first);

  SlotFrameConfig config_;
  radar::ReceiveChain chain_;

  // Reused frame buffers (steady-state allocation-free once warm).
  std::vector<rf::ChirpParams> chirps_;
  radar::ReceiveFrame frame_;
};

}  // namespace bis::core
