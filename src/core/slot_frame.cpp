#include "core/slot_frame.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/random.hpp"
#include "obs/trace.hpp"
#include "tag/gen2_state.hpp"

namespace bis::core {

void synthesize_beacons(radar::IfSynthesizer& synth,
                        std::span<const rf::ChirpParams> chirps,
                        double chirp_period_s,
                        std::span<const SlotResponder> beacons,
                        double reflect_amp, double leak_amp,
                        std::span<radar::IfReturn> returns,
                        std::span<dsp::CVec> out) {
  BIS_CHECK(returns.size() >= beacons.size());
  BIS_CHECK(out.size() == chirps.size());
  const std::size_t first = returns.size() - beacons.size();
  for (std::size_t c = 0; c < chirps.size(); ++c) {
    const double t = static_cast<double>(c) * chirp_period_s;
    for (std::size_t i = 0; i < beacons.size(); ++i) {
      const SlotResponder& b = beacons[i];
      const double x = t * b.mod_freq_hz + b.duty_phase;
      const bool on = (x - std::floor(x)) < 0.5;
      returns[first + i] = {b.range_m,
                            b.amplitude_v * (on ? reflect_amp : leak_amp),
                            b.phase_rad};
    }
    synth.synthesize_into(chirps[c], returns, out[c]);
  }
}

SlotFrameAssembler::SlotFrameAssembler(const SlotFrameConfig& config)
    : config_(config),
      chain_(config.if_synth.sample_rate_hz, config.if_correction,
             config.use_background_subtraction) {
  BIS_CHECK(config_.slot_chirps >= 8);
  BIS_CHECK(config_.chirp_period_s > 0.0);
}

void SlotFrameAssembler::synthesize_slot(const SlotJob& job,
                                         std::uint64_t round,
                                         std::size_t row_first) {
  // The scene is the shared clutter prefix plus one point return per
  // responder. thread_local scratch keeps each parallel lane
  // allocation-free once warm.
  thread_local std::vector<radar::IfReturn> returns;
  returns.assign(config_.clutter.begin(), config_.clutter.end());
  returns.resize(config_.clutter.size() + job.responders.size());

  // Noise and phase-noise are drawn from a synthesizer seeded purely by
  // (seed, round, slot): the slot's samples do not depend on which batch it
  // lands in, which batch-mate precedes it, or which thread runs it. Slow
  // time is slot-local: each slot is its own acquisition window, so the
  // square wave restarts at the slot boundary; a tag's absolute phase is
  // carried by its duty_phase.
  Rng rng(tag::gen2_hash(config_.seed, 0x5107F4A3ull, round, job.slot_index));
  radar::IfSynthesizer synth(config_.if_synth, rng);
  const std::size_t m = config_.slot_chirps;
  synthesize_beacons(synth, std::span(chirps_).subspan(row_first, m),
                     config_.chirp_period_s, job.responders,
                     config_.reflect_amp, config_.leak_amp, returns,
                     std::span(frame_.if_samples).subspan(row_first, m));
}

const radar::AlignedProfiles& SlotFrameAssembler::assemble(
    std::span<const SlotJob> jobs, std::uint64_t round, ThreadPool* pool) {
  BIS_TRACE_SPAN("core.slot_frame_assemble");
  BIS_CHECK(!jobs.empty());
  const std::size_t m = config_.slot_chirps;
  const std::size_t n_total = jobs.size() * m;

  // Every chirp is the same fixed sensing slope, so the per-chirp range
  // axis — and therefore the common alignment grid — is identical no matter
  // how many slots share the frame: a precondition for batched-vs-standalone
  // bit identity.
  chirps_.assign(n_total, config_.chirp);
  frame_.if_samples.resize(n_total);

  // Per-slot synthesis is an independent pure map (own seed, own rows).
  bis::parallel_for(pool, 0, jobs.size(), [&](std::size_t s) {
    synthesize_slot(jobs[s], round, s * m);
  });

  // Each slot window subtracts its own first chirp — the same ops a
  // standalone slot frame runs on its one window.
  chain_.range_fft(chirps_, frame_, pool);
  chain_.if_correct(frame_, pool, m);
  return frame_.aligned;
}

}  // namespace bis::core
