#include "core/inventory.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace bis::core {

namespace {

std::uint32_t clamp_q(double q_fp, std::uint32_t q_min, std::uint32_t q_max) {
  const long long q = std::llround(q_fp);
  if (q < static_cast<long long>(q_min)) return q_min;
  if (q > static_cast<long long>(q_max)) return q_max;
  return static_cast<std::uint32_t>(q);
}

}  // namespace

InventoryEngine::InventoryEngine(const NetworkConfig& network,
                                 const InventoryConfig& inventory)
    : network_(network),
      inventory_(inventory),
      alphabet_(network.base.make_alphabet()),
      detector_([&] {
        radar::TagDetectorConfig det;
        // Channel 0's frequency is only detect()'s default target; slot
        // scoring always passes the per-channel target list explicitly.
        det.expected_mod_freq_hz =
            assign_mod_frequencies(inventory.n_channels,
                                   network.base.radar.chirp_period_s)
                .front();
        return det;
      }()),
      assembler_([&] {
        SlotFrameConfig sf;
        sf.slot_chirps = inventory.slot_chirps;
        sf.chirp = alphabet_.chirp(fixed_sensing_slot(alphabet_));
        sf.chirp_period_s = network.base.radar.chirp_period_s;
        sf.if_synth = network.base.radar.if_synth;
        sf.if_correction = network.base.if_correction;
        sf.use_background_subtraction = network.base.use_background_subtraction;
        sf.seed = network.base.seed;
        sf.clutter = clutter_returns(network.base);
        sf.reflect_amp = db_to_amplitude(
            -network.base.tag.node.frontend.rf_switch.insertion_loss_db);
        sf.leak_amp = db_to_amplitude(
            -network.base.tag.node.frontend.rf_switch.isolation_db);
        return sf;
      }()) {
  BIS_CHECK(!network_.tags.empty());
  BIS_CHECK(inventory_.session < 4);
  BIS_CHECK(inventory_.n_channels >= 1);
  BIS_CHECK(inventory_.slots_per_batch >= 1);
  BIS_CHECK(inventory_.q_min <= inventory_.q_max);
  BIS_CHECK(inventory_.q_max <= 31);
  BIS_CHECK(inventory_.q_initial >= inventory_.q_min &&
            inventory_.q_initial <= inventory_.q_max);
  pool_ = resolve_dsp_pool(network_.base.dsp_threads, owned_pool_);

  const auto& base = network_.base;
  channel_plan_ =
      assign_mod_frequencies(inventory_.n_channels, base.radar.chirp_period_s);
  if (channel_plan_.size() >= 2) {
    // Channels must be separable inside ONE slot window: adjacent plan
    // frequencies at least a Hann mainlobe (2/(slot_chirps·T)) apart,
    // otherwise same-slot different-channel responders smear into each
    // other and the read rule stops meaning anything.
    const double spacing = channel_plan_[1] - channel_plan_[0];
    const double resolution =
        2.0 / (static_cast<double>(inventory_.slot_chirps) *
               base.radar.chirp_period_s);
    BIS_CHECK(spacing >= resolution);
  }

  const std::size_t n = network_.tags.size();
  states_.resize(n);
  records_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Round-robin channel assignment: deterministic, evenly loaded. (A real
    // tag would randomize per round; the simulator keeps it static so the
    // waveform identity of a tag is stable across rounds.)
    states_[i].channel =
        static_cast<std::uint32_t>(i % inventory_.n_channels);
    states_[i].duty_phase = tag::draw_duty_phase(base.seed, i);
    records_[i].range_m = network_.tags[i].range_m;
    records_[i].amplitude_v =
        tag_backscatter_amplitude(base, network_.tags[i].range_m);
    records_[i].phase_rad = 0.37 * static_cast<double>(i);
  }
  q_fp_ = static_cast<double>(inventory_.q_initial);
  pending_ = 0;
  for (const auto& s : states_)
    if (s.matches(inventory_.session, inventory_.target)) ++pending_;
}

std::vector<std::uint8_t> InventoryEngine::inventoried_set() const {
  std::vector<std::uint8_t> out(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i)
    out[i] = inventoried(i) ? 1 : 0;
  return out;
}

void InventoryEngine::reset() {
  for (auto& s : states_) s.flags.fill(tag::InventoriedFlag::kA);
  q_fp_ = static_cast<double>(inventory_.q_initial);
  round_no_ = 0;
  rounds_.clear();
  pending_ = 0;
  for (const auto& s : states_)
    if (s.matches(inventory_.session, inventory_.target)) ++pending_;
}

void InventoryEngine::resolve_batch(
    std::span<const SlotJob> jobs, std::span<const radar::SlotSpan> spans,
    std::span<const radar::TagDetection> detections, InventoryRound& round) {
  // Read rule, per slot: a channel's responder is read iff the detector
  // found that channel in the slot's window AND the channel has exactly one
  // responder there. Two same-channel responders superpose (identity is
  // ambiguous even when the corrupted signature slips past the filter);
  // different channels separate in the slow-time spectrum, so the PHY
  // recovers some MAC collisions — those reads are what the frequency plan
  // buys over pure slotted ALOHA.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SlotJob& job = jobs[j];
    const radar::SlotSpan& span = spans[j];
    channel_hits_.assign(inventory_.n_channels, 0);
    for (const SlotResponder& r : job.responders) ++channel_hits_[r.channel];
    for (const SlotResponder& r : job.responders) {
      const radar::TagDetection& det = detections[span.first_target + r.channel];
      if (!det.found || channel_hits_[r.channel] != 1) continue;
      states_[r.tag].flip(inventory_.session);
      --pending_;
      ++round.reads;
    }
  }
}

void InventoryEngine::simulate_slots(
    std::uint64_t round_no, std::span<const std::size_t> occupied_first,
    std::span<const std::size_t> occupied_count,
    std::span<const std::uint64_t> occupied_slot, InventoryRound& round) {
  const std::size_t n_occupied = occupied_slot.size();
  const std::size_t m = inventory_.slot_chirps;
  const std::size_t batch =
      inventory_.batched ? inventory_.slots_per_batch : 1;

  for (std::size_t done = 0; done < n_occupied; done += batch) {
    const std::size_t take = std::min(batch, n_occupied - done);
    jobs_.clear();
    spans_.clear();
    targets_.clear();
    for (std::size_t j = 0; j < take; ++j) {
      const std::size_t o = done + j;
      jobs_.push_back(
          {occupied_slot[o],
           std::span<const SlotResponder>(responders_.data() + occupied_first[o],
                                          occupied_count[o])});
      spans_.push_back({j * m, m, j * inventory_.n_channels,
                        inventory_.n_channels});
      for (double f : channel_plan_) targets_.push_back({f, {}});
    }
    const radar::AlignedProfiles& aligned =
        assembler_.assemble(jobs_, round_no, pool_);
    detections_.resize(targets_.size());
    if (inventory_.batched) {
      detector_.detect_slots(aligned, spans_, targets_, detections_, pool_);
    } else {
      // Normative reference: the whole (single-slot) frame through
      // detect_many, exactly as a standalone per-slot simulation would.
      detector_.detect_many(
          aligned,
          std::span<const radar::TagTarget>(targets_.data(),
                                            inventory_.n_channels),
          std::span<radar::TagDetection>(detections_.data(),
                                         inventory_.n_channels),
          pool_);
    }
    resolve_batch(jobs_, spans_, detections_, round);
  }
}

InventoryRound InventoryEngine::run_round() {
  BIS_TRACE_SPAN("core.inventory_round");
  const std::uint64_t t0 = obs::now_ns();
  InventoryRound round;
  round.round = static_cast<std::uint32_t>(round_no_);
  round.q = clamp_q(q_fp_, inventory_.q_min, inventory_.q_max);
  const std::uint64_t n_slots = 1ull << round.q;
  round.slots = n_slots;

  const auto& base = network_.base;
  const std::size_t n = states_.size();

  // Slot draws for every pending tag — a pure hash of (seed, round, tag),
  // so the MAC schedule is independent of batching and threading.
  pending_tags_.clear();
  draws_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!states_[i].matches(inventory_.session, inventory_.target)) continue;
    pending_tags_.push_back(static_cast<std::uint32_t>(i));
    draws_.push_back(tag::draw_slot(base.seed, round_no_, i, round.q));
  }

  // Counting-sort responders by slot (stable: ascending tag within a slot).
  slot_counts_.assign(n_slots + 1, 0);
  for (std::uint32_t d : draws_) ++slot_counts_[d + 1];
  for (std::uint64_t s = 0; s < n_slots; ++s)
    slot_counts_[s + 1] += slot_counts_[s];
  responders_.resize(draws_.size());
  {
    thread_local std::vector<std::uint64_t> cursor;
    cursor.assign(slot_counts_.begin(), slot_counts_.end() - 1);
    for (std::size_t k = 0; k < draws_.size(); ++k) {
      const std::uint32_t tag_i = pending_tags_[k];
      SlotResponder r;
      r.tag = tag_i;
      r.channel = states_[tag_i].channel;
      r.mod_freq_hz = channel_plan_[r.channel];
      r.range_m = records_[tag_i].range_m;
      r.amplitude_v = records_[tag_i].amplitude_v;
      r.phase_rad = records_[tag_i].phase_rad;
      r.duty_phase = states_[tag_i].duty_phase;
      responders_[cursor[draws_[k]]++] = r;
    }
  }

  // Slot census — and the occupied-slot worklist for the waveform phase.
  thread_local std::vector<std::size_t> occupied_first, occupied_count;
  thread_local std::vector<std::uint64_t> occupied_slot;
  occupied_first.clear();
  occupied_count.clear();
  occupied_slot.clear();
  for (std::uint64_t s = 0; s < n_slots; ++s) {
    const std::uint64_t first = slot_counts_[s];
    const std::uint64_t count = slot_counts_[s + 1] - first;
    if (count == 0) {
      ++round.idle_slots;
    } else {
      if (count == 1)
        ++round.singleton_slots;
      else
        ++round.collision_slots;
      occupied_first.push_back(static_cast<std::size_t>(first));
      occupied_count.push_back(static_cast<std::size_t>(count));
      occupied_slot.push_back(s);
    }
  }

  simulate_slots(round_no_, occupied_first, occupied_count, occupied_slot,
                 round);

  // QueryAdjust: slot outcomes in slot order nudge the floating Q — up on
  // collisions (too few slots), down on idles (too many), clamped each step
  // so a long idle tail cannot push Q through the floor and back.
  if (inventory_.adaptive_q) {
    const double lo = static_cast<double>(inventory_.q_min);
    const double hi = static_cast<double>(inventory_.q_max);
    for (std::uint64_t s = 0; s < n_slots; ++s) {
      const std::uint64_t count = slot_counts_[s + 1] - slot_counts_[s];
      if (count == 0)
        q_fp_ = std::max(lo, q_fp_ - inventory_.q_step);
      else if (count >= 2)
        q_fp_ = std::min(hi, q_fp_ + inventory_.q_step);
    }
  }
  round.q_fp_after = q_fp_;
  round.pending_after = pending_;
  round.seconds = static_cast<double>(obs::now_ns() - t0) / 1e9;

  // Live view of the MAC for a TelemetrySink (obs registry; cheap enough to
  // set unconditionally — one atomic store each per round). The round
  // record above is the count.
  {
    auto& reg = obs::Registry::instance();
    static obs::Gauge& q_g = reg.gauge("bis.inventory.q");
    static obs::Gauge& pending_g = reg.gauge("bis.inventory.pending");
    static obs::Gauge& rate_g = reg.gauge("bis.inventory.round_tags_per_s");
    static obs::Gauge& coll_g = reg.gauge("bis.inventory.collision_rate");
    static obs::Gauge& empty_g = reg.gauge("bis.inventory.empty_slot_rate");
    q_g.set(static_cast<double>(round.q));
    pending_g.set(static_cast<double>(pending_));
    rate_g.set(round.tags_per_s());
    coll_g.set(round.slots > 0 ? static_cast<double>(round.collision_slots) /
                                     static_cast<double>(round.slots)
                               : 0.0);
    empty_g.set(round.slots > 0 ? static_cast<double>(round.idle_slots) /
                                      static_cast<double>(round.slots)
                                : 0.0);
  }

  ++round_no_;
  rounds_.push_back(round);
  return round;
}

std::size_t InventoryEngine::run_until_drained() {
  std::size_t ran = 0;
  while (pending_ > 0 && ran < inventory_.max_rounds) {
    run_round();
    ++ran;
  }
  return ran;
}

NetworkConfig make_inventory_population(std::size_t n, SystemConfig base) {
  BIS_CHECK(n >= 1);
  NetworkConfig cfg;
  cfg.base = std::move(base);
  cfg.tags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cfg.tags[i].address = static_cast<std::uint8_t>(i & 0xFF);
    // Deterministic per-tag range in [1.2, 5.0) m — a pure hash, so a tag's
    // geometry does not depend on the population size around it.
    const std::uint64_t h = tag::gen2_hash(cfg.base.seed, 0x4A73ull, i, 1);
    cfg.tags[i].range_m =
        1.2 + 3.8 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  }
  return cfg;
}

}  // namespace bis::core
