/// inventory workload: repeated Gen2 drains of 4096-tag populations — the
/// only workload on the MAC (slot draws, QueryAdjust), batched slot-frame
/// synthesis and detect_slots. The traced run times each run_round call and
/// replays batches of the workload's shape through SlotFrameAssembler and
/// TagDetector::detect_slots.

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>

#include "checks.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "core/inventory.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace bis;

constexpr std::size_t kPopulation = 4096;
/// Drains rotate over this many seeded populations. A drain's work depends
/// on its population (the responder count varies by about ±15% between
/// seeds), so a run spreads its samples over several.
constexpr std::size_t kPopulations = 3;
constexpr std::size_t kSetupReps = 15;
/// Batches replayed per layer in the traced run.
constexpr std::size_t kReplayBatches = 6;
/// The small population checked against the one-frame-per-slot reference.
constexpr std::size_t kParityPopulation = 256;
constexpr std::uint32_t kParityQ = 4;

core::InventoryConfig inventory_config() {
  core::InventoryConfig inv;
  inv.q_initial = 12;
  inv.slot_chirps = 64;
  inv.n_channels = 8;
  inv.slots_per_batch = 32;
  inv.session = 2;
  return inv;
}

core::NetworkConfig population(std::uint64_t seed, std::size_t index,
                               std::size_t n, std::size_t threads) {
  core::SystemConfig base;
  base.seed = derive_seed(seed, 3 + index);
  base.dsp_threads = threads;
  return core::make_inventory_population(n, base);
}

/// Batched engine vs the batched = false reference on a small population:
/// identical inventoried sets and round records.
bool parity_matches(std::uint64_t seed) {
  core::InventoryConfig inv;
  inv.q_initial = kParityQ;
  inv.max_rounds = 32;
  core::InventoryConfig seq = inv;
  seq.batched = false;
  core::InventoryEngine reference(population(seed, 0, kParityPopulation, 1), seq);
  reference.run_until_drained();
  core::InventoryEngine batched(population(seed, 0, kParityPopulation, kThreads),
                                inv);
  batched.run_until_drained();
  return batched.inventoried_set() == reference.inventoried_set() &&
         rounds_equal(batched.rounds(), reference.rounds());
}

/// The assembler the engine builds for @p net (same fields as
/// InventoryEngine's constructor).
core::SlotFrameConfig slot_frame_config(const core::NetworkConfig& net,
                                        const core::InventoryConfig& inv,
                                        const phy::SlopeAlphabet& alphabet) {
  core::SlotFrameConfig sf;
  sf.slot_chirps = inv.slot_chirps;
  sf.chirp = alphabet.chirp(core::fixed_sensing_slot(alphabet));
  sf.chirp_period_s = net.base.radar.chirp_period_s;
  sf.if_synth = net.base.radar.if_synth;
  sf.if_correction = net.base.if_correction;
  sf.use_background_subtraction = net.base.use_background_subtraction;
  sf.seed = net.base.seed;
  sf.clutter = core::clutter_returns(net.base);
  sf.reflect_amp =
      db_to_amplitude(-net.base.tag.node.frontend.rf_switch.insertion_loss_db);
  sf.leak_amp = db_to_amplitude(-net.base.tag.node.frontend.rf_switch.isolation_db);
  return sf;
}

/// Replays kReplayBatches full batches with @p responders_per_slot tags in
/// every occupied slot, one span per assemble and per detect_slots call.
void replay_batches(const core::NetworkConfig& net, const core::InventoryConfig& inv,
                    double responders_per_slot, Tracer& tracer) {
  const phy::SlopeAlphabet alphabet = net.base.make_alphabet();
  core::SlotFrameAssembler assembler(slot_frame_config(net, inv, alphabet));
  const auto plan =
      core::assign_mod_frequencies(inv.n_channels, net.base.radar.chirp_period_s);
  radar::TagDetectorConfig det_cfg;
  det_cfg.expected_mod_freq_hz = plan.front();
  det_cfg.precision = net.base.precision;
  const radar::TagDetector detector(det_cfg);
  ThreadPool pool(kThreads);

  // Responder counts per slot spread so the batch total matches the census
  // average (e.g. 1.6 per slot → a mix of 1s and 2s).
  const std::size_t slots = inv.slots_per_batch;
  std::vector<std::size_t> count(slots);
  std::size_t total = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const auto upto = static_cast<std::size_t>(
        std::llround(responders_per_slot * static_cast<double>(s + 1)));
    count[s] = std::max<std::size_t>(1, upto - std::min(upto, total));
    total += count[s];
  }
  std::vector<core::SlotResponder> responders(total);
  for (std::size_t i = 0; i < total; ++i) {
    core::SlotResponder& r = responders[i];
    r.tag = static_cast<std::uint32_t>(i);
    r.channel = static_cast<std::uint32_t>(i % plan.size());
    r.mod_freq_hz = plan[r.channel];
    r.range_m = net.tags[i % net.tags.size()].range_m;
    r.amplitude_v = core::tag_backscatter_amplitude(net.base, r.range_m);
    r.phase_rad = 0.37 * static_cast<double>(i);
    r.duty_phase = tag::draw_duty_phase(net.base.seed, i);
  }
  std::vector<core::SlotJob> jobs;
  std::vector<radar::SlotSpan> spans;
  std::vector<radar::TagTarget> targets;
  for (std::size_t s = 0, first = 0; s < slots; first += count[s], ++s) {
    jobs.push_back({s, {responders.data() + first, count[s]}});
    spans.push_back({s * inv.slot_chirps, inv.slot_chirps, s * inv.n_channels,
                     inv.n_channels});
    for (double f : plan) targets.push_back({f, {}});
  }
  std::vector<radar::TagDetection> detections(targets.size());
  for (std::size_t b = 0; b < kReplayBatches; ++b) {
    ScopedSpan batch(&tracer, "batch", b);
    const radar::AlignedProfiles* aligned = nullptr;
    {
      ScopedSpan s(&tracer, "slot_frame.assemble", b);
      aligned = &assembler.assemble(jobs, b, &pool);
    }
    ScopedSpan s(&tracer, "detect_slots", b);
    detector.detect_slots(*aligned, spans, targets, detections, &pool);
  }
}

}  // namespace

Result run_inventory(const Options& opt) {
  Result res;
  const core::InventoryConfig inv = inventory_config();
  std::vector<core::NetworkConfig> nets;
  for (std::size_t p = 0; p < kPopulations; ++p)
    nets.push_back(population(opt.seed, p, kPopulation, kThreads));

  // Set-up: engine construction. There is no separate warm-up: a drain's
  // first round is most of the drain (about 90% of its occupied slots), so
  // warming with it would repeat the measured work, and the cold-cache cost
  // it would absorb is milliseconds against a drain of seconds.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<core::InventoryEngine>> engines(kPopulations);
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    engines[0].reset();
    const auto t0 = Clock::now();
    engines[0] = std::make_unique<core::InventoryEngine>(nets[0], inv);
    setup_s.push_back(seconds_since(t0));
  }
  for (std::size_t p = 1; p < kPopulations; ++p)
    engines[p] = std::make_unique<core::InventoryEngine>(nets[p], inv);

  ++res.attempted;
  res.check(parity_matches(opt.seed),
            "inventory: batched engine differs from the batched=false reference");
  if (!res.correct) ++res.failed;

  // Closed loop of full drains, one population after another. A traced run
  // alternates untraced cycles (run_until_drained) and traced ones
  // (run_round by run_round), and needs at least one cycle of each.
  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  std::vector<double> tags_per_s, plain_s, traced_s;
  std::vector<std::vector<core::InventoryRound>> first_rounds(kPopulations);
  std::vector<std::size_t> traced_drains(kPopulations, 0);
  const auto start = Clock::now();
  for (std::size_t rep = 0; seconds_since(start) < opt.seconds ||
                            (opt.trace && rep < 2 * kPopulations);
       ++rep) {
    const std::size_t p = rep % kPopulations;
    const bool traced = opt.trace && (rep / kPopulations) % 2 == 1;
    core::InventoryEngine& engine = *engines[p];
    ++res.attempted;
    engine.reset();
    const auto t0 = Clock::now();
    try {
      if (traced) {
        ScopedSpan drain(tracer.get(), "inventory.drain", rep);
        while (engine.pending() > 0 && engine.rounds().size() < inv.max_rounds) {
          ScopedSpan round(tracer.get(), "inventory.run_round", rep);
          engine.run_round();
        }
        ++traced_drains[p];
      } else {
        engine.run_until_drained();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "inventory: drain threw: %s\n", e.what());
      ++res.failed;
      res.correct = false;
      break;
    }
    const double dt = seconds_since(t0);
    (traced ? traced_s : plain_s).push_back(dt);
    if (!traced) tags_per_s.push_back(static_cast<double>(kPopulation) / dt);

    // Output check: fully drained, with the same round records as the
    // population's first drain.
    if (first_rounds[p].empty()) first_rounds[p] = engine.rounds();
    const bool ok = fully_drained(engine.pending(), engine.inventoried_set()) &&
                    rounds_equal(engine.rounds(), first_rounds[p]);
    res.check(ok, "inventory: drain incomplete or round records changed");
    if (!ok) ++res.failed;
  }

  res.add("items_per_s", tags_per_s);
  res.add("setup_s", setup_s);
  if (!opt.trace) return res;

  res.add("trace.overhead_frac", {median(traced_s) / median(plain_s) - 1.0});
  // MAC counts from the round census of every population.
  double slots = 0, reads = 0, collisions = 0, occupied = 0, responses = 0;
  double traced_batches = 0;
  std::vector<double> rounds, empty_rounds;
  for (std::size_t p = 0; p < kPopulations; ++p) {
    double batches = 0, empty = 0;
    double pending_before = static_cast<double>(kPopulation);
    for (const auto& r : first_rounds[p]) {
      const double occ = static_cast<double>(r.singleton_slots + r.collision_slots);
      slots += static_cast<double>(r.slots);
      reads += static_cast<double>(r.reads);
      collisions += static_cast<double>(r.collision_slots);
      occupied += occ;
      responses += pending_before;
      batches += occ / static_cast<double>(inv.slots_per_batch);
      if (r.reads == 0) empty += 1;
      pending_before = static_cast<double>(r.pending_after);
    }
    rounds.push_back(static_cast<double>(first_rounds[p].size()));
    empty_rounds.push_back(empty);
    traced_batches += static_cast<double>(traced_drains[p]) * batches;
  }
  res.add("mac.rounds", rounds);
  res.add("mac.reads_per_slot", {reads / slots});
  res.add("mac.collision_frac", {collisions / slots});
  res.add("mac.empty_rounds", empty_rounds);

  engines.clear();  // their pools' threads end before the replay's start
  replay_batches(nets[0], inv, responses / occupied, *tracer);
  res.spans = tracer->spans();
  const auto self_ns = self_times_by_name(res.spans);
  const auto ms = [&](const char* name) {
    std::vector<double> out;
    if (const auto it = self_ns.find(name); it != self_ns.end())
      for (double ns : it->second) out.push_back(ns / 1e6);
    return out;
  };
  const std::vector<double> round_ms = ms("inventory.run_round");
  const std::vector<double> assemble_ms = ms("slot_frame.assemble");
  const std::vector<double> detect_ms = ms("detect_slots");
  double round_ms_sum = 0.0;
  for (double v : round_ms) round_ms_sum += v;
  res.add("inventory.round_ms", round_ms);
  res.add("slot_frame.ms_per_batch", assemble_ms);
  res.add("detect_slots.ms_per_batch", detect_ms);
  // Round time the replayed batch layers do not account for.
  const double replayed_ms =
      traced_batches * (median(assemble_ms) + median(detect_ms));
  res.add("mac.self_frac", {1.0 - replayed_ms / round_ms_sum});
  return res;
}

}  // namespace perfbench
