// Gen2-style slotted inventory: slot-frame superposition physics, the
// adaptive-Q MAC, A/B session flags, and the batched-vs-sequential parity
// contract of core::InventoryEngine.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/inventory.hpp"
#include "core/network.hpp"
#include "core/slot_frame.hpp"
#include "radar/tag_detector.hpp"
#include "tag/gen2_state.hpp"

namespace bis::core {
namespace {

SystemConfig small_base() {
  SystemConfig base;
  base.seed = 33;
  return base;
}

SlotFrameConfig slot_frame_config(const SystemConfig& base,
                                  const phy::SlopeAlphabet& alphabet,
                                  std::size_t slot_chirps = 64) {
  SlotFrameConfig sf;
  sf.slot_chirps = slot_chirps;
  sf.chirp = alphabet.chirp(fixed_sensing_slot(alphabet));
  sf.chirp_period_s = base.radar.chirp_period_s;
  sf.if_synth = base.radar.if_synth;
  sf.if_correction = base.if_correction;
  sf.use_background_subtraction = base.use_background_subtraction;
  sf.seed = base.seed;
  sf.clutter = clutter_returns(base);
  return sf;
}

SlotResponder responder(std::uint32_t tag, std::uint32_t channel, double freq,
                        double range_m, double amp, double duty_phase) {
  SlotResponder r;
  r.tag = tag;
  r.channel = channel;
  r.mod_freq_hz = freq;
  r.range_m = range_m;
  r.amplitude_v = amp;
  r.phase_rad = 0.37 * static_cast<double>(tag);
  r.duty_phase = duty_phase;
  return r;
}

radar::TagDetectorConfig detector_config(double freq) {
  radar::TagDetectorConfig det;
  det.expected_mod_freq_hz = freq;
  return det;
}

TEST(Gen2State, FlagRoundTripAndMatching) {
  tag::Gen2TagState s;
  EXPECT_TRUE(s.matches(2, tag::InventoriedFlag::kA));
  EXPECT_FALSE(s.matches(2, tag::InventoriedFlag::kB));
  s.flip(2);
  EXPECT_TRUE(s.matches(2, tag::InventoriedFlag::kB));
  EXPECT_TRUE(s.matches(0, tag::InventoriedFlag::kA));  // Other sessions keep A.
  s.flip(2);
  EXPECT_TRUE(s.matches(2, tag::InventoriedFlag::kA));
}

TEST(Gen2State, SlotDrawUniformAndInRange) {
  std::vector<std::size_t> counts(16, 0);
  for (std::uint64_t tag = 0; tag < 4096; ++tag) {
    const std::uint32_t s = tag::draw_slot(7, 3, tag, 4);
    ASSERT_LT(s, 16u);
    ++counts[s];
  }
  for (std::size_t c : counts) {
    EXPECT_GT(c, 4096 / 16 / 2);
    EXPECT_LT(c, 4096 / 16 * 2);
  }
  // Pure function of (seed, round, tag, q).
  EXPECT_EQ(tag::draw_slot(7, 3, 11, 4), tag::draw_slot(7, 3, 11, 4));
  EXPECT_NE(tag::draw_slot(7, 3, 11, 10), tag::draw_slot(7, 4, 11, 10));
}

// One responder in a slot window is detected; two responders superposed on
// the SAME channel in anti-phase cancel each other's square wave, and the
// matched filter must not report a clean singleton.
TEST(InventoryDetect, SuperpositionCorruptsSameChannelPair) {
  const SystemConfig base = small_base();
  const auto alphabet = base.make_alphabet();
  const auto plan = assign_mod_frequencies(8, base.radar.chirp_period_s);
  SlotFrameAssembler assembler(slot_frame_config(base, alphabet));
  const radar::TagDetector detector(detector_config(plan[0]));

  const double amp = tag_backscatter_amplitude(base, 2.0);
  const SlotResponder solo = responder(0, 0, plan[0], 2.0, amp, 0.25);

  std::vector<SlotJob> jobs = {{0, {&solo, 1}}};
  const auto det_solo = detector.detect(assembler.assemble(jobs, 0, nullptr));
  ASSERT_TRUE(det_solo.found);
  EXPECT_NEAR(det_solo.range_m, 2.0, 0.15);

  // Same channel, same range, equal amplitude and RF phase, anti-phase duty
  // cycles: exactly one of the pair reflects at any instant, so the bin's
  // return is constant — background subtraction leaves nothing and no
  // slow-time tone survives at the channel frequency. (With distinct RF
  // phases the residual is still a tone — identity stays ambiguous, which is
  // why the engine's read rule also demands exactly one responder per
  // (slot, channel).)
  const SlotResponder a = responder(1, 0, plan[0], 2.0, amp, 0.0);
  SlotResponder b = responder(2, 0, plan[0], 2.0, amp, 0.5);
  b.phase_rad = a.phase_rad;
  const SlotResponder pair[] = {a, b};
  jobs = {{0, {pair, 2}}};
  const auto det_pair = detector.detect(assembler.assemble(jobs, 0, nullptr));
  EXPECT_FALSE(det_pair.found);
}

// Two responders in one slot on DIFFERENT channels separate in the
// slow-time spectrum: both are detected at their own frequencies.
TEST(InventoryDetect, DifferentChannelsShareASlot) {
  const SystemConfig base = small_base();
  const auto alphabet = base.make_alphabet();
  const auto plan = assign_mod_frequencies(8, base.radar.chirp_period_s);
  SlotFrameAssembler assembler(slot_frame_config(base, alphabet));
  const radar::TagDetector detector(detector_config(plan[0]));

  const SlotResponder a =
      responder(0, 0, plan[0], 1.8, tag_backscatter_amplitude(base, 1.8), 0.1);
  const SlotResponder b =
      responder(1, 5, plan[5], 3.2, tag_backscatter_amplitude(base, 3.2), 0.6);
  const SlotResponder pair[] = {a, b};
  const std::vector<SlotJob> jobs = {{0, {pair, 2}}};
  const auto& aligned = assembler.assemble(jobs, 0, nullptr);

  const std::vector<radar::TagTarget> targets = {{plan[0], {}}, {plan[5], {}}};
  const auto dets = detector.detect_many(aligned, targets);
  ASSERT_EQ(dets.size(), 2u);
  EXPECT_TRUE(dets[0].found);
  EXPECT_TRUE(dets[1].found);
  EXPECT_NEAR(dets[0].range_m, 1.8, 0.15);
  EXPECT_NEAR(dets[1].range_m, 3.2, 0.15);
}

// detect_slots over a batched multi-slot frame must be bit-identical to
// detect_many on each slot synthesized as its own standalone frame.
TEST(InventoryDetect, DetectSlotsBitwiseMatchesStandaloneSlots) {
  const SystemConfig base = small_base();
  const auto alphabet = base.make_alphabet();
  const auto plan = assign_mod_frequencies(4, base.radar.chirp_period_s);
  const std::size_t m = 64;
  SlotFrameAssembler batched(slot_frame_config(base, alphabet, m));
  SlotFrameAssembler solo(slot_frame_config(base, alphabet, m));
  const radar::TagDetector detector(detector_config(plan[0]));

  std::vector<SlotResponder> all;
  for (std::uint32_t t = 0; t < 5; ++t)
    all.push_back(responder(t, t % 4, plan[t % 4], 1.5 + 0.8 * t,
                            tag_backscatter_amplitude(base, 1.5 + 0.8 * t),
                            tag::draw_duty_phase(base.seed, t)));
  // Slots 3, 7, 9: singleton / two-channel pair / same-channel pair.
  const std::vector<SlotJob> jobs = {{3, {all.data() + 0, 1}},
                                     {7, {all.data() + 1, 2}},
                                     {9, {all.data() + 3, 2}}};
  std::vector<radar::TagTarget> targets;
  std::vector<radar::SlotSpan> spans;
  for (std::size_t s = 0; s < jobs.size(); ++s) {
    spans.push_back({s * m, m, s * plan.size(), plan.size()});
    for (double f : plan) targets.push_back({f, {}});
  }

  ThreadPool pool(3);
  std::vector<radar::TagDetection> got(targets.size());
  detector.detect_slots(batched.assemble(jobs, 5, &pool), spans, targets, got,
                        &pool);

  for (std::size_t s = 0; s < jobs.size(); ++s) {
    const std::vector<SlotJob> one = {jobs[s]};
    const auto& aligned = solo.assemble(one, 5, nullptr);
    const auto want = detector.detect_many(
        aligned, std::span<const radar::TagTarget>(targets.data(), plan.size()));
    for (std::size_t c = 0; c < plan.size(); ++c) {
      const auto& g = got[s * plan.size() + c];
      const auto& w = want[c];
      EXPECT_EQ(g.found, w.found) << "slot " << s << " ch " << c;
      EXPECT_EQ(g.range_m, w.range_m) << "slot " << s << " ch " << c;
      EXPECT_EQ(g.snr_db, w.snr_db) << "slot " << s << " ch " << c;
      EXPECT_EQ(g.signature_score, w.signature_score)
          << "slot " << s << " ch " << c;
    }
  }
}

InventoryConfig small_inventory() {
  InventoryConfig inv;
  inv.q_initial = 3;
  inv.slots_per_batch = 4;
  inv.max_rounds = 32;
  return inv;
}

TEST(Inventory, DrainsSmallPopulationAndCountsAreConsistent) {
  NetworkConfig net = make_inventory_population(10, small_base());
  InventoryEngine engine(net, small_inventory());
  EXPECT_EQ(engine.pending(), 10u);

  const std::size_t ran = engine.run_until_drained();
  EXPECT_GT(ran, 0u);
  EXPECT_EQ(engine.pending(), 0u);
  for (std::size_t i = 0; i < engine.population(); ++i)
    EXPECT_TRUE(engine.inventoried(i)) << i;

  std::uint64_t reads = 0;
  for (const auto& r : engine.rounds()) {
    EXPECT_EQ(r.slots, r.idle_slots + r.singleton_slots + r.collision_slots);
    // A colliding slot can still read several tags — one per distinct
    // channel — so the bound is occupied slots times the channel plan.
    EXPECT_LE(r.reads, (r.singleton_slots + r.collision_slots) * 8);
    reads += r.reads;
  }
  EXPECT_EQ(reads, 10u);
  EXPECT_EQ(engine.rounds().size(), ran);

  // reset() restores a fresh Query session over the same population.
  engine.reset();
  EXPECT_EQ(engine.pending(), 10u);
  EXPECT_TRUE(engine.rounds().empty());
}

TEST(Inventory, SameChannelSlotCollisionIsNotRead) {
  // Two tags forced into one slot on one channel: the round must classify a
  // collision and read nobody.
  NetworkConfig net = make_inventory_population(2, small_base());
  InventoryConfig inv;
  inv.q_initial = 0;
  inv.q_min = 0;
  inv.q_max = 0;
  inv.adaptive_q = false;
  inv.n_channels = 1;
  inv.max_rounds = 1;
  InventoryEngine engine(net, inv);
  const auto round = engine.run_round();
  EXPECT_EQ(round.slots, 1u);
  EXPECT_EQ(round.collision_slots, 1u);
  EXPECT_EQ(round.reads, 0u);
  EXPECT_EQ(engine.pending(), 2u);
}

TEST(Inventory, AdaptiveQMovesTowardPopulation) {
  // Idle-heavy round (4 tags, 256 slots): Q must fall.
  {
    NetworkConfig net = make_inventory_population(4, small_base());
    InventoryConfig inv = small_inventory();
    inv.q_initial = 8;
    InventoryEngine engine(net, inv);
    const auto round = engine.run_round();
    EXPECT_LT(round.q_fp_after, 8.0);
  }
  // Collision-heavy round (80 tags, 4 slots): Q must rise.
  {
    NetworkConfig net = make_inventory_population(80, small_base());
    InventoryConfig inv = small_inventory();
    inv.q_initial = 2;
    inv.slot_chirps = 16;  // Keep the collision-storm round cheap…
    inv.n_channels = 2;    // …which shrinks the resolvable channel plan.
    InventoryEngine engine(net, inv);
    const auto round = engine.run_round();
    EXPECT_GT(round.q_fp_after, 2.0);
  }
}

TEST(Inventory, TargetBSessionStartsDrained) {
  // Fresh tags carry A flags: a target-B round has nothing pending, which is
  // exactly how a second-pass interrogator sees an already-inventoried
  // population.
  NetworkConfig net = make_inventory_population(6, small_base());
  InventoryConfig inv = small_inventory();
  inv.target = tag::InventoriedFlag::kB;
  InventoryEngine engine(net, inv);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.run_until_drained(), 0u);
}

void expect_rounds_equal(const std::vector<InventoryRound>& a,
                         const std::vector<InventoryRound>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round) << i;
    EXPECT_EQ(a[i].q, b[i].q) << i;
    EXPECT_EQ(a[i].slots, b[i].slots) << i;
    EXPECT_EQ(a[i].idle_slots, b[i].idle_slots) << i;
    EXPECT_EQ(a[i].singleton_slots, b[i].singleton_slots) << i;
    EXPECT_EQ(a[i].collision_slots, b[i].collision_slots) << i;
    EXPECT_EQ(a[i].reads, b[i].reads) << i;
    EXPECT_EQ(a[i].pending_after, b[i].pending_after) << i;
    EXPECT_EQ(a[i].q_fp_after, b[i].q_fp_after) << i;  // Bit-exact double.
  }
}

// The perf headline's correctness contract: the batched engine produces the
// same inventoried set and the same per-round records as the sequential
// one-frame-per-slot reference, at different thread counts and batch sizes.
TEST(Inventory, BatchedMatchesSequentialReference) {
  NetworkConfig net = make_inventory_population(14, small_base());

  InventoryConfig seq = small_inventory();
  seq.batched = false;
  net.base.dsp_threads = 1;
  InventoryEngine reference(net, seq);
  reference.run_until_drained();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t batch : {std::size_t{2}, std::size_t{8}}) {
      InventoryConfig fast = small_inventory();
      fast.batched = true;
      fast.slots_per_batch = batch;
      net.base.dsp_threads = threads;
      InventoryEngine engine(net, fast);
      engine.run_until_drained();
      EXPECT_EQ(engine.inventoried_set(), reference.inventoried_set())
          << "threads=" << threads << " batch=" << batch;
      expect_rounds_equal(engine.rounds(), reference.rounds());
    }
  }
}

}  // namespace
}  // namespace bis::core
