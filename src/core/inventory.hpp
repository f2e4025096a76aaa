#pragma once

/// @file inventory.hpp
/// EPC Gen2-style slotted-ALOHA inventory on top of the BiScatter PHY — the
/// MAC the "millions of tags" scenario needs. Each round the interrogator
/// opens 2^Q slots; every pending tag (its session flag matches the round's
/// A/B target) hashes itself into one slot and beacons its slow-time channel
/// for that slot's chirps. The radar classifies each slot from the waveform
/// (idle / singleton / colliding), reads the singleton-channel responders,
/// flips their session flags, and adapts Q from the collision/idle balance
/// (QueryAdjust).
///
/// Perf headline — batched slot simulation: occupied slots are grouped into
/// multi-slot slow-time frames (core::SlotFrameAssembler), one range-FFT +
/// IF-correction pass per batch, and ONE radar::TagDetector::detect_slots
/// pass scoring every (slot, channel) pair, fanned across the thread pool.
/// The sequential reference simulates one standalone frame per slot through
/// detect_many. Both paths share every decision input bit-for-bit, so the
/// inventoried set and the per-round counters are identical at any batch
/// size, thread count and SIMD target.
///
/// Tags respond on a small plan of resolvable slow-time channels instead of
/// globally unique frequencies: 2^15 slots × 10^5 tags cannot have one tone
/// each inside the slot's FFT resolution, and a bounded plan is exactly what
/// keeps the detector's signature-bank cache a constant-size hit. Two
/// responders sharing a slot on DIFFERENT channels are separable in the
/// slow-time spectrum (the PHY's frequency diversity recovers some MAC
/// collisions); sharing the same channel superposes square waves with
/// independent phases, corrupting the signature the matched filter needs.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/network.hpp"
#include "core/slot_frame.hpp"
#include "obs/report.hpp"
#include "radar/tag_detector.hpp"
#include "tag/gen2_state.hpp"

namespace bis::core {

struct InventoryConfig {
  std::uint32_t q_initial = 4;     ///< Starting Q (2^Q slots per round).
  bool adaptive_q = true;          ///< QueryAdjust between rounds.
  double q_step = 0.35;            ///< Gen2's C: Qfp += C per collision,
                                   ///< −= C per idle, clamped to
                                   ///< [q_min, q_max].
  std::uint32_t q_min = 0;
  std::uint32_t q_max = 15;        ///< Gen2's 15-bit slot counter.
  std::uint8_t session = 2;        ///< S0–S3.
  tag::InventoriedFlag target = tag::InventoriedFlag::kA;
  std::size_t slot_chirps = 64;    ///< Slow-time chirps per slot.
  std::size_t n_channels = 8;      ///< Slow-time channel plan size. Must be
                                   ///< resolvable in a slot window:
                                   ///< spacing ≥ 2/(slot_chirps·T).
  std::size_t slots_per_batch = 32;  ///< Occupied slots per batched frame.
  bool batched = true;             ///< false = one standalone frame per slot
                                   ///< through detect_many (the normative
                                   ///< reference the batched path is gated
                                   ///< against).
  std::size_t max_rounds = 256;    ///< run_until_drained() safety cap.
};

/// Outcome record of one inventory round. Everything except `seconds` is
/// part of the batched-vs-sequential parity contract.
struct InventoryRound {
  std::uint32_t round = 0;
  std::uint32_t q = 0;             ///< Q used this round.
  std::uint64_t slots = 0;         ///< 2^q.
  std::uint64_t idle_slots = 0;
  std::uint64_t singleton_slots = 0;
  std::uint64_t collision_slots = 0;  ///< ≥2 responders in the slot.
  std::uint64_t reads = 0;         ///< Tags inventoried this round.
  std::uint64_t pending_after = 0;
  double q_fp_after = 0.0;         ///< Floating Q after QueryAdjust.
  double seconds = 0.0;            ///< Wall time (not parity-compared).

  double tags_per_s() const {
    return seconds > 0.0 ? static_cast<double>(reads) / seconds : 0.0;
  }
};

/// One radar inventorying a (possibly huge) tag population.
class InventoryEngine {
 public:
  InventoryEngine(const NetworkConfig& network, const InventoryConfig& inventory);

  /// Run one Query round: draw slots for every pending tag, simulate the
  /// occupied slots at the waveform level, read singleton channels, flip
  /// session flags, adapt Q. Returns the round record (also appended to
  /// rounds()).
  InventoryRound run_round();

  /// Rounds until no tag is pending (or max_rounds). Returns rounds run.
  std::size_t run_until_drained();

  /// Tags whose session flag still matches the target (not yet read).
  std::size_t pending() const { return pending_; }
  std::size_t population() const { return states_.size(); }

  /// True once tag @p i has been inventoried away from the round target.
  bool inventoried(std::size_t i) const {
    return !states_[i].matches(inventory_.session, inventory_.target);
  }
  /// 0/1 per tag — the parity gates bit-compare this across engines.
  std::vector<std::uint8_t> inventoried_set() const;

  const std::vector<InventoryRound>& rounds() const { return rounds_; }
  std::span<const tag::Gen2TagState> tag_states() const { return states_; }
  const std::vector<double>& channel_plan() const { return channel_plan_; }
  const InventoryConfig& inventory_config() const { return inventory_; }
  double q_fp() const { return q_fp_; }

  /// Reset every session flag, Q, the round history and the report (a fresh
  /// Query session over the same population).
  void reset();

  // ---- Telemetry ----
  obs::RunReport report() const;
  std::string report_json() const;

 private:
  struct TagRecord {
    double range_m = 0.0;
    double amplitude_v = 0.0;  ///< Two-way backscatter amplitude.
    double phase_rad = 0.0;    ///< Static return phase.
  };

  void simulate_slots(std::uint64_t round_no,
                      std::span<const std::size_t> occupied_first,
                      std::span<const std::size_t> occupied_count,
                      std::span<const std::uint64_t> occupied_slot,
                      InventoryRound& round);
  void resolve_batch(std::span<const SlotJob> jobs,
                     std::span<const radar::SlotSpan> spans,
                     std::span<const radar::TagDetection> detections,
                     InventoryRound& round);

  NetworkConfig network_;
  InventoryConfig inventory_;
  phy::SlopeAlphabet alphabet_;
  radar::TagDetector detector_;
  SlotFrameAssembler assembler_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  obs::RunReport report_;
  CacheBaseline cache_baseline_;  ///< Taken at ctor / reset().

  std::vector<tag::Gen2TagState> states_;  ///< Gen2 MAC state per tag.
  std::vector<TagRecord> records_;         ///< Scene constants per tag.
  std::vector<double> channel_plan_;       ///< Channel → beacon frequency.
  std::size_t pending_ = 0;
  double q_fp_ = 0.0;
  std::uint64_t round_no_ = 0;
  std::vector<InventoryRound> rounds_;

  // Reused per-round buffers (steady-state allocation-free once warm).
  std::vector<std::uint32_t> draws_;          ///< Pending-tag slot draws.
  std::vector<std::uint32_t> pending_tags_;   ///< Pending tag indices.
  std::vector<std::uint64_t> slot_counts_;    ///< Counting-sort histogram.
  std::vector<SlotResponder> responders_;     ///< Slot-sorted responders.
  std::vector<SlotJob> jobs_;
  std::vector<radar::TagTarget> targets_;
  std::vector<radar::SlotSpan> spans_;
  std::vector<radar::TagDetection> detections_;
  std::vector<std::uint32_t> channel_hits_;   ///< Per-channel responder count.
};

/// Build a synthetic warehouse population: @p n tags spread deterministically
/// over ranges [1.2 m, 5.0 m] with addresses i mod 256. The per-tag
/// modulation frequency field is left to the engine's channel plan.
NetworkConfig make_inventory_population(std::size_t n, SystemConfig base);

}  // namespace bis::core
