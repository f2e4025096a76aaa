/// Massive multi-tag inventory harness: measures the batched slot-simulation
/// engine (core::InventoryEngine, detect_slots over multi-slot frames)
/// against the naive one-full-frame-per-slot reference and writes
/// BENCH_inventory.json:
///   1. parity — the inventoried set and every per-round record (q, slot
///      census, reads, pending, floating Q) identical between the batched
///      engine and the sequential one-frame-per-slot reference, at every
///      thread count and batch size;
///   2. population rows — tags/sec and rounds-to-drain for 1k/16k/128k tag
///      populations. The naive reference simulates EVERY scheduled slot
///      (idle listen windows included — idle is a detection outcome, not an
///      input) as a standard full-length sensing frame: kNaiveFrameChirps
///      chirps through its own synthesis + range-FFT + detect_many pass,
///      the way BiScatterNetwork::sense_all would poll per slot. Its cost
///      is measured per slot on samples carrying the row's real responder
///      load and extrapolated to the row's slot census.
/// Rows that oversubscribe the host record "valid": false, following the
/// BENCH_server.json convention.
///
/// CI smoke mode: `bench_inventory --smoke` runs only the parity gates at
/// small populations.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/inventory.hpp"
#include "core/network.hpp"
#include "core/slot_frame.hpp"
#include "radar/tag_detector.hpp"
#include "tag/gen2_state.hpp"

namespace {

using namespace bis;
using Clock = std::chrono::steady_clock;

/// What the naive per-slot poll would burn: a full sensing frame per slot,
/// like the pre-inventory network path (BiScatterNetwork frame_chirps).
constexpr std::size_t kNaiveFrameChirps = 256;

core::SystemConfig bench_base() {
  core::SystemConfig base;
  base.seed = 20260808;
  return base;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool rounds_equal(const std::vector<core::InventoryRound>& a,
                  const std::vector<core::InventoryRound>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].round != b[i].round || a[i].q != b[i].q ||
        a[i].slots != b[i].slots || a[i].idle_slots != b[i].idle_slots ||
        a[i].singleton_slots != b[i].singleton_slots ||
        a[i].collision_slots != b[i].collision_slots ||
        a[i].reads != b[i].reads ||
        a[i].pending_after != b[i].pending_after)
      return false;
    if (std::memcmp(&a[i].q_fp_after, &b[i].q_fp_after, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Measure the naive reference's per-slot cost: synthesize + range-process +
/// detect one standalone kNaiveFrameChirps-chirp frame carrying
/// @p n_responders tags (0 = an idle listen window, clutter only), scoring
/// the full channel plan, and keep the per-slot minimum.
double naive_ms_per_slot(const core::NetworkConfig& net,
                         const core::InventoryConfig& inv,
                         std::size_t sample_slots,
                         std::size_t n_responders) {
  const auto alphabet = net.base.make_alphabet();
  core::SlotFrameConfig sf;
  sf.slot_chirps = kNaiveFrameChirps;
  sf.chirp = alphabet.chirp(core::fixed_sensing_slot(alphabet));
  sf.chirp_period_s = net.base.radar.chirp_period_s;
  sf.if_synth = net.base.radar.if_synth;
  sf.if_correction = net.base.if_correction;
  sf.use_background_subtraction = net.base.use_background_subtraction;
  sf.seed = net.base.seed;
  sf.clutter = core::clutter_returns(net.base);
  core::SlotFrameAssembler assembler(sf);

  const auto plan = core::assign_mod_frequencies(
      inv.n_channels, net.base.radar.chirp_period_s);
  radar::TagDetectorConfig det_cfg;
  det_cfg.expected_mod_freq_hz = plan.front();
  const radar::TagDetector detector(det_cfg);
  std::vector<radar::TagTarget> targets;
  for (double f : plan) targets.push_back({f, {}});
  std::vector<radar::TagDetection> out(targets.size());

  std::vector<core::SlotResponder> responders(n_responders);
  for (std::size_t i = 0; i < n_responders; ++i) {
    core::SlotResponder& r = responders[i];
    r.tag = static_cast<std::uint32_t>(i);
    r.channel = static_cast<std::uint32_t>(i % plan.size());
    r.mod_freq_hz = plan[r.channel];
    r.range_m = net.tags[i % net.tags.size()].range_m;
    r.amplitude_v = core::tag_backscatter_amplitude(net.base, r.range_m);
    r.phase_rad = 0.37 * static_cast<double>(i);
    r.duty_phase = tag::draw_duty_phase(net.base.seed, i);
  }

  double best_ms = 1e300;
  for (std::size_t s = 0; s < sample_slots; ++s) {
    const std::vector<core::SlotJob> jobs = {
        {s, {responders.data(), responders.size()}}};
    const auto t0 = Clock::now();
    detector.detect_many(assembler.assemble(jobs, 0, nullptr), targets, out,
                         nullptr);
    best_ms = std::min(best_ms, 1e3 * seconds_since(t0));
  }
  return best_ms;
}

struct Row {
  std::size_t population = 0;
  std::uint32_t q = 0;
  unsigned session = 0;
  std::size_t slot_chirps = 0;
  std::size_t n_channels = 0;
  std::size_t threads = 0;
  std::size_t rounds = 0;
  bool drained = false;
  std::uint64_t slots = 0;          ///< Scheduled slots across rounds.
  std::uint64_t occupied_slots = 0; ///< Singleton + collision slots.
  std::uint64_t reads = 0;
  double batched_s = 0.0;
  double naive_s_est = 0.0;  ///< Per-slot naive cost × occupied slots.
  double tags_per_s = 0.0;
  double speedup = 0.0;
  bool valid = true;
};

Row measure_population(std::size_t population, core::InventoryConfig inv,
                       std::size_t threads, unsigned hardware_threads) {
  core::NetworkConfig net = core::make_inventory_population(population,
                                                            bench_base());
  net.base.dsp_threads = threads;

  Row row;
  row.population = population;
  row.q = inv.q_initial;
  row.session = inv.session;
  row.slot_chirps = inv.slot_chirps;
  row.n_channels = inv.n_channels;
  row.threads = threads;
  row.valid = threads <= hardware_threads;

  core::InventoryEngine engine(net, inv);
  const auto t0 = Clock::now();
  row.rounds = engine.run_until_drained();
  row.batched_s = seconds_since(t0);
  row.drained = engine.pending() == 0;
  std::uint64_t responses = 0;  ///< Tag responses summed over rounds.
  std::uint64_t pending_before = population;
  for (const auto& r : engine.rounds()) {
    row.slots += r.slots;
    row.occupied_slots += r.singleton_slots + r.collision_slots;
    row.reads += r.reads;
    responses += pending_before;
    pending_before = r.pending_after;
  }
  row.tags_per_s = row.batched_s > 0.0
                       ? static_cast<double>(row.reads) / row.batched_s
                       : 0.0;

  // Naive estimate: a one-frame-per-slot simulator pays a full sensing
  // frame for EVERY scheduled slot — it cannot skip a slot without
  // listening to it (idle is a detection outcome, not an input) — and its
  // occupied frames carry the round's real responder load. Sample both
  // window kinds and extrapolate; running the naive path outright at 128k
  // tags is the pathology this engine removes.
  const std::size_t avg_responders =
      row.occupied_slots == 0
          ? 1
          : static_cast<std::size_t>(
                (responses + row.occupied_slots - 1) / row.occupied_slots);
  const double occupied_ms = naive_ms_per_slot(net, inv, 4, avg_responders);
  const double idle_ms = naive_ms_per_slot(net, inv, 4, 0);
  row.naive_s_est =
      (occupied_ms * static_cast<double>(row.occupied_slots) +
       idle_ms * static_cast<double>(row.slots - row.occupied_slots)) /
      1e3;
  row.speedup = row.batched_s > 0.0 ? row.naive_s_est / row.batched_s : 0.0;

  std::printf(
      "pop %7zu  q0 %2u  chirps %2zu  ch %zu  threads %zu: %3zu round(s)%s  "
      "%8llu reads  %8.2f s  %9.0f tags/s  naive est %8.2f s  %5.1fx%s\n",
      population, row.q, row.slot_chirps, row.n_channels, threads, row.rounds,
      row.drained ? " (drained)" : "          ",
      static_cast<unsigned long long>(row.reads), row.batched_s,
      row.tags_per_s, row.naive_s_est, row.speedup,
      row.valid ? "" : "  [invalid: oversubscribed]");
  return row;
}

/// Batched-vs-sequential parity at one population: identical inventoried
/// sets and per-round records across thread counts and batch sizes.
bool parity_gate(std::size_t population, std::uint32_t q_initial,
                 std::span<const std::size_t> thread_counts) {
  core::NetworkConfig net = core::make_inventory_population(population,
                                                            bench_base());
  core::InventoryConfig inv;
  inv.q_initial = q_initial;
  inv.max_rounds = 32;

  core::InventoryConfig seq = inv;
  seq.batched = false;
  net.base.dsp_threads = 1;
  core::InventoryEngine reference(net, seq);
  reference.run_until_drained();

  bool ok = true;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t batch : {std::size_t{4}, std::size_t{32}}) {
      core::InventoryConfig fast = inv;
      fast.slots_per_batch = batch;
      net.base.dsp_threads = threads;
      core::InventoryEngine engine(net, fast);
      engine.run_until_drained();
      const bool match =
          engine.inventoried_set() == reference.inventoried_set() &&
          rounds_equal(engine.rounds(), reference.rounds());
      if (!match) {
        std::fprintf(stderr,
                     "PARITY FAILURE: pop %zu, %zu thread(s), batch %zu "
                     "diverges from the sequential reference\n",
                     population, threads, batch);
        ok = false;
      }
      std::printf("parity: pop %4zu  threads %zu  batch %2zu: %s\n",
                  population, threads, batch, match ? "identical" : "FAIL");
    }
  }
  return ok;
}

bool write_bench_json(const std::string& path) {
  std::printf("--- Gen2 inventory engine harness (writing %s) ---\n",
              path.c_str());
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  const std::size_t parity_threads_arr[] = {1, 2, 4};
  const bool parity = parity_gate(256, 4, parity_threads_arr);

  // Population rows. 1k drains from a close-to-matched Q; 16k starts at the
  // Gen2 ceiling's neighborhood and drains within the round cap; 128k is
  // collision-dominated at q_max — one honest round, drained stays false,
  // run on the short-window profile (32-chirp slots, 4-channel plan: at
  // that load nobody needs 8-channel resolution, they need short listens).
  std::vector<Row> rows;
  {
    core::InventoryConfig inv;
    inv.q_initial = 10;
    inv.max_rounds = 64;
    rows.push_back(measure_population(1024, inv, 1, hardware_threads));
  }
  {
    core::InventoryConfig inv;
    inv.q_initial = 14;
    inv.max_rounds = 8;
    rows.push_back(measure_population(16384, inv, 1, hardware_threads));
  }
  {
    core::InventoryConfig inv;
    inv.q_initial = 14;
    inv.max_rounds = 1;
    inv.slot_chirps = 32;
    inv.n_channels = 4;
    rows.push_back(measure_population(131072, inv, 1, hardware_threads));
  }

  double min_speedup = 1e300;
  for (const Row& r : rows) min_speedup = std::min(min_speedup, r.speedup);
  std::printf("parity: %s, min speedup over naive per-slot frames: %.1fx\n",
              parity ? "identical at every row" : "FAIL", min_speedup);

  std::ofstream out(path);
  out << "{\n";
  out << "  \"host\": " << bench::host_fingerprint_json() << ",\n";
  out << "  \"engine\": {\"slots_per_batch\": "
      << core::InventoryConfig{}.slots_per_batch
      << ", \"naive_frame_chirps\": " << kNaiveFrameChirps << "},\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"population\": " << r.population << ", \"q\": " << r.q
        << ", \"session\": " << r.session
        << ", \"slot_chirps\": " << r.slot_chirps
        << ", \"n_channels\": " << r.n_channels
        << ", \"threads\": " << r.threads
        << ", \"rounds\": " << r.rounds
        << ", \"drained\": " << (r.drained ? "true" : "false")
        << ", \"slots\": " << r.slots
        << ", \"occupied_slots\": " << r.occupied_slots
        << ", \"reads\": " << r.reads << ", \"batched_s\": " << r.batched_s
        << ", \"naive_s_est\": " << r.naive_s_est
        << ", \"tags_per_s\": " << r.tags_per_s
        << ", \"speedup\": " << r.speedup
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"min_speedup\": " << min_speedup << ",\n";
  out << "  \"parity\": " << (parity ? "true" : "false") << "\n";
  out << "}\n";
  return parity && min_speedup >= 5.0;
}

/// CI gate: parity only, small populations, no timing rows and no file.
bool run_smoke() {
  bool ok = true;
  const std::size_t threads_arr[] = {1, 2};
  ok = parity_gate(64, 3, threads_arr) && ok;
  ok = parity_gate(192, 5, threads_arr) && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool force = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--force") == 0) {
      force = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) return run_smoke() ? 0 : 1;
  if (!bench::guard_bench_host("bench_inventory", force)) return 2;
  const bool ok = write_bench_json("BENCH_inventory.json");
  if (!ok)
    std::fprintf(stderr,
                 "FAILURE: parity broke or speedup fell below the 5x gate\n");
  return ok ? 0 : 1;
}
