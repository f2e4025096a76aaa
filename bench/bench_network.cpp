/// Batched multi-tag detection harness: measures how the shared-spectrum
/// detect_many bank scales against the sequential per-tag reference (one
/// TagDetector::detect call per tag, each recomputing every range bin's
/// slow-time spectrum) and writes BENCH_network.json:
///   1. parity — per-row detection decisions AND every score field bitwise
///      identical between detect_many and the sequential reference, at every
///      tag count and thread count;
///   2. scaling rows — seq_ms / batched_ms / speedup for 16/256/2048 scored
///      tags. The batched path computes the range–slow-time spectra once per
///      frame, so its advantage over the N× sequential pass grows with N.
/// Rows that oversubscribe the host (threads > hardware threads) are flagged
/// "valid": false, following the BENCH_server.json convention.
///
/// The synthesized scene carries office clutter plus a fixed number of
/// physically-present tags (kPhysicalTags); the remaining scored targets
/// exercise the full per-tag scoring cost against clutter/noise, which is
/// what dominates detection time — detection cost is per *scored* tag, not
/// per scene return.
///
/// CI smoke mode: `bench_network --smoke` runs only the parity gates at
/// small tag counts, after printing a hash of the synthesized frame
/// (tools/diff_outputs.sh compares it across commits).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/network.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"

namespace {

using namespace bis;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kFrameChirps = 256;
constexpr std::size_t kPhysicalTags = 8;

/// One synthesized, aligned sensing frame shared by every row.
struct Frame {
  radar::AlignedProfiles aligned;
  std::vector<double> freqs;  ///< Assigned frequency per scored tag (max N).
};

Frame make_frame(std::size_t max_tags) {
  core::NetworkConfig net;
  net.base.seed = 20240808;
  net.frame_chirps = kFrameChirps;
  Frame frame;
  frame.freqs =
      core::assign_mod_frequencies(max_tags, net.base.radar.chirp_period_s);

  // Scene: office clutter plus kPhysicalTags beaconing tags on the first
  // assigned frequencies, ranges spread across the office — one sensing
  // frame of the network that holds them.
  for (std::size_t i = 0; i < std::min(kPhysicalTags, max_tags); ++i) {
    net.tags.push_back({static_cast<std::uint8_t>(i + 1),
                        1.5 + 0.6 * static_cast<double>(i), frame.freqs[i]});
  }
  core::BiScatterNetwork network(net);
  network.sense_all();
  frame.aligned = network.sensed_frame();
  return frame;
}

/// FNV-1a over the bytes of every aligned row, then the range grid: a
/// fingerprint of the synthesized frame, printed by --smoke so two builds
/// can confirm they synthesize the same frame.
std::uint64_t frame_hash(const radar::AlignedProfiles& aligned) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(v[0]); ++i)
      h = (h ^ p[i]) * 0x100000001b3ull;
  };
  for (const auto& row : aligned.rows) mix(row);
  mix(aligned.range_grid);
  return h;
}

radar::TagDetectorConfig detector_config(double expected_mod_freq_hz) {
  radar::TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = expected_mod_freq_hz;
  return cfg;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool detections_bit_identical(const radar::TagDetection& a,
                              const radar::TagDetection& b) {
  return a.found == b.found && a.grid_bin == b.grid_bin &&
         bits_equal(a.range_m, b.range_m) &&
         bits_equal(a.mod_power, b.mod_power) &&
         bits_equal(a.snr_db, b.snr_db) &&
         bits_equal(a.signature_score, b.signature_score);
}

/// Sequential per-tag reference: one single-target detector per tag, each
/// call recomputing the whole frame's spectra. This is the normative path
/// the batched bank is gated against.
std::vector<radar::TagDetection> detect_sequential(const Frame& frame,
                                                   std::size_t tags,
                                                   ThreadPool* pool) {
  std::vector<radar::TagDetection> out(tags);
  for (std::size_t i = 0; i < tags; ++i) {
    const radar::TagDetector det(detector_config(frame.freqs[i]));
    out[i] = det.detect(frame.aligned, pool);
  }
  return out;
}

std::vector<radar::TagTarget> make_targets(const Frame& frame,
                                           std::size_t tags) {
  std::vector<radar::TagTarget> targets(tags);
  for (std::size_t i = 0; i < tags; ++i)
    targets[i].expected_mod_freq_hz = frame.freqs[i];
  return targets;
}

struct Row {
  std::size_t tags = 0;
  std::size_t threads = 0;
  std::size_t bins = 0;
  std::size_t chirps = 0;
  double seq_ms = 0.0;
  double batched_ms = 0.0;
  double speedup = 0.0;
  bool parity = false;         ///< Found/not-found decisions match.
  bool bit_identical = false;  ///< Every detection field matches bitwise.
  bool valid = true;
};

double min_ms(std::size_t repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(Clock::now() - t0)
                        .count());
  }
  return best;
}

Row measure_row(const Frame& frame, std::size_t tags, std::size_t threads,
                unsigned hardware_threads, std::size_t repeats) {
  Row row;
  row.tags = tags;
  row.threads = threads;
  row.bins = frame.aligned.range_grid.size();
  row.chirps = kFrameChirps;
  row.valid = hardware_threads >= threads;

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = nullptr;
  if (threads > 1) {
    owned = std::make_unique<ThreadPool>(threads);
    pool = owned.get();
  }

  const auto targets = make_targets(frame, tags);
  const radar::TagDetector batched(detector_config(frame.freqs.front()));
  std::vector<radar::TagDetection> batched_out(tags);
  batched.detect_many(frame.aligned, targets, batched_out, pool);  // warmup

  const auto reference = detect_sequential(frame, tags, pool);
  row.parity = true;
  row.bit_identical = true;
  for (std::size_t i = 0; i < tags; ++i) {
    if (batched_out[i].found != reference[i].found) row.parity = false;
    if (!detections_bit_identical(batched_out[i], reference[i]))
      row.bit_identical = false;
  }

  row.batched_ms = min_ms(repeats, [&] {
    batched.detect_many(frame.aligned, targets, batched_out, pool);
  });
  row.seq_ms = min_ms(std::max<std::size_t>(repeats / 2, 1), [&] {
    (void)detect_sequential(frame, tags, pool);
  });
  row.speedup = row.seq_ms / row.batched_ms;

  std::printf("tags %5zu  threads %zu: seq %9.2f ms  batched %8.2f ms  "
              "%6.1fx  parity %s%s\n",
              tags, threads, row.seq_ms, row.batched_ms, row.speedup,
              row.parity && row.bit_identical ? "bitwise" : "FAIL",
              row.valid ? "" : "  [invalid: oversubscribed]");
  return row;
}

bool write_bench_json(const std::string& path) {
  std::printf("--- batched multi-tag detection harness (writing %s) ---\n",
              path.c_str());
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const std::vector<std::size_t> tag_counts = {16, 256, 2048};
  std::vector<std::size_t> thread_counts = {1, 2, 4};

  const Frame frame = make_frame(tag_counts.back());
  std::vector<Row> rows;
  for (const std::size_t tags : tag_counts) {
    const std::size_t repeats = tags >= 2048 ? 1 : (tags >= 256 ? 2 : 4);
    for (const std::size_t threads : thread_counts) {
      if (tags >= 2048 && threads > 1 && hardware_threads < threads) continue;
      rows.push_back(
          measure_row(frame, tags, threads, hardware_threads, repeats));
    }
  }

  bool parity = true, bit_identical = true;
  double speedup_256 = 0.0;
  for (const Row& r : rows) {
    parity = parity && r.parity;
    bit_identical = bit_identical && r.bit_identical;
    if (r.tags == 256 && r.valid) speedup_256 = std::max(speedup_256, r.speedup);
  }
  std::printf("parity: %s, best valid speedup at 256 tags: %.1fx\n",
              parity && bit_identical ? "bitwise at every row" : "FAIL",
              speedup_256);

  std::ofstream out(path);
  out << "{\n";
  out << "  \"host\": " << bench::host_fingerprint_json() << ",\n";
  out << "  \"frame\": {\"chirps\": " << kFrameChirps
      << ", \"bins\": " << frame.aligned.range_grid.size()
      << ", \"physical_tags\": " << kPhysicalTags << "},\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"tags\": " << r.tags << ", \"threads\": " << r.threads
        << ", \"bins\": " << r.bins << ", \"chirps\": " << r.chirps
        << ", \"seq_ms\": " << r.seq_ms << ", \"batched_ms\": " << r.batched_ms
        << ", \"speedup\": " << r.speedup
        << ", \"parity\": " << (r.parity ? "true" : "false")
        << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"speedup_256\": " << speedup_256 << ",\n";
  out << "  \"parity\": " << (parity ? "true" : "false") << ",\n";
  out << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << "\n";
  out << "}\n";
  return parity && bit_identical;
}

/// CI gate: parity only, small tag counts, no timing rows and no file.
bool run_smoke() {
  const Frame frame = make_frame(64);
  std::printf("smoke: frame %zux%zu, hash %016llx\n", frame.aligned.n_chirps(),
              frame.aligned.n_bins(),
              static_cast<unsigned long long>(frame_hash(frame.aligned)));
  bool ok = true;
  for (const std::size_t tags : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    const auto targets = make_targets(frame, tags);
    const radar::TagDetector batched(detector_config(frame.freqs.front()));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      std::unique_ptr<ThreadPool> owned;
      ThreadPool* pool = nullptr;
      if (threads > 1) {
        owned = std::make_unique<ThreadPool>(threads);
        pool = owned.get();
      }
      const auto batched_out = batched.detect_many(frame.aligned, targets, pool);
      const auto reference = detect_sequential(frame, tags, /*pool=*/nullptr);
      for (std::size_t i = 0; i < tags; ++i) {
        if (!detections_bit_identical(batched_out[i], reference[i])) {
          std::fprintf(stderr,
                       "PARITY FAILURE: tag %zu of %zu at %zu threads "
                       "diverges from the sequential reference\n",
                       i, tags, threads);
          ok = false;
        }
      }
      std::printf("smoke: %3zu tags at %zu thread(s): %s\n", tags, threads,
                  ok ? "bitwise" : "FAIL");
    }
  }
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
  if (!bench::guard_bench_host("bench_network", force)) return 2;
  const bool ok = write_bench_json("BENCH_network.json");
  if (!ok) std::fprintf(stderr, "PARITY FAILURE: see rows above\n");
  return ok ? 0 : 1;
}
