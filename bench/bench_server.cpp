/// Streaming link-server harness: measures multi-link throughput of the
/// lane engine and verifies its two hard contracts, writing
/// BENCH_server.json:
///   1. determinism — per-link decoded bits and report outcome counters
///      bit-identical to the sequential LinkSimulator at 1/2/4 workers;
///   2. zero-allocation steady state — after a warmup round, whole rounds of
///      frames execute without a single call to operator new (asserted via a
///      global allocation-counting hook in this TU);
///   3. throughput rows — frames/sec for 64/256/1024 links at several worker
///      counts, plus a telemetry section with each stage's frame count and
///      latency quantiles from the `bis.stage.<stage>_ns` histograms. Rows
///      that oversubscribe the host (workers > hardware threads) are flagged
///      "valid": false and excluded from the headline speedup, following the
///      BENCH_sweep.json convention.
/// Exits nonzero on any determinism or allocation failure so CI asserts
/// correctness without depending on flaky timing thresholds.
///
/// CI smoke mode: `bench_server --smoke` runs only the correctness gates
/// (64-link determinism diff vs sequential + the zero-alloc assert).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "core/link_server.hpp"
#include "dsp/resample.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook. Every operator new in the process funnels through
// here; the bench arms the counter around steady-state rounds to prove the
// frame loop performs no heap allocation once capacities are warm.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) { return counted_alloc(n); }
void* operator new[](std::size_t n, std::align_val_t) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace bis;
using Clock = std::chrono::steady_clock;

/// Smoke mode streams live telemetry to these files (validated after the
/// gates) — the acceptance check that export works under real server load.
constexpr const char* kSmokeJsonl = "bench_server_metrics.jsonl";
constexpr const char* kSmokeProm = "bench_server_metrics.prom";

/// Light OOK link: 2 bits/frame → 32 chirps/frame. Small enough to run 1024
/// links per row, heavy enough that every stage does real DSP.
core::LinkServerConfig server_config(std::size_t links, std::size_t workers) {
  core::LinkServerConfig cfg;
  cfg.base.seed = 20240808;
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = links;
  cfg.workers = workers;
  cfg.bits_per_frame = 2;
  return cfg;
}

// ---------------------------------------------------------------------------
// Gate 1: determinism vs the sequential reference.

bool check_determinism(std::size_t links, std::size_t frames) {
  const auto reference =
      core::run_links_sequential(server_config(links, 1), frames);
  bool ok = true;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    core::LinkServer server(server_config(links, workers));
    server.run(frames);
    for (std::size_t i = 0; i < links; ++i) {
      if (server.link(i).report().outcome_key() !=
              reference[i].report.outcome_key() ||
          server.decoded_bits(i) != reference[i].decoded_bits) {
        std::fprintf(stderr,
                     "DETERMINISM FAILURE: link %zu diverges from the "
                     "sequential reference at %zu workers\n",
                     i, workers);
        ok = false;
      }
    }
  }
  std::printf("determinism: %zu links x %zu frames at 1/2/4 workers: %s\n",
              links, frames, ok ? "bit-identical" : "FAIL");
  return ok;
}

// ---------------------------------------------------------------------------
// Gate 2: zero-allocation steady state.

bool check_zero_alloc(std::uint64_t& steady_allocs) {
  auto cfg = server_config(/*links=*/4, /*workers=*/1);
  cfg.collect_bits = false;  // the bit log is the one intentionally growing
                             // artifact; everything else must be in place
  core::LinkServer server(cfg);
  // Warm with as many rounds as are measured: when telemetry is enabled,
  // trace spans append to per-thread vectors whose capacity the warmup sizes
  // (round event counts are deterministic); clear_trace() keeps capacity, so
  // the measured rounds re-fill without a single growth allocation.
  server.run(3);
  obs::clear_trace();
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  server.run(3);
  g_count_allocs.store(false, std::memory_order_relaxed);
  steady_allocs = g_alloc_count.load(std::memory_order_relaxed);
  std::printf("zero-alloc: %llu allocation(s) across 3 steady-state rounds "
              "(4 links): %s\n",
              static_cast<unsigned long long>(steady_allocs),
              steady_allocs == 0 ? "ok" : "FAIL");
  return steady_allocs == 0;
}

/// Hidden diagnostic (`--alloc-debug`): per-stage allocation counts for one
/// warm frame, to pinpoint regressions when the zero-alloc gate fails.
void alloc_debug() {
  auto cfg = server_config(1, 1);
  core::LinkSimulator sim(core::link_config(cfg, 0),
                          cfg.base.make_alphabet());
  core::UplinkFrameJob job;
  const phy::Bits bits = {1, 0};
  sim.warm_caches();
  for (int warm = 0; warm < 3; ++warm) {
    job.reset_result();
    sim.prepare_uplink_frame(bits, cfg.downlink_active, job);
    sim.stage_synthesize(job);
    sim.stage_range_fft(job, nullptr);
    sim.stage_if_correct(job, nullptr);
    sim.stage_detect(job, nullptr);
    sim.stage_decode(job);
    sim.fold_uplink_frame(job);
  }
  const auto count = [&](const char* name, auto&& fn) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    fn();
    g_count_allocs.store(false, std::memory_order_relaxed);
    std::printf("  %-12s %llu alloc(s)\n", name,
                static_cast<unsigned long long>(
                    g_alloc_count.load(std::memory_order_relaxed)));
  };
  job.reset_result();
  count("prepare", [&] { sim.prepare_uplink_frame(bits, cfg.downlink_active, job); });
  count("synthesize", [&] { sim.stage_synthesize(job); });
  count("range_fft", [&] { sim.stage_range_fft(job, nullptr); });
  const auto rg0 = dsp::regrid_plan_cache_stats();
  count("if_correct", [&] { sim.stage_if_correct(job, nullptr); });
  const auto rg1 = dsp::regrid_plan_cache_stats();
  std::printf("  (regrid cache: +%llu hits, +%llu misses, %llu plans)\n",
              static_cast<unsigned long long>(rg1.hits - rg0.hits),
              static_cast<unsigned long long>(rg1.misses - rg0.misses),
              static_cast<unsigned long long>(rg1.plans));
  const auto& grid = job.frame.aligned.range_grid;
  std::printf("  (range grid: %zu bins, last %.9f m)\n", grid.size(),
              grid.empty() ? 0.0 : grid.back());
  count("detect", [&] { sim.stage_detect(job, nullptr); });
  count("decode", [&] { sim.stage_decode(job); });
  count("fold", [&] { sim.fold_uplink_frame(job); });
}

// ---------------------------------------------------------------------------
// Throughput rows.

struct Row {
  std::size_t links = 0;
  std::size_t workers = 0;
  std::size_t frames_per_link = 0;
  double seconds = 0.0;
  double frames_per_s = 0.0;
  bool valid = true;
};

Row measure_row(std::size_t links, std::size_t workers,
                std::size_t frames_per_link, const phy::SlopeAlphabet& alphabet,
                unsigned hardware_threads) {
  Row row;
  row.links = links;
  row.workers = workers;
  row.frames_per_link = frames_per_link;
  row.valid = hardware_threads >= workers;
  auto cfg = server_config(links, workers);
  cfg.collect_bits = false;
  core::LinkServer server(cfg, alphabet);
  server.run(1);  // warmup round: capacity growth and plan-cache misses
  const auto t0 = Clock::now();
  server.run(frames_per_link);
  row.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  row.frames_per_s =
      static_cast<double>(links * frames_per_link) / row.seconds;
  std::printf("links %5zu  workers %zu: %8.0f frames/s  (%.3f s)%s\n", links,
              workers, row.frames_per_s, row.seconds,
              row.valid ? "" : "  [invalid: oversubscribed]");
  return row;
}

/// {"<stage>": {"count": …, "p50_us": …, "p90_us": …, "p99_us": …,
/// "p999_us": …}, …} for every stage with samples in its histogram.
std::string stage_stats_json() {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const obs::LatencyHistogram& h = obs::stage_latency(stage);
    if (h.count() == 0) continue;
    w.key(obs::stage_name(stage)).begin_object();
    w.key("count").value(h.count());
    w.key("p50_us").value(h.p50() / 1e3);
    w.key("p90_us").value(h.p90() / 1e3);
    w.key("p99_us").value(h.p99() / 1e3);
    w.key("p999_us").value(h.p999() / 1e3);
    w.end_object();
  }
  w.end_object();
  return out;
}

/// Telemetry cost + latency-quantile section: one fixed row measured with
/// the obs switch off, then on. The on-run's stage distributions (the
/// registry is reset first, so they hold that run only) go into the report;
/// the off/on ratio documents that the one-relaxed-load-when-off contract
/// holds at server scale.
std::string measure_telemetry_section(const phy::SlopeAlphabet& alphabet) {
  constexpr std::size_t kLinks = 64, kWorkers = 1, kFrames = 4;
  const bool was_enabled = obs::enabled();
  auto run_once = [&](core::LinkServer& server) {
    server.run(1);  // warmup
    const auto t0 = Clock::now();
    server.run(kFrames);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto cfg = server_config(kLinks, kWorkers);
  cfg.collect_bits = false;

  obs::set_enabled(false);
  double seconds_off = 0.0;
  {
    core::LinkServer server(cfg, alphabet);
    seconds_off = run_once(server);
  }
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  double seconds_on = 0.0;
  {
    core::LinkServer server(cfg, alphabet);
    seconds_on = run_once(server);
  }
  const std::string stats_json = stage_stats_json();
  obs::set_enabled(was_enabled);

  const double overhead = seconds_on / seconds_off - 1.0;
  std::printf("telemetry overhead (%zu links, %zu worker): off %.3f s, "
              "on %.3f s (%+.1f%%)\n",
              kLinks, kWorkers, seconds_off, seconds_on, overhead * 100.0);
  std::string out = "{\"links\": " + std::to_string(kLinks) +
                    ", \"workers\": " + std::to_string(kWorkers) +
                    ", \"frames_per_link\": " + std::to_string(kFrames) +
                    ", \"seconds_off\": " + std::to_string(seconds_off) +
                    ", \"seconds_on\": " + std::to_string(seconds_on) +
                    ", \"overhead_frac\": " + std::to_string(overhead) +
                    ", \"stats\": " + stats_json + "}";
  return out;
}

bool write_bench_json(const std::string& path) {
  std::printf("--- link-server harness (writing %s) ---\n", path.c_str());
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  const bool deterministic = check_determinism(/*links=*/8, /*frames=*/3);
  std::uint64_t steady_allocs = 0;
  const bool alloc_free = check_zero_alloc(steady_allocs);

  // One shared alphabet: it depends only on radar/packet/tag parameters, so
  // every row (and every link) reuses the same chirp tables.
  const auto alphabet = server_config(1, 1).base.make_alphabet();
  const std::vector<std::size_t> link_counts = {64, 256, 1024};
  std::vector<std::size_t> worker_counts = {1, 2, 4};
  if (hardware_threads > 4) worker_counts.push_back(hardware_threads);
  std::vector<Row> rows;
  for (const std::size_t links : link_counts) {
    const std::size_t frames = links >= 1024 ? 2 : 4;
    for (const std::size_t workers : worker_counts)
      rows.push_back(measure_row(links, workers, frames, alphabet,
                                 hardware_threads));
  }

  // Headline: best valid-row speedup over the matching 1-worker row.
  double best_valid_speedup = 1.0;
  for (const Row& row : rows) {
    if (!row.valid || row.workers == 1) continue;
    for (const Row& base : rows) {
      if (base.links == row.links && base.workers == 1)
        best_valid_speedup =
            std::max(best_valid_speedup, row.frames_per_s / base.frames_per_s);
    }
  }
  std::printf("headline speedup (valid rows): %.2fx\n", best_valid_speedup);

  const std::string telemetry_section = measure_telemetry_section(alphabet);

  std::ofstream out(path);
  out << "{\n";
  out << "  \"host\": " << bench::host_fingerprint_json() << ",\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"determinism\": {\"links\": 8, \"frames\": 3, "
         "\"worker_counts\": [1, 2, 4], \"bit_identical\": "
      << (deterministic ? "true" : "false") << "},\n";
  out << "  \"zero_alloc\": {\"steady_state_allocations\": " << steady_allocs
      << ", \"ok\": " << (alloc_free ? "true" : "false") << "},\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"links\": " << r.links << ", \"workers\": " << r.workers
        << ", \"frames_per_link\": " << r.frames_per_link
        << ", \"seconds\": " << r.seconds
        << ", \"frames_per_s\": " << r.frames_per_s
        << ", \"valid\": " << (r.valid ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"telemetry\": " << telemetry_section << ",\n";
  out << "  \"best_valid_speedup\": " << best_valid_speedup << "\n";
  out << "}\n";
  return deterministic && alloc_free;
}

// ---------------------------------------------------------------------------
// Smoke-mode telemetry export validation.

/// Every JSONL line must parse as one JSON object, and at least one must
/// carry a non-empty stage latency histogram; the Prometheus snapshot must
/// expose the per-stage quantile summaries.
bool validate_telemetry_export() {
  std::ifstream in(kSmokeJsonl);
  if (!in) {
    std::fprintf(stderr, "telemetry export: %s missing\n", kSmokeJsonl);
    return false;
  }
  std::string line;
  std::size_t lines = 0;
  bool saw_stage_quantiles = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = json_parse(line);
    if (!doc.ok()) {
      std::fprintf(stderr, "telemetry export: %s line %zu: %s\n", kSmokeJsonl,
                   lines, doc.error.c_str());
      return false;
    }
    const JsonValue* metrics = doc.value.find("metrics");
    if (metrics == nullptr) {
      std::fprintf(stderr, "telemetry export: line %zu lacks \"metrics\"\n",
                   lines);
      return false;
    }
    const JsonValue* synth = metrics->find("bis.stage.if_synthesis_ns");
    if (synth != nullptr && synth->number_or("count", 0.0) > 0.0 &&
        synth->number_or("p50", -1.0) >= 0.0)
      saw_stage_quantiles = true;
  }
  if (lines == 0) {
    std::fprintf(stderr, "telemetry export: %s is empty\n", kSmokeJsonl);
    return false;
  }
  if (!saw_stage_quantiles) {
    std::fprintf(stderr, "telemetry export: no JSONL sample carried per-stage "
                         "latency quantiles\n");
    return false;
  }
  std::ifstream prom_in(kSmokeProm);
  if (!prom_in) {
    std::fprintf(stderr, "telemetry export: %s missing\n", kSmokeProm);
    return false;
  }
  std::string prom((std::istreambuf_iterator<char>(prom_in)),
                   std::istreambuf_iterator<char>());
  for (const char* needle : {"# TYPE bis_stage_if_synthesis_ns summary",
                             "bis_stage_detect_ns{quantile=\"0.5\"}",
                             "bis_stage_uplink_frame_ns_count"}) {
    if (prom.find(needle) == std::string::npos) {
      std::fprintf(stderr, "telemetry export: %s lacks '%s'\n", kSmokeProm,
                   needle);
      return false;
    }
  }
  std::printf("telemetry export: %zu JSONL sample(s) parse, per-stage "
              "quantiles present, Prometheus snapshot ok\n",
              lines);
  return true;
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
    } else if (std::strcmp(argv[i], "--alloc-debug") == 0) {
      alloc_debug();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  if (smoke) {
    // CI gate: correctness with live telemetry export on — 64-link
    // determinism diff vs the sequential reference (streaming JSONL +
    // Prometheus snapshots the whole time), the steady-state allocation
    // assert with telemetry still enabled, then export validation.
    obs::TelemetrySinkOptions exporter;
    exporter.jsonl_path = kSmokeJsonl;
    exporter.prom_path = kSmokeProm;
    exporter.interval_ms = 100;
    obs::TelemetrySink* sink = obs::TelemetrySink::ensure_global(exporter);
    const bool deterministic = check_determinism(/*links=*/64, /*frames=*/2);
    // The final sample carries the determinism runs' stage histograms; the
    // sink must also be quiescent before the zero-alloc gate (its sampler
    // thread allocates by design).
    sink->stop();
    std::uint64_t steady_allocs = 0;
    const bool alloc_free = check_zero_alloc(steady_allocs);
    const bool export_ok = validate_telemetry_export();
    return deterministic && alloc_free && export_ok ? 0 : 1;
  }

  if (!bench::guard_bench_host("bench_server", force)) return 2;
  const bool ok = write_bench_json("BENCH_server.json");
  if (!ok) std::fprintf(stderr, "CONTRACT FAILURE: see harness output above\n");
  return ok ? 0 : 1;
}
