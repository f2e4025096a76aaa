#include "core/sweep_runner.hpp"

#include <iomanip>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "dsp/window.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rf/noise.hpp"

namespace bis::core {
namespace {

/// Exact key over every input of SystemConfig::make_alphabet, so two points
/// share one alphabet iff design() would produce identical alphabets.
/// Doubles are keyed in hexfloat (bit-exact, no rounding aliasing).
std::string alphabet_key(const SystemConfig& c) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto& dl = c.tag.node.frontend.delay_line;
  os << c.radar.bandwidth_hz << '|' << c.radar.start_frequency_hz << '|'
     << c.radar.chirp_period_s << '|' << c.radar.max_duty << '|'
     << c.radar.min_chirp_duration_s << '|' << c.bits_per_symbol << '|'
     << c.gray_coding << '|' << dl.length_diff_m << '|'
     << dl.velocity_factor << '|' << dl.dispersion_per_ghz << '|'
     << dl.reference_freq_hz << '|' << dl.loss_db_per_m_at_ref << '|'
     << c.tag.node.frontend.adc.sample_rate_hz;
  return os.str();
}

}  // namespace

const char* sweep_mode_name(SweepMode mode) {
  switch (mode) {
    case SweepMode::kDownlinkBer: return "downlink_ber";
    case SweepMode::kUplink: return "uplink";
    case SweepMode::kLocalization: return "localization";
    case SweepMode::kIntegrated: return "integrated";
  }
  return "unknown";
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

SweepResult SweepRunner::run(std::span<const SweepPoint> grid) const {
  SweepResult out;
  out.mode = options_.mode;
  out.master_seed = options_.master_seed;
  out.points.resize(grid.size());
  out.report.config = std::string("sweep:") + sweep_mode_name(options_.mode) +
                      " points=" + std::to_string(grid.size());
  if (grid.empty()) return out;

  // Shared immutable per-configuration state, built sequentially before the
  // fan-out: alphabet design (chirp slot layout + durations) depends only on
  // the radar/tag parameters keyed above, never on seed or range, so every
  // repeat and every axis value of one configuration reuses a single copy.
  std::unordered_map<std::string, std::shared_ptr<const phy::SlopeAlphabet>>
      alphabets;
  std::vector<const phy::SlopeAlphabet*> point_alphabet(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string key = alphabet_key(grid[i].config);
    auto it = alphabets.find(key);
    if (it == alphabets.end()) {
      it = alphabets
               .emplace(key, std::make_shared<const phy::SlopeAlphabet>(
                                 grid[i].config.make_alphabet()))
               .first;
    }
    point_alphabet[i] = it->second.get();
  }

  // Substream derivation: stream i is the master generator advanced by
  // i·2^128 draws — one jump() per point, O(grid) total. Disjoint by
  // construction, and fixed per index, so scheduling cannot reorder draws.
  std::vector<Rng> streams;
  streams.reserve(grid.size());
  Rng walker(options_.master_seed);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    streams.push_back(walker);
    walker.jump();
  }

  const auto fft0 = dsp::fft_plan_cache_stats();
  const auto regrid0 = dsp::regrid_plan_cache_stats();
  const std::uint64_t awgn0 = rf::awgn_samples_added();

  // Live-progress metrics so a TelemetrySink can watch the sweep: total/done
  // point counts plus a per-point latency distribution. Cost with telemetry
  // off: one relaxed load + branch per point.
  obs::Registry::instance()
      .gauge("bis.sweep.points_total")
      .set(static_cast<double>(grid.size()));
  obs::Counter& points_done =
      obs::Registry::instance().counter("bis.sweep.points_done");
  obs::LatencyHistogram& point_us =
      obs::Registry::instance().latency("bis.sweep.point_us");

  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = resolve_dsp_pool(options_.threads, owned);
  out.threads_used = pool != nullptr ? pool->size() : 1;

  // Per-point inputs: the point seed is the first draw of its substream,
  // and the rest of the substream feeds the measurement's payloads.
  std::vector<SystemConfig> configs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    configs[i] = grid[i].config;
    configs[i].seed = streams[i].next_u64();  // sim-internal streams derive from this
    configs[i].dsp_threads = 1;               // the point IS the parallel task
    ExperimentMetrics& m = out.points[i];
    m.axis = grid[i].axis;
    m.point_seed = configs[i].seed;
    m.config = config_key(configs[i]);
  }

  // Build every point's simulator. The downlink modes decode on a
  // calibrated tag: calibrate the points that share an alphabet in one
  // batch (one GLRT bank per slot for the whole batch, slots across the
  // pool). Each point below then measures on its simulator.
  const SweepWorkload& w = options_.workload;
  std::vector<std::unique_ptr<LinkSimulator>> sims(grid.size());
  bis::parallel_for(pool, 0, grid.size(), [&](std::size_t i) {
    sims[i] = std::make_unique<LinkSimulator>(configs[i], *point_alphabet[i]);
  });
  if (options_.mode == SweepMode::kDownlinkBer ||
      options_.mode == SweepMode::kIntegrated) {
    for (const auto& [key, alphabet] : alphabets) {
      std::vector<LinkSimulator*> batch;
      for (std::size_t i = 0; i < sims.size(); ++i)
        if (point_alphabet[i] == alphabet.get()) batch.push_back(sims[i].get());
      LinkSimulator::calibrate_tags(batch, pool);
    }
  }

  // One point per task (coarse-grained — see file comment). Each task reads
  // only shared immutable state and writes only its own slots, so the merge
  // below sees identical values for any thread count.
  std::vector<obs::RunReport> reports(grid.size());
  bis::parallel_for(pool, 0, grid.size(), [&](std::size_t i) {
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    ExperimentMetrics& m = out.points[i];
    LinkSimulator& sim = *sims[i];
    Rng& rng = streams[i];
    switch (options_.mode) {
      case SweepMode::kDownlinkBer:
        m.downlink = measure_downlink_ber(sim, w.min_bits, w.payload_bits, rng);
        break;
      case SweepMode::kUplink:
        m.uplink = measure_uplink(sim, w.frames, w.bits_per_frame,
                                  w.downlink_active, rng);
        break;
      case SweepMode::kLocalization:
        m.localization =
            measure_localization(sim, w.frames, w.downlink_active, rng);
        break;
      case SweepMode::kIntegrated: {
        const auto isac = measure_integrated(sim, w.frames, w.payload_bits,
                                             w.uplink_bits, rng);
        m.downlink = isac.downlink;
        m.uplink = isac.uplink;
        break;
      }
    }
    reports[i] = sim.report();
    sims[i].reset();
    if (timed) point_us.record((obs::now_ns() - t0) / 1000);
    points_done.add(1);
  });

  // Deterministic merge in grid order. The cache/AWGN figures overwrite the
  // merged ones with sweep-wide totals (each point's deltas count the
  // concurrent points' activity too); their hit/miss split can vary with
  // thread interleaving (two lanes racing the same cold key both miss), so
  // they live in the report, not in sweep_to_json's determinism surface.
  for (const auto& r : reports) out.report.merge(r);
  const auto fft1 = dsp::fft_plan_cache_stats();
  const auto regrid1 = dsp::regrid_plan_cache_stats();
  out.report.fft_plan_hits = fft1.hits - fft0.hits;
  out.report.fft_plan_misses = fft1.misses - fft0.misses;
  out.report.fft_plans = fft1.plans;
  out.report.regrid_plan_hits = regrid1.hits - regrid0.hits;
  out.report.regrid_plan_misses = regrid1.misses - regrid0.misses;
  out.report.regrid_plans = regrid1.plans;
  out.report.window_cache_entries = dsp::window_cache_size();
  out.report.awgn_samples = rf::awgn_samples_added() - awgn0;
  return out;
}

std::vector<SweepPoint> range_sweep_grid(const SystemConfig& base,
                                         std::span<const double> ranges_m,
                                         std::size_t repeats) {
  BIS_CHECK(repeats >= 1);
  std::vector<SweepPoint> grid;
  grid.reserve(ranges_m.size() * repeats);
  for (double r : ranges_m) {
    for (std::size_t k = 0; k < repeats; ++k) {
      SweepPoint p;
      p.config = base;
      p.config.tag_range_m = r;
      p.axis = r;
      grid.push_back(std::move(p));
    }
  }
  return grid;
}

std::string sweep_to_json(const SweepResult& result) {
  std::ostringstream os;
  os << std::setprecision(17);
  const auto ber_json = [&os](const char* name, const BerMeasurement& m) {
    os << "\"" << name << "\": {\"ber\": " << m.ber
       << ", \"ber_upper95\": " << m.ber_upper95 << ", \"bits\": " << m.bits
       << ", \"errors\": " << m.errors << ", \"packets\": " << m.packets
       << ", \"packets_locked\": " << m.packets_locked
       << ", \"envelope_snr_db\": " << m.envelope_snr_db << "}";
  };
  const auto uplink_json = [&os](const UplinkMeasurement& m) {
    os << "\"uplink\": {\"ber\": " << m.ber << ", \"bits\": " << m.bits
       << ", \"errors\": " << m.errors
       << ", \"mean_snr_processed_db\": " << m.mean_snr_processed_db
       << ", \"mean_snr_per_chirp_db\": " << m.mean_snr_per_chirp_db
       << ", \"detection_rate\": " << m.detection_rate
       << ", \"mean_range_error_m\": " << m.mean_range_error_m << "}";
  };
  const auto loc_json = [&os](const LocalizationMeasurement& m) {
    os << "\"localization\": {\"mean_error_m\": " << m.mean_error_m
       << ", \"median_error_m\": " << m.median_error_m
       << ", \"p90_error_m\": " << m.p90_error_m
       << ", \"detection_rate\": " << m.detection_rate
       << ", \"frames\": " << m.frames << "}";
  };

  os << "{\n";
  os << "  \"mode\": \"" << sweep_mode_name(result.mode) << "\",\n";
  os << "  \"master_seed\": " << result.master_seed << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const auto& p = result.points[i];
    os << "    {\"axis\": " << p.axis << ", \"seed\": " << p.point_seed
       << ", \"config\": \"" << json_escape(p.config) << "\", ";
    switch (result.mode) {
      case SweepMode::kDownlinkBer:
        ber_json("downlink", p.downlink);
        break;
      case SweepMode::kUplink:
        uplink_json(p.uplink);
        break;
      case SweepMode::kLocalization:
        loc_json(p.localization);
        break;
      case SweepMode::kIntegrated:
        ber_json("downlink", p.downlink);
        os << ", ";
        uplink_json(p.uplink);
        break;
    }
    os << "}" << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}";
  return os.str();
}

}  // namespace bis::core
