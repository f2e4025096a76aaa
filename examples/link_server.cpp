/// Streaming multi-link server engine.
///
/// Advances several concurrent radar↔tag links on a small crew of lanes:
/// each lane claims a whole link and runs its frames through every stage
/// (synthesize → range FFT → IF-correct → detect → decode) before claiming
/// the next. Per-link reports stream out of on_link_done as each link
/// finishes its round, and the footer prints each stage's frame count and
/// mean time from the process-wide `bis.stage.<stage>_ns` histograms.
/// The engine's determinism contract is checked at the end: decoded bits
/// and outcome counters must be bit-identical to advancing the same links
/// one frame at a time on a single thread.

#include <cstdio>

#include "core/link_server.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/telemetry.hpp"

int main() {
  using namespace bis;
  obs::set_enabled(true);  // time the stages for the footer

  core::LinkServerConfig cfg;
  cfg.base.seed = 7;
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = 8;
  cfg.workers = 2;  // the calling thread is one of the two lanes
  cfg.bits_per_frame = 2;
  const std::size_t frames = 3;

  core::LinkServer server(cfg);
  server.on_link_done = [](std::size_t link, const core::LinkSimulator& sim) {
    const obs::RunReport r = sim.report();
    std::printf("  link %zu done: %llu frames, %llu/%llu bits correct, "
                "SNR %.1f dB\n",
                link, static_cast<unsigned long long>(r.uplink_frames),
                static_cast<unsigned long long>(r.uplink_bits -
                                                r.uplink_bit_errors),
                static_cast<unsigned long long>(r.uplink_bits),
                r.mean_detector_snr_db());
  };

  std::printf("running %zu links x %zu frames on %zu workers...\n",
              cfg.n_links, frames, cfg.workers);
  server.run(frames);

  std::printf("\nper-stage stats:\n");
  for (const obs::Stage stage :
       {obs::Stage::kIfSynthesis, obs::Stage::kRangeFft,
        obs::Stage::kIfCorrection, obs::Stage::kDetect,
        obs::Stage::kUplinkDecode, obs::Stage::kUplinkFrame}) {
    const obs::LatencyHistogram& h = obs::stage_latency(stage);
    std::printf("  %-13s %4llu frames  mean %8.1f us\n", obs::stage_name(stage),
                static_cast<unsigned long long>(h.count()), h.mean() / 1e3);
  }

  // Determinism contract: the server reproduces the sequential reference
  // bit-for-bit at any worker count.
  const auto reference = core::run_links_sequential(cfg, frames);
  bool identical = true;
  for (std::size_t i = 0; i < cfg.n_links; ++i) {
    identical = identical &&
                server.link(i).report().outcome_key() ==
                    reference[i].report.outcome_key() &&
                server.decoded_bits(i) == reference[i].decoded_bits;
  }
  std::printf("\nserver == sequential: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
