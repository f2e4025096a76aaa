/// link_server workload: a closed loop of repeated run(2) rounds over 256
/// links on 4 lanes — the radar uplink receive chain under the pipeline
/// engine. The traced run replays the same link configs through the
/// LinkSimulator stage API to split a frame's time by stage.

#include <algorithm>
#include <exception>
#include <memory>

#include "checks.hpp"
#include "core/link_server.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace bis;

constexpr std::size_t kLinks = 256;
constexpr std::size_t kFramesPerRound = 2;
constexpr std::size_t kSetupReps = 5;
/// Links whose bits and outcome counters are compared with the sequential
/// reference after the measured rounds.
constexpr std::size_t kCheckedLinks = 8;
/// Stage replay size in the traced run.
constexpr std::size_t kReplayLinks = 16;
constexpr std::size_t kReplayFrames = 4;

constexpr const char* kStages[] = {"synthesize", "range_fft", "if_correct",
                                   "detect", "decode"};

/// The bench_server link: OOK, 2 bits/frame, 16 chirps/symbol (32 chirps,
/// 3.84 ms of airtime), tag at 4 m, CSSK downlink active.
core::LinkServerConfig server_config(std::uint64_t seed, std::size_t links) {
  core::LinkServerConfig cfg;
  cfg.base.seed = derive_seed(seed, 1);
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = links;
  cfg.workers = kThreads;
  cfg.bits_per_frame = 2;
  cfg.payload_seed = derive_seed(seed, 2);
  return cfg;
}

/// Sequential stage-by-stage replay of the first kReplayLinks links, one
/// span per stage call under one span per frame. The replayed bits must
/// equal what the server decoded for the same frames.
std::size_t replay_stages(const core::LinkServerConfig& cfg,
                          const core::LinkServer& server, Tracer& tracer,
                          Result& res) {
  const phy::SlopeAlphabet alphabet = cfg.base.make_alphabet();
  std::size_t frame_chirps = 0;
  for (std::size_t i = 0; i < kReplayLinks; ++i) {
    core::LinkSimulator sim(core::link_config(cfg, i, alphabet), alphabet);
    sim.warm_caches();
    Rng payload(cfg.payload_seed ^ core::link_seed(cfg, i));
    core::UplinkFrameJob job;
    phy::Bits bits, decoded;
    for (std::size_t f = 0; f < kReplayFrames; ++f) {
      bits.clear();
      for (std::size_t b = 0; b < cfg.bits_per_frame; ++b)
        bits.push_back(payload.coin() ? 1 : 0);
      const std::uint64_t request = i * kReplayFrames + f;
      ScopedSpan frame(&tracer, "frame", request);
      sim.prepare_uplink_frame(bits, cfg.downlink_active, job);
      job.reset_result();
      {
        ScopedSpan s(&tracer, "synthesize", request);
        sim.stage_synthesize(job);
      }
      {
        ScopedSpan s(&tracer, "range_fft", request);
        sim.stage_range_fft(job, nullptr);
      }
      {
        ScopedSpan s(&tracer, "if_correct", request);
        sim.stage_if_correct(job, nullptr);
      }
      {
        ScopedSpan s(&tracer, "detect", request);
        sim.stage_detect(job, nullptr);
      }
      {
        ScopedSpan s(&tracer, "decode", request);
        sim.stage_decode(job);
      }
      sim.fold_uplink_frame(job);
      decoded.insert(decoded.end(), job.result.decode.bits.begin(),
                     job.result.decode.bits.end());
      frame_chirps = job.chirps.size();
    }
    const phy::Bits& served = server.decoded_bits(i);
    res.check(served.size() >= decoded.size() &&
                  std::equal(decoded.begin(), decoded.end(), served.begin()),
              "link_server: stage replay bits differ from the server's");
  }
  return frame_chirps;
}

}  // namespace

Result run_link_server(const Options& opt) {
  Result res;
  const core::LinkServerConfig cfg = server_config(opt.seed, kLinks);

  // Set-up: engine construction through the warm-up round. The last server
  // built is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<core::LinkServer> server;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<core::LinkServer>(cfg);
    server->run(1);
    setup_s.push_back(seconds_since(t0));
  }
  std::size_t frames_per_link = 1;

  // Closed loop: the next round starts when the previous one returns. A
  // traced run alternates untraced and traced rounds.
  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  std::vector<double> frames_per_s, plain_s, traced_s;
  const auto start = Clock::now();
  for (std::size_t round = 0;
       seconds_since(start) < opt.seconds || (opt.trace && round < 2); ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    ++res.attempted;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(traced ? tracer.get() : nullptr, "link_server.run", round);
      server->run(kFramesPerRound);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "link_server: run() threw: %s\n", e.what());
      ++res.failed;
      res.correct = false;
      break;
    }
    const double dt = seconds_since(t0);
    frames_per_link += kFramesPerRound;
    (traced ? traced_s : plain_s).push_back(dt);
    if (!traced)
      frames_per_s.push_back(static_cast<double>(kLinks * kFramesPerRound) / dt);
  }

  // Output check: sampled links against the sequential reference.
  core::LinkServerConfig ref_cfg = cfg;
  ref_cfg.n_links = kCheckedLinks;
  const auto reference = core::run_links_sequential(ref_cfg, frames_per_link);
  std::vector<LinkOutcome> got, want;
  for (std::size_t i = 0; i < kCheckedLinks; ++i) {
    got.push_back({server->decoded_bits(i), server->link(i).report().outcome_key()});
    want.push_back({reference[i].decoded_bits, reference[i].report.outcome_key()});
  }
  const bool match = link_mismatches(got, want) == 0;
  res.check(match, "link_server: sampled links differ from run_links_sequential");
  if (!match) res.failed = res.attempted;

  res.add("items_per_s", frames_per_s);
  res.add("setup_s", setup_s);
  if (!opt.trace) return res;

  const double fps = median(frames_per_s);
  res.add("trace.overhead_frac", {median(traced_s) / median(plain_s) - 1.0});
  const std::size_t frame_chirps = replay_stages(cfg, *server, *tracer, res);
  res.spans = tracer->spans();
  const auto self_ns = self_times_by_name(res.spans);
  double stage_us_sum = 0.0;
  for (const char* stage : kStages) {
    const auto it = self_ns.find(stage);
    std::vector<double> us;
    if (it != self_ns.end())
      for (double ns : it->second) us.push_back(ns / 1e3);
    stage_us_sum += median(us);
    res.add(std::string(stage) + ".us_per_frame", us);
  }
  // Ideal pipeline: every lane busy with stage work all the time.
  const double ideal_fps = static_cast<double>(kThreads) * 1e6 / stage_us_sum;
  res.add("link_server.scaling_eff", {fps / ideal_fps});
  const double airtime_s =
      static_cast<double>(frame_chirps) * cfg.base.radar.chirp_period_s;
  res.add("link_server.rt_links", {fps * airtime_s});
  return res;
}

}  // namespace perfbench
