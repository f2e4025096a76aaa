/// ber_sweep workload: repeated downlink BER sweeps over the Fig. 13 grid on
/// a 4-lane pool. It goes radar packet → CSSK → TagFrontend → TagDecoder and
/// never touches radar detect, range FFT or the MAC, so a change to those
/// layers must leave it unchanged. The traced run times every grid point
/// and replays run_downlink's steps packet by packet.

#include <algorithm>
#include <exception>
#include <memory>

#include "common/thread_pool.hpp"
#include "core/sweep_runner.hpp"
#include "perfbench.hpp"
#include "phy/packet.hpp"

namespace perfbench {
namespace {

using namespace bis;

constexpr double kRangesM[] = {1, 2, 3, 4, 5, 7, 9, 11};
constexpr std::size_t kSetupReps = 5;
/// Packets replayed per grid point in the traced run.
constexpr std::size_t kReplayPackets = 8;

core::SweepOptions sweep_options(std::uint64_t seed, std::size_t threads) {
  core::SweepOptions opts;
  opts.mode = core::SweepMode::kDownlinkBer;
  opts.master_seed = derive_seed(seed, 4);
  opts.threads = threads;
  opts.workload.min_bits = 6000;
  opts.workload.payload_bits = 120;
  return opts;
}

std::size_t bits_simulated(const core::SweepResult& r) {
  std::size_t bits = 0;
  for (const auto& p : r.points) bits += p.downlink.bits;
  return bits;
}

/// The per-point inputs SweepRunner derives: substream i of the master seed
/// (one jump per point), the point seed drawn from it, one lane per point.
struct PointInput {
  core::SystemConfig config;
  Rng rng{0};
};

std::vector<PointInput> point_inputs(const core::SweepOptions& opts,
                                     const std::vector<core::SweepPoint>& grid) {
  std::vector<PointInput> out;
  Rng walker(opts.master_seed);
  for (const auto& point : grid) {
    PointInput in{point.config, walker};
    walker.jump();
    in.config.seed = in.rng.next_u64();
    in.config.dsp_threads = 1;
    out.push_back(std::move(in));
  }
  return out;
}

/// Times measure_downlink_ber for every grid point on a kThreads-lane pool,
/// one span per point under one span for the whole replay. Returns the
/// measurements so the caller can check them against the sweep's.
std::vector<core::BerMeasurement> replay_points(
    const core::SweepOptions& opts, const std::vector<core::SweepPoint>& grid,
    const phy::SlopeAlphabet& alphabet, Tracer& tracer) {
  std::vector<PointInput> inputs = point_inputs(opts, grid);
  std::vector<core::BerMeasurement> out(inputs.size());
  ThreadPool pool(kThreads);
  ScopedSpan replay(&tracer, "sweep.replay");
  const std::int64_t parent = replay.id();
  bis::parallel_for(&pool, 0, inputs.size(), [&](std::size_t i) {
    ScopedSpan point(&tracer, "measure_downlink_ber", i, parent);
    out[i] = core::measure_downlink_ber(inputs[i].config, opts.workload.min_bits,
                                        opts.workload.payload_bits, &alphabet,
                                        inputs[i].rng);
  });
  return out;
}

/// run_downlink's steps for kReplayPackets packets at every grid point, one
/// span per TagFrontend::receive_frame and TagNode::receive_downlink call.
void replay_packets(const core::SweepOptions& opts,
                    const std::vector<core::SweepPoint>& grid,
                    const phy::SlopeAlphabet& alphabet, Tracer& tracer) {
  std::vector<PointInput> inputs = point_inputs(opts, grid);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::SystemConfig& cfg = inputs[i].config;
    core::LinkSimulator sim(cfg, alphabet);
    sim.calibrate_tag();
    for (std::size_t k = 0; k < kReplayPackets; ++k) {
      const std::uint64_t request = i * kReplayPackets + k;
      ScopedSpan packet(&tracer, "packet", request);
      const phy::DownlinkPacket pkt(cfg.packet,
                                    inputs[i].rng.bits(opts.workload.payload_bits));
      const auto frame = pkt.to_frame(alphabet);
      const auto paths = sim.incident_paths(cfg.tag_range_m);
      sim.tag_node().frontend().auto_gain(paths);
      // The tag stays absorptive for the whole packet, as in run_downlink.
      const std::unique_ptr<bool[]> absorb(new bool[frame.size()]);
      std::fill_n(absorb.get(), frame.size(), true);
      const std::span<const bool> flags(absorb.get(), frame.size());
      dsp::RVec stream;
      {
        ScopedSpan s(&tracer, "tag_frontend.receive_frame", request);
        stream = sim.tag_node().frontend().receive_frame(frame.chirps(), paths, flags);
      }
      ScopedSpan s(&tracer, "tag_decode.receive_downlink", request);
      sim.tag_node().receive_downlink(stream, cfg.packet);
    }
  }
}

}  // namespace

Result run_ber_sweep(const Options& opt) {
  Result res;
  const core::SweepOptions opts = sweep_options(opt.seed, kThreads);
  const core::SystemConfig base;
  const std::vector<core::SweepPoint> grid =
      core::range_sweep_grid(base, std::vector<double>(std::begin(kRangesM),
                                                       std::end(kRangesM)));

  // Set-up: runner construction through the first sweep (which builds the
  // shared plan caches). Its output is the reference later sweeps match.
  std::vector<double> setup_s;
  std::unique_ptr<core::SweepRunner> runner;
  core::SweepResult first;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    runner.reset();
    const auto t0 = Clock::now();
    runner = std::make_unique<core::SweepRunner>(opts);
    first = runner->run(grid);
    setup_s.push_back(seconds_since(t0));
  }
  const std::string reference = core::sweep_to_json(first);

  std::unique_ptr<Tracer> tracer = opt.trace ? std::make_unique<Tracer>() : nullptr;
  std::vector<double> bits_per_s, plain_s, traced_s;
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       seconds_since(start) < opt.seconds || (opt.trace && rep < 2); ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    ++res.attempted;
    core::SweepResult result;
    const auto t0 = Clock::now();
    try {
      ScopedSpan span(traced ? tracer.get() : nullptr, "sweep.run", rep);
      result = runner->run(grid);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ber_sweep: run() threw: %s\n", e.what());
      ++res.failed;
      res.correct = false;
      break;
    }
    const double dt = seconds_since(t0);
    (traced ? traced_s : plain_s).push_back(dt);
    if (!traced) bits_per_s.push_back(static_cast<double>(bits_simulated(result)) / dt);
    const bool ok = core::sweep_to_json(result) == reference;
    res.check(ok, "ber_sweep: sweep output changed between repetitions");
    if (!ok) ++res.failed;
  }

  // The pool must not change the numbers: a sequential sweep gives the
  // same JSON.
  const bool same = core::sweep_to_json(core::SweepRunner(sweep_options(opt.seed, 1))
                                            .run(grid)) == reference;
  res.check(same, "ber_sweep: threads = 1 sweep differs");
  if (!same) res.failed = res.attempted;

  res.add("items_per_s", bits_per_s);
  res.add("setup_s", setup_s);
  if (!opt.trace) return res;

  res.add("trace.overhead_frac", {median(traced_s) / median(plain_s) - 1.0});
  const phy::SlopeAlphabet alphabet = base.make_alphabet();
  const auto replayed = replay_points(opts, grid, alphabet, *tracer);
  bool replay_ok = replayed.size() == first.points.size();
  for (std::size_t i = 0; replay_ok && i < replayed.size(); ++i) {
    const auto& a = replayed[i];
    const auto& b = first.points[i].downlink;
    replay_ok = a.bits == b.bits && a.errors == b.errors && a.packets == b.packets &&
                a.packets_locked == b.packets_locked;
  }
  res.check(replay_ok, "ber_sweep: point replay differs from the sweep");
  replay_packets(opts, grid, alphabet, *tracer);

  res.spans = tracer->spans();
  const auto self_ns = self_times_by_name(res.spans);
  const auto scaled = [&](const char* name, double scale) {
    std::vector<double> out;
    if (const auto it = self_ns.find(name); it != self_ns.end())
      for (double ns : it->second) out.push_back(ns * scale);
    return out;
  };
  const std::vector<double> point_s = scaled("measure_downlink_ber", 1e-9);
  double sum = 0.0, worst = 0.0;
  for (double s : point_s) {
    sum += s;
    worst = std::max(worst, s);
  }
  res.add("sweep.pool_eff",
          {sum / (static_cast<double>(kThreads) * median(plain_s))});
  res.add("sweep.point_imbalance",
          {worst / (sum / static_cast<double>(point_s.size()))});
  res.add("tag_frontend.us_per_packet", scaled("tag_frontend.receive_frame", 1e-3));
  res.add("tag_decode.us_per_packet", scaled("tag_decode.receive_downlink", 1e-3));
  return res;
}

}  // namespace perfbench
