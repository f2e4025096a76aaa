#pragma once

/// @file link_server.hpp
/// Streaming multi-link server engine: N concurrent radar ⇄ tag links
/// advanced by a crew of lanes. Where LinkSimulator processes one frame of
/// one link at a time, the LinkServer keeps every lane busy with a whole
/// link — the model of a radar basestation serving a deployment of IoT tags
/// (paper §6 envisions many tags per radar) and the repo's throughput engine
/// for large scenes.
///
/// ## Lanes
///
/// Each run() round, the calling thread plus `workers − 1` long-lived
/// threads claim link indices from one atomic counter. A lane runs the
/// claimed link's frames in order, each through LinkSimulator::run_uplink
///
///   prepare → synthesize → range_fft → if_correct → detect → decode → fold
///
/// in the lane's one UplinkFrameJob, then claims the next link. run_uplink
/// folds the frame's outcomes into the link's RunReport and times every
/// stage into the process-wide `bis.stage.<stage>_ns` histograms while
/// telemetry is on, exactly as it does for a sequential run. Every job is
/// reused forever, and a round's hand-off is one mutex/condition-variable
/// wake and check-in per worker — the steady-state frame loop performs no
/// heap allocation. Callers always have at least as many links as lanes, so
/// whole-link parallelism keeps every lane busy without overlapping one
/// link's frames.
///
/// ## Determinism contract
///
/// Per-link outputs (decoded bits, RunReport outcome counters) are
/// bit-identical to running the same links frame-by-frame on one thread,
/// regardless of worker count: one lane owns a link for the whole round, so
/// the link's RNG, modulator and report advance in sequential frame order,
/// and the stages only touch the link's own simulator, the lane's job and
/// fully overwritten thread-local scratch. The round hand-off orders one
/// round's writes to a link before the next round's reads.
/// run_links_sequential() is the reference implementation tests compare
/// against (tests/test_link_server.cpp).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"

namespace bis::core {

struct LinkServerConfig {
  SystemConfig base;          ///< Template configuration; per-link seeds are
                              ///< derived from base.seed and the link index.
  std::size_t n_links = 1;
  /// Worker lanes, including the calling thread: 1 = the caller does all the
  /// work (no threads spawned), w > 1 spawns w−1 lane threads.
  std::size_t workers = 1;
  std::size_t bits_per_frame = 8;   ///< Uplink payload bits per frame.
  std::uint64_t payload_seed = 0x5EEDull;  ///< Per-link payload streams.
  bool downlink_active = true;  ///< Vary chirp slopes (CSSK) while sensing.
  bool collect_bits = true;     ///< Accumulate per-link decoded bits (the
                                ///< determinism-diff artifact).
};

/// Per-link seed derivation shared by the server and the sequential
/// reference (splitmix-style odd-constant scramble of the link index).
std::uint64_t link_seed(const LinkServerConfig& config, std::size_t link);

/// Per-link SystemConfig: base with the derived seed, dsp_threads forced to
/// 1 (inside the server, parallelism comes from the lanes, not from nested
/// per-stage pools), and the IF-correction grid pinned to the whole
/// alphabet — grid_bins to the largest slot's FFT size and max_range_m to
/// the smallest slot's unambiguous range (only where the base config leaves
/// them at their derive-per-frame defaults). A pinned grid is identical for
/// every frame regardless of which CSSK slopes it draws, so the regrid-plan
/// working set is one plan per alphabet slot and steady-state frames never
/// miss the plan cache.
SystemConfig link_config(const LinkServerConfig& config, std::size_t link);

/// Overload reusing a prebuilt alphabet (the grid pinning needs one; the
/// alphabet is a pure function of the base config, so results are identical).
SystemConfig link_config(const LinkServerConfig& config, std::size_t link,
                         const phy::SlopeAlphabet& alphabet);

/// Outcome of one link, as produced by the sequential reference.
struct SequentialLinkResult {
  obs::RunReport report;
  phy::Bits decoded_bits;  ///< Concatenated decoded bits, frame order.
};

/// Reference implementation of the server's work: the same links advanced
/// frame-by-frame on the calling thread. The determinism contract states the
/// LinkServer reproduces these outputs bit-for-bit at any worker count.
std::vector<SequentialLinkResult> run_links_sequential(
    const LinkServerConfig& config, std::size_t frames_per_link);

class LinkServer {
 public:
  explicit LinkServer(const LinkServerConfig& config);
  /// Shares a prebuilt slope alphabet across every link (the alphabet does
  /// not depend on the seed, so all links use identical chirp tables).
  LinkServer(const LinkServerConfig& config,
             const phy::SlopeAlphabet& shared_alphabet);
  ~LinkServer();

  LinkServer(const LinkServer&) = delete;
  LinkServer& operator=(const LinkServer&) = delete;

  /// Advance every link by @p frames_per_link uplink frames. Blocks until
  /// the round completes; the calling thread works as a lane. Callable
  /// repeatedly — link state (RNG, modulator, report) carries over, so two
  /// run(N) rounds equal one run(2N) equal 2N sequential frames.
  ///
  /// A stage or on_link_done that throws fails only the link it was working
  /// on: every other link still runs its frames, then run() rethrows the
  /// first exception on the caller and the server stays usable.
  void run(std::size_t frames_per_link);

  /// Streaming hook: invoked (from the lane that ran the link) right after a
  /// link's last frame of the round folds, with that link's simulator
  /// quiescent. At most one callback runs per link per round; distinct links
  /// may fire concurrently. Set before run().
  std::function<void(std::size_t link, const LinkSimulator& sim)> on_link_done;

  std::size_t n_links() const { return links_.size(); }
  std::size_t workers() const { return config_.workers; }
  const LinkServerConfig& config() const { return config_; }

  /// Link @p i's simulator (reports, configs). Only valid while no round is
  /// running.
  const LinkSimulator& link(std::size_t i) const { return *links_[i].sim; }

  /// Concatenated decoded uplink bits of link @p i across all rounds
  /// (empty when collect_bits is off).
  const phy::Bits& decoded_bits(std::size_t i) const {
    return links_[i].decoded_bits;
  }

 private:
  struct LinkState {
    std::unique_ptr<LinkSimulator> sim;
    Rng payload_rng{0};
    phy::Bits decoded_bits;  ///< Accumulated decoded bits (collect_bits).
  };

  /// Per-lane scratch, reused for every frame the lane runs.
  struct Lane {
    UplinkFrameJob job;
    phy::Bits payload;
  };

  void worker_main(std::size_t lane);
  /// Claim and run links until the round's counter is exhausted.
  void run_lane(Lane& lane, std::size_t frames_per_link);
  void run_link(std::size_t link, Lane& lane, std::size_t frames_per_link);
  /// Keep @p error as the round's failure unless an earlier one is held.
  void record_error(std::exception_ptr error);
  /// Stop and join every worker.
  void shutdown();

  LinkServerConfig config_;
  phy::SlopeAlphabet alphabet_;
  std::vector<LinkState> links_;
  std::vector<Lane> lanes_;  ///< lanes_[0] is the caller's.
  std::atomic<std::size_t> next_link_{0};  ///< The round's claim counter.
  std::atomic<bool> running_{false};       ///< Reentrancy guard for run().

  // Round hand-off. The caller publishes a round's frame count with the
  // round number and waits until every worker has checked out, so no worker
  // can still be claiming links when the next round's counter is reset.
  std::mutex mu_;
  std::condition_variable wake_;     ///< Workers: a new round or stop.
  std::condition_variable done_;     ///< Caller: every worker checked out.
  std::uint64_t round_ = 0;          ///< Guarded by mu_.
  std::size_t frames_per_link_ = 0;  ///< Guarded by mu_.
  std::size_t busy_workers_ = 0;     ///< Guarded by mu_.
  bool stop_ = false;                ///< Guarded by mu_.
  std::exception_ptr error_;         ///< First failure; guarded by mu_.

  std::vector<std::thread> threads_;
};

}  // namespace bis::core
