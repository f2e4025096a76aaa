// Streaming multi-link server engine: the determinism contract (per-link
// outputs bit-identical to the sequential LinkSimulator at any worker
// count), multi-round continuation, the round hand-off between lanes, the
// on_link_done streaming hook, stage timing, and failure containment.

#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/link_server.hpp"
#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::core {
namespace {

/// Light OOK configuration: 2 bits/frame → 32 chirps/frame, small enough to
/// run many links × worker counts in a unit test while still exercising
/// every stage (synthesis with noise, range FFT, alignment, detection,
/// decoding).
LinkServerConfig light_config(std::size_t links, std::size_t workers) {
  LinkServerConfig cfg;
  cfg.base.seed = 77;
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = links;
  cfg.workers = workers;
  cfg.bits_per_frame = 2;
  return cfg;
}

/// Every link's decoded bits and outcome counters equal the reference's.
void expect_matches(const LinkServer& server,
                    const std::vector<SequentialLinkResult>& reference) {
  ASSERT_EQ(server.n_links(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(server.link(i).report().outcome_key(),
              reference[i].report.outcome_key())
        << "link " << i;
    EXPECT_EQ(server.decoded_bits(i), reference[i].decoded_bits) << "link " << i;
  }
}

TEST(LinkServer, MatchesSequentialAnyWorkerCount) {
  const std::size_t kLinks = 6;
  const std::size_t kFrames = 3;
  const auto reference =
      run_links_sequential(light_config(kLinks, 1), kFrames);
  ASSERT_EQ(reference.size(), kLinks);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    LinkServer server(light_config(kLinks, workers));
    server.run(kFrames);
    expect_matches(server, reference);
  }
}

TEST(LinkServer, TwoRoundsContinueDeterministically) {
  // Link state (RNG, modulator, report) carries across run() calls: two
  // rounds of 2 frames equal one sequential pass of 4 frames.
  const std::size_t kLinks = 4;
  const auto reference = run_links_sequential(light_config(kLinks, 1), 4);

  LinkServer server(light_config(kLinks, 3));
  server.run(2);
  server.run(2);
  expect_matches(server, reference);
}

TEST(LinkServer, ManyShortRoundsMatchSequential) {
  // Each run(1) is one wake and check-in of every lane — the only
  // cross-thread protocol — and links move between lanes from round to
  // round, so link state must carry over whichever lane ran it last.
  const std::size_t kLinks = 8;
  const std::size_t kRounds = 32;
  LinkServer server(light_config(kLinks, 4));
  for (std::size_t r = 0; r < kRounds; ++r) server.run(1);
  expect_matches(server, run_links_sequential(light_config(kLinks, 1), kRounds));
}

TEST(LinkServer, ThrowingLinkFailsRunAndLeavesServerReusable) {
  const std::size_t kLinks = 5;
  const std::size_t kFrames = 2;
  const std::size_t kPoisoned = 3;
  const auto reference =
      run_links_sequential(light_config(kLinks, 1), 2 * kFrames);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    LinkServer server(light_config(kLinks, workers));
    std::mutex mu;
    std::vector<int> fired(kLinks, 0);
    server.on_link_done = [&](std::size_t link, const LinkSimulator&) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++fired[link];
      }
      if (link == kPoisoned) throw std::runtime_error("poisoned link");
    };
    EXPECT_THROW(server.run(kFrames), std::runtime_error);
    // The throw stopped nothing else: every link ran its frames.
    EXPECT_EQ(fired, std::vector<int>(kLinks, 1));

    server.on_link_done = [](std::size_t, const LinkSimulator&) {};
    server.run(kFrames);
    expect_matches(server, reference);
  }
}

TEST(LinkServer, StreamsReportsOnLinkDone) {
  const std::size_t kLinks = 5;
  const std::size_t kFrames = 2;
  LinkServer server(light_config(kLinks, 2));

  std::mutex mu;
  std::vector<int> fired(kLinks, 0);
  std::vector<std::uint64_t> frames_at_callback(kLinks, 0);
  server.on_link_done = [&](std::size_t link, const LinkSimulator& sim) {
    const std::lock_guard<std::mutex> lock(mu);
    ++fired[link];
    frames_at_callback[link] = sim.report().uplink_frames;
  };
  server.run(kFrames);

  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(fired[i], 1) << "link " << i;
    EXPECT_EQ(frames_at_callback[i], kFrames) << "link " << i;
  }
}

TEST(LinkServer, LanesTimeEveryStageInItsHistogram) {
  // The lanes time their frames through the same run_uplink as a
  // sequential run: with telemetry on, every uplink stage histogram counts
  // each frame once and a nonzero time.
  const std::size_t kLinks = 3;
  const std::size_t kFrames = 2;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  LinkServer server(light_config(kLinks, 2));
  server.run(kFrames);
  obs::set_enabled(was_enabled);

  for (const obs::Stage stage :
       {obs::Stage::kIfSynthesis, obs::Stage::kRangeFft,
        obs::Stage::kIfCorrection, obs::Stage::kDetect,
        obs::Stage::kUplinkDecode, obs::Stage::kUplinkFrame}) {
    EXPECT_EQ(obs::stage_latency(stage).count(), kLinks * kFrames)
        << obs::stage_name(stage);
    EXPECT_GT(obs::stage_latency(stage).sum(), 0u) << obs::stage_name(stage);
  }
}

}  // namespace
}  // namespace bis::core
