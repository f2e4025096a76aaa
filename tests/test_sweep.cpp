// Sweep-scale Monte-Carlo engine: jump-separated RNG substreams, batched
// Gaussian fills, cached regrid plans, and thread-count-independent sweep
// results (core::SweepRunner).

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <complex>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "core/sweep_runner.hpp"
#include "dsp/resample.hpp"
#include "obs/metrics.hpp"
#include "radar/receive_chain.hpp"

namespace bis {
namespace {

// ---------------------------------------------------------------------------
// Rng::jump() / StreamRng

TEST(StreamRngTest, JumpChangesStateDeterministically) {
  Rng a(123), b(123);
  a.jump();
  EXPECT_NE(a.next_u64(), b.next_u64());  // jumped vs not
  Rng c(123);
  c.jump();
  Rng d(123);
  d.jump();
  EXPECT_EQ(c.next_u64(), d.next_u64());  // jump itself is deterministic
}

TEST(StreamRngTest, StreamsMatchIterativeJumping) {
  // SweepRunner derives substreams by walking one generator and jumping
  // once per point; StreamRng::stream(i) must agree with that walk.
  const StreamRng streams(77);
  Rng walker(77);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Rng s = streams.stream(i);
    Rng w = walker;
    for (int d = 0; d < 8; ++d) EXPECT_EQ(s.next_u64(), w.next_u64()) << i;
    walker.jump();
  }
}

TEST(StreamRngTest, AdjacentStreamsDoNotOverlap) {
  // 2^128-step jumps guarantee disjoint substreams; empirically check that
  // a million draws from adjacent streams (and from fork()-derived streams)
  // share no values. Collisions of truly independent 64-bit streams at this
  // sample size are ~1e-8 likely, so an intersection means real overlap.
  constexpr std::size_t kDraws = 500000;
  const StreamRng streams(2026);
  Rng s0 = streams.stream(0);
  Rng s1 = streams.stream(1);
  Rng forked = streams.stream(0).fork();

  std::vector<std::uint64_t> a(kDraws), b(kDraws), c(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) a[i] = s0.next_u64();
  for (std::size_t i = 0; i < kDraws; ++i) b[i] = s1.next_u64();
  for (std::size_t i = 0; i < kDraws; ++i) c[i] = forked.next_u64();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::sort(c.begin(), c.end());

  std::vector<std::uint64_t> overlap;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty()) << overlap.size() << " shared draws (jump)";
  overlap.clear();
  std::set_intersection(a.begin(), a.end(), c.begin(), c.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty()) << overlap.size() << " shared draws (fork)";
}

// ---------------------------------------------------------------------------
// Rng::fill_gaussian (ziggurat)

TEST(GaussianFillTest, MomentsMatchStandardNormal) {
  Rng rng(9001);
  std::vector<double> x(1000000);
  rng.fill_gaussian(x);

  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double var = 0.0, skew = 0.0, kurt = 0.0;
  std::size_t beyond3 = 0;
  for (double v : x) {
    const double d = v - mean;
    var += d * d;
    skew += d * d * d;
    kurt += d * d * d * d;
    if (std::abs(v) > 3.0) ++beyond3;
  }
  var /= static_cast<double>(x.size());
  skew /= static_cast<double>(x.size()) * var * std::sqrt(var);
  kurt /= static_cast<double>(x.size()) * var * var;

  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(skew, 0.0, 0.02);
  EXPECT_NEAR(kurt, 3.0, 0.1);
  // P(|Z| > 3) = 0.0027: the ziggurat tail path must actually fire.
  EXPECT_NEAR(static_cast<double>(beyond3) / static_cast<double>(x.size()),
              0.0027, 0.0006);
}

TEST(GaussianFillTest, ScaledOverloadAndDeterminism) {
  Rng a(5), b(5);
  std::vector<double> xa(4096), xb(4096);
  a.fill_gaussian(xa, 2.0, 3.0);
  b.fill_gaussian(xb);
  for (std::size_t i = 0; i < xa.size(); ++i)
    EXPECT_DOUBLE_EQ(xa[i], 2.0 + 3.0 * xb[i]) << i;

  double mean = 0.0;
  for (double v : xa) mean += v;
  mean /= static_cast<double>(xa.size());
  EXPECT_NEAR(mean, 2.0, 0.2);
}

TEST(GaussianFillTest, InterleavingWithScalarGaussianIsDeterministic) {
  // fill_gaussian bypasses the Box–Muller cache; mixing the two APIs must
  // stay reproducible for a given seed.
  Rng a(31), b(31);
  std::vector<double> buf_a(64), buf_b(64);
  const double ga1 = a.gaussian();
  a.fill_gaussian(buf_a);
  const double ga2 = a.gaussian();
  const double gb1 = b.gaussian();
  b.fill_gaussian(buf_b);
  const double gb2 = b.gaussian();
  EXPECT_DOUBLE_EQ(ga1, gb1);
  EXPECT_DOUBLE_EQ(ga2, gb2);
  for (std::size_t i = 0; i < buf_a.size(); ++i)
    EXPECT_DOUBLE_EQ(buf_a[i], buf_b[i]);
}

TEST(GaussianFillTest, StatsCount) {
  const auto before = gaussian_fill_stats();
  Rng rng(1);
  std::vector<double> x(1000);
  rng.fill_gaussian(x);
  const auto after = gaussian_fill_stats();
  EXPECT_EQ(after.samples - before.samples, 1000u);
  EXPECT_EQ(after.calls - before.calls, 1u);
}

// ---------------------------------------------------------------------------
// RegridPlan

TEST(RegridPlanTest, BitParityWithRegridLinear) {
  Rng rng(7);
  // Non-uniform strictly increasing source axis.
  std::vector<double> x(64);
  double acc = 0.0;
  for (auto& v : x) {
    acc += 0.1 + rng.uniform();
    v = acc;
  }
  std::vector<dsp::cdouble> y(x.size());
  for (auto& v : y) v = {rng.gaussian(), rng.gaussian()};

  // Queries spanning below, inside, and above the axis (clamp paths).
  std::vector<double> xq;
  for (double q = x.front() - 2.0; q < x.back() + 2.0; q += 0.37) xq.push_back(q);

  const dsp::RegridPlan plan(x, xq);
  ASSERT_EQ(plan.n_queries(), xq.size());
  ASSERT_EQ(plan.n_source(), x.size());

  const auto ref = dsp::regrid_linear(x, y, xq);
  std::vector<dsp::cdouble> got(xq.size());
  plan.apply(y, got);
  for (std::size_t i = 0; i < xq.size(); ++i) EXPECT_EQ(got[i], ref[i]) << i;
}

TEST(RegridPlanTest, UniformAxisParity) {
  const auto x = dsp::linspace(0.0, 10.0, 101);
  const auto xq = dsp::linspace(-1.0, 11.0, 257);
  std::vector<dsp::cdouble> y(x.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = {std::sin(0.3 * static_cast<double>(i)),
            std::cos(0.7 * static_cast<double>(i))};
  const dsp::RegridPlan plan(x, xq);
  std::vector<dsp::cdouble> got(xq.size());
  plan.apply(y, got);
  const auto ref = dsp::regrid_linear(x, y, xq);
  for (std::size_t i = 0; i < xq.size(); ++i) EXPECT_EQ(got[i], ref[i]) << i;
}

TEST(RegridPlanTest, CacheHitsAndClear) {
  dsp::regrid_plan_cache_clear();
  const auto x = dsp::linspace(0.0, 1.0, 16);
  const auto xq = dsp::linspace(0.0, 1.0, 32);
  const auto p1 = dsp::cached_regrid_plan(x, xq);
  const auto p2 = dsp::cached_regrid_plan(x, xq);
  EXPECT_EQ(p1.get(), p2.get());  // shared stencil
  auto stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.plans, 1u);

  // A bitwise-different axis is a different key.
  auto x2 = x;
  x2[3] = std::nextafter(x2[3], 2.0);
  const auto p3 = dsp::cached_regrid_plan(x2, xq);
  EXPECT_NE(p1.get(), p3.get());
  stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);

  dsp::regrid_plan_cache_clear();
  stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.plans, 0u);
}

TEST(RegridPlanTest, ConcurrentMissesCountOnce) {
  // Four lanes request each fresh key at the same moment. Whichever lane
  // stores its plan counts the one miss; the others count hits and get the
  // stored plan, so the counts are the same for any thread timing.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKeys = 200;
  dsp::regrid_plan_cache_clear();
  const auto x = dsp::linspace(0.0, 1.0, 1024);
  std::vector<std::vector<double>> queries;
  for (std::size_t k = 0; k < kKeys; ++k)
    queries.push_back(dsp::linspace(0.0, 1.0 - 1e-3 * static_cast<double>(k), 1024));

  std::vector<std::vector<const dsp::RegridPlan*>> got(
      kThreads, std::vector<const dsp::RegridPlan*>(kKeys));
  std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&, t] {
      for (std::size_t k = 0; k < kKeys; ++k) {
        sync.arrive_and_wait();
        got[t][k] = dsp::cached_regrid_plan(x, queries[k]).get();
      }
    });
  }
  for (auto& lane : lanes) lane.join();

  const auto stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.plans, kKeys);
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kKeys);
  for (std::size_t t = 1; t < kThreads; ++t)
    for (std::size_t k = 0; k < kKeys; ++k)
      EXPECT_EQ(got[t][k], got[0][k]) << "lane " << t << " key " << k;
  dsp::regrid_plan_cache_clear();
}

// ---------------------------------------------------------------------------
// AlignedProfiles span overloads

TEST(RangeAlignScratchTest, ColumnSpanOverloadsMatchAllocating) {
  radar::AlignedProfiles p;
  p.range_grid = {0.0, 1.0, 2.0};
  Rng rng(11);
  for (int m = 0; m < 4; ++m) {
    dsp::CVec row(3);
    for (auto& v : row) v = {rng.gaussian(), rng.gaussian()};
    p.rows.push_back(std::move(row));
  }
  for (std::size_t bin = 0; bin < p.n_bins(); ++bin) {
    const auto mag = p.column_magnitude(bin);
    const auto col = p.column(bin);
    std::vector<double> mag_span(p.n_chirps());
    std::vector<dsp::cdouble> col_span(p.n_chirps());
    p.column_magnitude(bin, mag_span);
    p.column(bin, col_span);
    for (std::size_t m = 0; m < p.n_chirps(); ++m) {
      EXPECT_EQ(mag[m], mag_span[m]);
      EXPECT_EQ(col[m], col_span[m]);
    }
  }
}

TEST(RangeAlignScratchTest, SubtractBackgroundZeroesBackgroundRow) {
  radar::AlignedProfiles p;
  p.range_grid = {0.0, 1.0};
  p.rows = {{{1.0, 2.0}, {3.0, -1.0}},
            {{0.5, 0.5}, {1.0, 1.0}},
            {{-2.0, 0.0}, {0.0, 4.0}}};
  const auto rows_before = p.rows;
  radar::subtract_background(p, 0, p.n_chirps(), 1);
  for (std::size_t i = 0; i < p.rows[1].size(); ++i)
    EXPECT_EQ(p.rows[1][i], dsp::cdouble(0.0, 0.0));
  for (std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    for (std::size_t i = 0; i < p.rows[r].size(); ++i)
      EXPECT_EQ(p.rows[r][i], rows_before[r][i] - rows_before[1][i]);
  }
}

// ---------------------------------------------------------------------------
// SweepRunner determinism

core::SweepOptions small_uplink_options(std::size_t threads) {
  core::SweepOptions opts;
  opts.mode = core::SweepMode::kUplink;
  opts.master_seed = 314;
  opts.threads = threads;
  opts.workload.frames = 1;
  opts.workload.bits_per_frame = 4;
  opts.workload.downlink_active = true;
  return opts;
}

std::vector<core::SweepPoint> small_grid() {
  core::SystemConfig base;
  base.tag.node.uplink.chirps_per_symbol = 32;
  const std::vector<double> ranges = {1.5, 3.0};
  return core::range_sweep_grid(base, ranges, /*repeats=*/2);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto grid = small_grid();
  const auto r1 = core::SweepRunner(small_uplink_options(1)).run(grid);
  const auto r2 = core::SweepRunner(small_uplink_options(2)).run(grid);
  const auto r4 = core::SweepRunner(small_uplink_options(4)).run(grid);

  ASSERT_EQ(r1.points.size(), grid.size());
  ASSERT_EQ(r2.points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(r1.points[i].point_seed, r2.points[i].point_seed);
    EXPECT_EQ(r1.points[i].uplink.ber, r2.points[i].uplink.ber);
    EXPECT_EQ(r1.points[i].uplink.mean_snr_processed_db,
              r2.points[i].uplink.mean_snr_processed_db);
    EXPECT_EQ(r1.points[i].uplink.mean_range_error_m,
              r2.points[i].uplink.mean_range_error_m);
  }
  // The JSON is the full determinism surface (every metric, 17 digits).
  EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r2));
  EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r4));
}

TEST(SweepDeterminism, RepeatsGetDistinctSubstreams) {
  const auto grid = small_grid();
  const auto r = core::SweepRunner(small_uplink_options(1)).run(grid);
  // Points 0/1 share a config but must draw different seeds (jump-separated
  // substreams), so repeats are independent Monte-Carlo trials.
  EXPECT_NE(r.points[0].point_seed, r.points[1].point_seed);
  EXPECT_NE(r.points[2].point_seed, r.points[3].point_seed);
}

TEST(SweepDeterminism, ReportAggregatesOutcomes) {
  const auto grid = small_grid();
  const auto r = core::SweepRunner(small_uplink_options(1)).run(grid);
  EXPECT_EQ(r.report.uplink_frames, grid.size() * 1u);
  EXPECT_GT(r.report.chirps_processed, 0u);
  // The sweep exercises the regrid path on every frame; the plan cache must
  // have seen traffic and the batched AWGN counter must have advanced.
  EXPECT_GT(r.report.regrid_plan_hits + r.report.regrid_plan_misses, 0u);
  EXPECT_GT(r.report.awgn_samples, 0u);
}

// The downlink modes build every point's simulator, calibrate the points
// of one alphabet in a batch, then measure.

core::SweepOptions small_downlink_options(core::SweepMode mode,
                                          std::size_t threads) {
  core::SweepOptions opts;
  opts.mode = mode;
  opts.master_seed = 2718;
  opts.threads = threads;
  opts.workload.min_bits = 240;
  opts.workload.payload_bits = 120;
  opts.workload.frames = 1;
  opts.workload.uplink_bits = 4;
  return opts;
}

std::vector<core::SweepPoint> small_downlink_grid() {
  core::SystemConfig base;
  base.tag.node.uplink.chirps_per_symbol = 32;
  const std::vector<double> ranges = {2.0, 6.0};
  return core::range_sweep_grid(base, ranges, /*repeats=*/2);
}

constexpr core::SweepMode kDownlinkModes[] = {core::SweepMode::kDownlinkBer,
                                              core::SweepMode::kIntegrated};

TEST(SweepDeterminism, DownlinkModesBitIdenticalAcrossThreadCounts) {
  const auto grid = small_downlink_grid();
  for (const auto mode : kDownlinkModes) {
    SCOPED_TRACE(core::sweep_mode_name(mode));
    const auto r1 = core::SweepRunner(small_downlink_options(mode, 1)).run(grid);
    const auto r2 = core::SweepRunner(small_downlink_options(mode, 2)).run(grid);
    const auto r4 = core::SweepRunner(small_downlink_options(mode, 4)).run(grid);
    ASSERT_EQ(r1.points.size(), grid.size());
    EXPECT_GT(r1.points[0].downlink.packets, 0u);
    EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r2));
    EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r4));
  }
}

TEST(SweepDeterminism, DownlinkPointsMatchStandaloneMeasurements) {
  // Each point of a batch-calibrated sweep equals a standalone measurement
  // whose tag is calibrated alone, run on the point's derived seed and
  // substream.
  const auto grid = small_downlink_grid();
  for (const auto mode : kDownlinkModes) {
    SCOPED_TRACE(core::sweep_mode_name(mode));
    const auto opts = small_downlink_options(mode, 2);
    const auto swept = core::SweepRunner(opts).run(grid);
    core::SweepResult alone = swept;
    Rng walker(opts.master_seed);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      Rng rng = walker;
      walker.jump();
      core::SystemConfig cfg = grid[i].config;
      cfg.seed = rng.next_u64();
      cfg.dsp_threads = 1;
      auto& m = alone.points[i];
      m = core::ExperimentMetrics{};
      m.axis = grid[i].axis;
      m.point_seed = cfg.seed;
      m.config = core::config_key(cfg);
      const auto& w = opts.workload;
      if (mode == core::SweepMode::kDownlinkBer) {
        m.downlink = core::measure_downlink_ber(cfg, w.min_bits, w.payload_bits,
                                                nullptr, rng);
      } else {
        core::LinkSimulator sim(cfg);
        sim.calibrate_tag();
        const auto isac = core::measure_integrated(sim, w.frames, w.payload_bits,
                                                   w.uplink_bits, rng);
        m.downlink = isac.downlink;
        m.uplink = isac.uplink;
      }
    }
    EXPECT_EQ(core::sweep_to_json(alone), core::sweep_to_json(swept));
  }
}

TEST(SweepDeterminism, ReportIsTheMergeOfPointReports) {
  // The sweep report merges its points' LinkSimulator reports in grid
  // order: one standalone simulator per point, on the point's seed and
  // substream (its tag calibrated alone in the downlink modes), merges to
  // the same outcome counters at any thread count.
  for (const auto mode :
       {core::SweepMode::kDownlinkBer, core::SweepMode::kUplink,
        core::SweepMode::kLocalization, core::SweepMode::kIntegrated}) {
    SCOPED_TRACE(core::sweep_mode_name(mode));
    const bool downlink = mode == core::SweepMode::kDownlinkBer ||
                          mode == core::SweepMode::kIntegrated;
    core::SweepOptions opts = downlink ? small_downlink_options(mode, 1)
                                       : small_uplink_options(1);
    opts.mode = mode;
    const auto grid = downlink ? small_downlink_grid() : small_grid();
    const auto& w = opts.workload;

    obs::RunReport alone;
    Rng walker(opts.master_seed);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      Rng rng = walker;
      walker.jump();
      core::SystemConfig cfg = grid[i].config;
      cfg.seed = rng.next_u64();
      cfg.dsp_threads = 1;
      core::LinkSimulator sim(cfg);
      if (downlink) sim.calibrate_tag();
      switch (mode) {
        case core::SweepMode::kDownlinkBer:
          core::measure_downlink_ber(sim, w.min_bits, w.payload_bits, rng);
          break;
        case core::SweepMode::kUplink:
          core::measure_uplink(sim, w.frames, w.bits_per_frame,
                               w.downlink_active, rng);
          break;
        case core::SweepMode::kLocalization:
          core::measure_localization(sim, w.frames, w.downlink_active, rng);
          break;
        case core::SweepMode::kIntegrated:
          core::measure_integrated(sim, w.frames, w.payload_bits, w.uplink_bits,
                                   rng);
          break;
      }
      alone.merge(sim.report());
    }
    if (downlink) {
      EXPECT_GT(alone.crc_passes, 0u);
    }
    if (mode != core::SweepMode::kDownlinkBer) {
      EXPECT_GT(alone.chirps_processed, 0u);
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      opts.threads = threads;
      const auto swept = core::SweepRunner(opts).run(grid);
      EXPECT_EQ(swept.report.outcome_key(), alone.outcome_key())
          << threads << " threads";
    }
  }
}

TEST(SweepCalibration, BerSweepGridBuildsOneBankPerSlot) {
  // The ber_sweep grid: 8 ranges of one configuration share one alphabet,
  // so the sweep plans each slot's calibration bank once (38 banks, where
  // calibrating every point alone builds 8 × 38).
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter& banks =
      obs::Registry::instance().counter("bis.tag.calibration_banks");
  const core::SystemConfig base;
  const std::vector<double> ranges = {1, 2, 3, 4, 5, 7, 9, 11};
  core::SweepOptions opts;
  opts.mode = core::SweepMode::kDownlinkBer;
  opts.threads = 2;
  opts.workload.min_bits = 120;
  opts.workload.payload_bits = 120;
  const std::uint64_t before = banks.value();
  const auto r = core::SweepRunner(opts).run(core::range_sweep_grid(base, ranges));
  EXPECT_EQ(r.points.size(), ranges.size());
  EXPECT_EQ(banks.value() - before, base.make_alphabet().slot_count());
  EXPECT_EQ(base.make_alphabet().slot_count(), 38u);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace bis
