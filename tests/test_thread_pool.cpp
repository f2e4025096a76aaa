// ThreadPool semantics and the DSP engine's determinism guarantee: every
// parallel stage is a pure per-item map, so the receive chain's range FFT and
// windowed IF correction, detect — and the full LinkSimulator uplink —
// produce bit-identical results with 1 thread and N threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/link_simulator.hpp"
#include "phy/bits.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"

namespace bis {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> visits(5000);
  pool.parallel_for(0, visits.size(),
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < visits.size(); ++i)
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(3, 8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // inline ⇒ no race, strict order
  });
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5, 6, 7}));
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, HelperRunsInlineWithoutPool) {
  std::vector<int> order;
  parallel_for(nullptr, 0, 4,
               [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t i) {
                                   if (i == 577) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, EnqueueAfterShutdownRunsInlineDeterministically) {
  ThreadPool pool(4);
  pool.shutdown();
  // With the queue closed the loop must run inline on the caller — strictly
  // ordered, never hung waiting on joined workers.
  std::vector<int> order;
  pool.parallel_for(2, 7, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5, 6}));
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(3);
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op, not a double-join
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ExceptionPropagatesAfterShutdown) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Still usable for further inline loops after the throw.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

// --- Frame pipeline determinism ---------------------------------------------

/// Synthetic CSSK-style frame: a few distinct chirp durations (so both FFT
/// plan sizes and window sizes repeat) with deterministic IF tones.
struct SyntheticFrame {
  std::vector<dsp::CVec> samples;
  std::vector<rf::ChirpParams> chirps;
  double fs = 2e6;
};

SyntheticFrame make_frame(std::size_t n_chirps) {
  SyntheticFrame f;
  Rng rng(99);
  const double durations[] = {60e-6, 75e-6, 96e-6};
  for (std::size_t c = 0; c < n_chirps; ++c) {
    rf::ChirpParams chirp;
    chirp.start_frequency_hz = 9e9;
    chirp.bandwidth_hz = 1e9;
    chirp.duration_s = durations[c % 3];
    chirp.idle_s = 120e-6 - chirp.duration_s;
    const auto n = static_cast<std::size_t>(chirp.duration_s * f.fs);
    dsp::CVec x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / f.fs;
      const double tone = (c % 2 == 0) ? 180e3 : 140e3;
      x[i] = dsp::cdouble(std::cos(kTwoPi * tone * t),
                          std::sin(kTwoPi * tone * t)) +
             dsp::cdouble(0.05 * rng.gaussian(), 0.05 * rng.gaussian());
    }
    f.samples.push_back(std::move(x));
    f.chirps.push_back(chirp);
  }
  return f;
}

/// True when @p a and @p b hold the same bits.
bool same_bits(const dsp::CVec& a, const dsp::CVec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

TEST(DspEngineDeterminism, ProcessFrameBitIdenticalAcrossThreadCounts) {
  const auto frame = make_frame(32);
  const radar::ReceiveChain chain(frame.fs, radar::RangeAlignConfig{},
                                  /*background_subtraction=*/true);

  radar::ReceiveFrame seq_frame, par_frame;
  seq_frame.if_samples = par_frame.if_samples = frame.samples;
  chain.range_fft(frame.chirps, seq_frame, /*pool=*/nullptr);
  ThreadPool pool(4);
  chain.range_fft(frame.chirps, par_frame, &pool);
  const auto& seq = seq_frame.profiles;
  const auto& par = par_frame.profiles;

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t c = 0; c < seq.size(); ++c) {
    ASSERT_EQ(seq[c].n_fft, par[c].n_fft);
    ASSERT_EQ(seq[c].bins.size(), par[c].bins.size());
    for (std::size_t k = 0; k < seq[c].bins.size(); ++k) {
      ASSERT_EQ(seq[c].bins[k].real(), par[c].bins[k].real())
          << "chirp " << c << " bin " << k;
      ASSERT_EQ(seq[c].bins[k].imag(), par[c].bins[k].imag())
          << "chirp " << c << " bin " << k;
    }
  }

  // Four 8-chirp background windows, IF-corrected at 1 and 4 threads.
  chain.if_correct(seq_frame, nullptr, 8);
  chain.if_correct(par_frame, &pool, 8);
  ASSERT_EQ(seq_frame.aligned.range_grid, par_frame.aligned.range_grid);
  ASSERT_EQ(seq_frame.aligned.n_chirps(), par_frame.aligned.n_chirps());
  for (std::size_t r = 0; r < seq_frame.aligned.n_chirps(); ++r)
    ASSERT_TRUE(same_bits(seq_frame.aligned.rows[r], par_frame.aligned.rows[r]))
        << "row " << r;
}

TEST(DspEngineDeterminism, AlignAndDetectBitIdenticalAcrossThreadCounts) {
  const auto frame = make_frame(64);
  const radar::ReceiveChain chain(frame.fs, radar::RangeAlignConfig{},
                                  /*background_subtraction=*/true);
  radar::ReceiveFrame seq_frame;
  seq_frame.if_samples = frame.samples;
  chain.range_fft(frame.chirps, seq_frame, nullptr);
  radar::ReceiveFrame par_frame = seq_frame;

  // Four 16-chirp background windows.
  ThreadPool pool(4);
  chain.if_correct(seq_frame, nullptr, 16);
  chain.if_correct(par_frame, &pool, 16);
  const auto& seq = seq_frame.aligned;
  const auto& par = par_frame.aligned;

  ASSERT_EQ(seq.rows.size(), par.rows.size());
  ASSERT_EQ(seq.range_grid, par.range_grid);
  for (std::size_t r = 0; r < seq.rows.size(); ++r)
    ASSERT_TRUE(same_bits(seq.rows[r], par.rows[r])) << "row " << r;

  radar::TagDetectorConfig det_cfg;
  det_cfg.expected_mod_freq_hz = 1000.0;
  const radar::TagDetector detector(det_cfg);
  const auto det_seq = detector.detect(seq, nullptr);
  const auto det_par = detector.detect(par, &pool);
  EXPECT_EQ(det_seq.found, det_par.found);
  EXPECT_EQ(det_seq.grid_bin, det_par.grid_bin);
  EXPECT_EQ(det_seq.range_m, det_par.range_m);
  EXPECT_EQ(det_seq.mod_power, det_par.mod_power);
  EXPECT_EQ(det_seq.snr_db, det_par.snr_db);
  EXPECT_EQ(det_seq.signature_score, det_par.signature_score);
}

TEST(DspEngineDeterminism, LinkSimulatorUplinkBitIdenticalAcrossThreadCounts) {
  phy::Bits bits;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) bits.push_back(static_cast<int>(rng.uniform_index(2)));

  core::SystemConfig seq_cfg;
  seq_cfg.dsp_threads = 1;  // strictly sequential
  core::SystemConfig par_cfg;
  par_cfg.dsp_threads = 4;  // private 4-lane pool

  core::LinkSimulator seq_sim(seq_cfg);
  core::LinkSimulator par_sim(par_cfg);
  const auto seq = seq_sim.run_uplink(bits, /*downlink_active=*/true);
  const auto par = par_sim.run_uplink(bits, /*downlink_active=*/true);

  EXPECT_EQ(seq.detection.found, par.detection.found);
  EXPECT_EQ(seq.detection.grid_bin, par.detection.grid_bin);
  EXPECT_EQ(seq.detection.range_m, par.detection.range_m);
  EXPECT_EQ(seq.detection.snr_db, par.detection.snr_db);
  EXPECT_EQ(seq.decode.bits, par.decode.bits);
  EXPECT_EQ(seq.bit_errors, par.bit_errors);
  EXPECT_EQ(seq.snr_processed_db, par.snr_processed_db);
}

}  // namespace
}  // namespace bis
