// RunReport::merge semantics — including the concurrent-producer pattern the
// streaming engine and sweep runner rely on: worker threads accumulate
// private reports and merge them into one aggregate under a lock.

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "obs/report.hpp"

namespace bis::obs {
namespace {

RunReport make_report(std::uint64_t k) {
  RunReport r;
  r.uplink_frames = k;
  r.chirps_processed = 32 * k;
  r.detections = k / 2;
  r.uplink_bits = 8 * k;
  r.uplink_bit_errors = k % 3;
  r.detector_snr_sum_db = 0.125 * static_cast<double>(k);  // exact in binary
  r.last_detector_snr_db = static_cast<double>(k);
  r.fft_plans = k;           // cache snapshots merge as max, not sum
  r.regrid_plans = 2 * k;
  r.awgn_samples = 100 * k;
  return r;
}

TEST(ReportMerge, CountersAddAndSnapshotsMax) {
  RunReport total;
  total.config = "agg";
  total.merge(make_report(3));
  total.merge(make_report(5));
  EXPECT_EQ(total.config, "agg");  // an existing key is kept
  EXPECT_EQ(total.uplink_frames, 8u);
  EXPECT_EQ(total.chirps_processed, 256u);
  EXPECT_EQ(total.detections, 3u);
  EXPECT_EQ(total.uplink_bits, 64u);
  EXPECT_EQ(total.uplink_bit_errors, 2u);  // 3%3 + 5%3
  EXPECT_DOUBLE_EQ(total.detector_snr_sum_db, 1.0);
  EXPECT_DOUBLE_EQ(total.last_detector_snr_db, 5.0);  // latest merged wins
  EXPECT_DOUBLE_EQ(total.mean_detector_snr_db(), 1.0 / 8.0);
  EXPECT_EQ(total.fft_plans, 5u);
  EXPECT_EQ(total.regrid_plans, 10u);
  EXPECT_EQ(total.awgn_samples, 800u);
}

TEST(ReportMerge, OutcomeKeyIgnoresTimingAndCaches) {
  // The report holds no wall time (stage times live in the bis.stage.*
  // histograms); its process-wide cache and noise deltas vary run to run.
  RunReport a = make_report(7);
  RunReport b = make_report(7);
  b.fft_plan_hits += 99;
  b.fft_plans = 1;
  b.awgn_samples += 17;
  EXPECT_EQ(a.outcome_key(), b.outcome_key());
  b.uplink_bit_errors += 1;    // ...but outcomes must not
  EXPECT_NE(a.outcome_key(), b.outcome_key());
}

TEST(ReportMerge, ConcurrentProducersAggregateExactly) {
  // The streaming pattern: each worker folds frames into its own report,
  // then merges into the shared aggregate under a mutex. Integer outcome
  // counters must total exactly whatever the producers folded, regardless
  // of thread interleaving.
  const std::size_t kThreads = 8;
  const std::uint64_t kReportsPerThread = 200;

  RunReport total;
  std::mutex mu;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RunReport local;
      for (std::uint64_t k = 0; k < kReportsPerThread; ++k)
        local.merge(make_report(t + 1));
      const std::lock_guard<std::mutex> lock(mu);
      total.merge(local);
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t frames = 0;
  std::uint64_t bits = 0;
  double snr = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    frames += kReportsPerThread * (t + 1);
    bits += kReportsPerThread * 8 * (t + 1);
    snr += static_cast<double>(kReportsPerThread) * 0.125 *
           static_cast<double>(t + 1);
  }
  EXPECT_EQ(total.uplink_frames, frames);
  EXPECT_EQ(total.uplink_bits, bits);
  // 0.125·k sums are exact in binary floating point at these magnitudes, so
  // even the double accumulator must land exactly.
  EXPECT_DOUBLE_EQ(total.detector_snr_sum_db, snr);
}

}  // namespace
}  // namespace bis::obs
