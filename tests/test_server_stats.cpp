// obs::ServerStatsCollector: per-stage accumulation, per-frame service-time
// histograms, snapshot/reset semantics, both export formats, and lock-free
// recording from concurrent producer threads (this suite is in the TSan
// matrix).

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/server_stats.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {
namespace {

class ServerStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ServerStatsTest, RecordAccumulatesPerStage) {
  ServerStatsCollector c;
  c.record(ServerStage::kRangeFft, /*busy_ns=*/1000);
  c.record(ServerStage::kRangeFft, /*busy_ns=*/3000);
  c.record(ServerStage::kDecode, /*busy_ns=*/20);

  const StageStats fft = c.snapshot(ServerStage::kRangeFft);
  EXPECT_EQ(fft.frames, 2u);
  EXPECT_EQ(fft.busy_ns, 4000u);
  EXPECT_DOUBLE_EQ(fft.mean_busy_us(), 2.0);

  const StageStats decode = c.snapshot(ServerStage::kDecode);
  EXPECT_EQ(decode.frames, 1u);
  EXPECT_EQ(c.snapshot(ServerStage::kSynthesize).frames, 0u);
}

TEST_F(ServerStatsTest, RecordFeedsLatencyHistograms) {
  ServerStatsCollector c;
  for (int i = 0; i < 100; ++i)
    c.record(ServerStage::kDetect, /*busy_ns=*/2000);
  const LatencyHistogram& busy = c.busy_latency(ServerStage::kDetect);
  EXPECT_EQ(busy.count(), 100u);
  // The estimate interpolates inside the log bucket holding 2000 ns, so it
  // can sit up to one bucket width (<= 25%) on either side.
  EXPECT_GE(busy.p50(), 2000.0 / 1.25 - 1.0);
  EXPECT_LT(busy.p50(), 2000.0 * 1.25 + 1.0);
}

TEST_F(ServerStatsTest, TelemetryOffStampsDoNotPolluteHistograms) {
  ServerStatsCollector c;
  // The server passes zero stamps when telemetry is off; the frame still
  // counts, but zeros must not enter the latency distribution.
  c.record(ServerStage::kDetect, 0);
  EXPECT_EQ(c.snapshot(ServerStage::kDetect).frames, 1u);
  EXPECT_EQ(c.busy_latency(ServerStage::kDetect).count(), 0u);
}

TEST_F(ServerStatsTest, E2eRecordsFrameServiceTime) {
  ServerStatsCollector c;
  c.record_e2e(1'000'000);
  c.record_e2e(2'000'000);
  EXPECT_EQ(c.e2e_latency().count(), 2u);
  EXPECT_DOUBLE_EQ(c.e2e_latency().mean(), 1.5e6);
}

TEST_F(ServerStatsTest, ResetClearsEverything) {
  ServerStatsCollector c;
  c.record(ServerStage::kDecode, 20);
  c.record_e2e(99);
  c.reset();
  const StageStats s = c.snapshot(ServerStage::kDecode);
  EXPECT_EQ(s.frames, 0u);
  EXPECT_EQ(s.busy_ns, 0u);
  EXPECT_EQ(c.e2e_latency().count(), 0u);
  EXPECT_EQ(c.busy_latency(ServerStage::kDecode).count(), 0u);
}

TEST_F(ServerStatsTest, WriteJsonParsesAndCarriesQuantiles) {
  ServerStatsCollector c;
  for (int i = 0; i < 10; ++i)
    c.record(ServerStage::kSynthesize, 5000);
  c.record_e2e(123456);
  const auto doc = json_parse(c.to_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* synth = doc.value.find("synthesize");
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(synth->number_or("frames", -1.0), 10.0);
  const JsonValue* busy = synth->find("busy_us");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->number_or("count", -1.0), 10.0);
  // 5000 ns = 5 us, within one log-bucket width (<= 25%) either side.
  EXPECT_GE(busy->number_or("p50", -1.0), 5.0 / 1.25 - 0.01);
  EXPECT_LT(busy->number_or("p50", -1.0), 5.0 * 1.25 + 0.01);
  const JsonValue* e2e = doc.value.find("e2e_us");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->number_or("count", -1.0), 1.0);
}

TEST_F(ServerStatsTest, WritePrometheusHasStageAndQuantileLabels) {
  ServerStatsCollector c;
  c.record(ServerStage::kDetect, 900);
  c.record_e2e(5000);
  std::ostringstream oss;
  c.write_prometheus(oss);
  const std::string text = oss.str();
  EXPECT_NE(text.find("# TYPE bis_server_stage_frames counter"),
            std::string::npos);
  EXPECT_NE(text.find("bis_server_stage_frames{stage=\"detect\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("bis_server_stage_busy_us{stage=\"detect\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(text.find("bis_server_e2e_us_count 1"), std::string::npos);
}

TEST_F(ServerStatsTest, ConcurrentProducersLoseNothing) {
  ServerStatsCollector c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.record(ServerStage::kRangeFft, 100);
        c.record_e2e(1000);
      }
    });
  }
  for (auto& th : threads) th.join();
  const StageStats fft = c.snapshot(ServerStage::kRangeFft);
  EXPECT_EQ(fft.frames, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(fft.busy_ns, static_cast<std::uint64_t>(kThreads) * kPerThread * 100);
  EXPECT_EQ(c.e2e_latency().count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace bis::obs
