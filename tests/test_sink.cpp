// obs::TelemetrySink: JSONL time-series and Prometheus snapshot export,
// stage timings in both formats, the embedded TCP /metrics endpoint, and
// stop() idempotence. Sinks are constructed locally with files in the gtest
// temp dir; the fixture restores the process-wide telemetry switch.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {
namespace {

class TelemetrySinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    Registry::instance().reset();
  }
  void TearDown() override {
    Registry::instance().reset();
    set_enabled(was_enabled_);
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "sink_" + name;
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) lines.push_back(line);
    return lines;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(TelemetrySinkTest, OptionsAnyDetectsConfiguration) {
  TelemetrySinkOptions none;
  EXPECT_FALSE(none.any());
  TelemetrySinkOptions jsonl;
  jsonl.jsonl_path = "x.jsonl";
  EXPECT_TRUE(jsonl.any());
  TelemetrySinkOptions tcp;
  tcp.tcp_port = 0;
  EXPECT_TRUE(tcp.any());
}

TEST_F(TelemetrySinkTest, ConstructionEnablesTelemetry) {
  set_enabled(false);
  TelemetrySinkOptions opts;
  opts.jsonl_path = temp_path("enable.jsonl");
  opts.interval_ms = 10000;  // sampler effectively idle; stop() flushes
  TelemetrySink sink(opts);
  EXPECT_TRUE(enabled());
  sink.stop();
}

TEST_F(TelemetrySinkTest, JsonlLinesParseAndCarryMetrics) {
  TelemetrySinkOptions opts;
  opts.jsonl_path = temp_path("lines.jsonl");
  opts.interval_ms = 10000;
  TelemetrySink sink(opts);
  Registry::instance().counter("bis.test.sink_counter").add(7);
  Registry::instance().latency("bis.test.sink_us").record(1500);
  sink.sample_now();
  sink.stop();  // takes one final sample

  const auto lines = read_lines(opts.jsonl_path);
  ASSERT_GE(lines.size(), 2u);
  for (const auto& line : lines) {
    const auto doc = json_parse(line);
    ASSERT_TRUE(doc.ok()) << doc.error;
    EXPECT_GE(doc.value.number_or("t_ms", -1.0), 0.0);
    const JsonValue* metrics = doc.value.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->number_or("bis.test.sink_counter", -1.0), 7.0);
    const JsonValue* lat = metrics->find("bis.test.sink_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->number_or("count", -1.0), 1.0);
  }
}

TEST_F(TelemetrySinkTest, StageLatenciesAppearInBothFormats) {
  TelemetrySinkOptions opts;
  opts.jsonl_path = temp_path("stages.jsonl");
  opts.prom_path = temp_path("stages.prom");
  opts.interval_ms = 10000;
  TelemetrySink sink(opts);

  for (int i = 0; i < 5; ++i) StageTimer timer(Stage::kIfSynthesis);
  sink.sample_now();

  const auto lines = read_lines(opts.jsonl_path);
  ASSERT_FALSE(lines.empty());
  const auto doc = json_parse(lines.back());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* metrics = doc.value.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* synth = metrics->find("bis.stage.if_synthesis_ns");
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(synth->number_or("count", -1.0), 5.0);

  const std::string prom = read_file(opts.prom_path);
  EXPECT_NE(prom.find("bis_stage_if_synthesis_ns{quantile=\"0.5\"}"),
            std::string::npos);
  sink.stop();
}

TEST_F(TelemetrySinkTest, SamplerThreadProducesSamples) {
  TelemetrySinkOptions opts;
  opts.jsonl_path = temp_path("sampler.jsonl");
  opts.interval_ms = 20;
  TelemetrySink sink(opts);
  // Poll instead of sleeping a fixed time: the sampler fires every 20 ms.
  for (int i = 0; i < 500 && sink.samples() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  sink.stop();
  EXPECT_GE(sink.samples(), 3u);
  EXPECT_GE(read_lines(opts.jsonl_path).size(), 3u);
}

TEST_F(TelemetrySinkTest, TcpEndpointServesPrometheus) {
  TelemetrySinkOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.interval_ms = 10000;
  TelemetrySink sink(opts);
  if (sink.port() < 0) GTEST_SKIP() << "no loopback listener in this sandbox";
  Registry::instance().counter("bis.test.tcp_counter").add(3);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(sink.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof(request) - 1, 0), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("bis_test_tcp_counter 3"), std::string::npos);
  sink.stop();
}

TEST_F(TelemetrySinkTest, StopIsIdempotent) {
  TelemetrySinkOptions opts;
  opts.jsonl_path = temp_path("stop.jsonl");
  opts.interval_ms = 10000;
  TelemetrySink sink(opts);
  sink.stop();
  const std::size_t after_first = read_lines(opts.jsonl_path).size();
  sink.stop();
  sink.stop();
  EXPECT_EQ(read_lines(opts.jsonl_path).size(), after_first);
}

}  // namespace
}  // namespace bis::obs
