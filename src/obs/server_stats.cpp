#include "obs/server_stats.hpp"

#include <chrono>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {

const char* server_stage_name(ServerStage stage) {
  switch (stage) {
    case ServerStage::kSynthesize: return "synthesize";
    case ServerStage::kRangeFft: return "range_fft";
    case ServerStage::kIfCorrect: return "if_correct";
    case ServerStage::kDetect: return "detect";
    case ServerStage::kDecode: return "decode";
  }
  return "?";
}

double StageStats::mean_busy_us() const {
  return frames == 0 ? 0.0
                     : static_cast<double>(busy_ns) / 1e3 /
                           static_cast<double>(frames);
}

void ServerStatsCollector::record(ServerStage stage, std::uint64_t busy_ns) {
  const auto s = static_cast<std::size_t>(stage);
  Cell& c = cells_[s];
  c.frames.fetch_add(1, std::memory_order_relaxed);
  // With telemetry off the stamps are zero; recording the zeros would only
  // pollute the distribution.
  if (busy_ns != 0) {
    c.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
    busy_ns_[s].record(busy_ns);
  }
}

std::uint64_t ServerStatsCollector::now_ns() {
  if (!enabled()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

StageStats ServerStatsCollector::snapshot(ServerStage stage) const {
  const Cell& c = cells_[static_cast<std::size_t>(stage)];
  StageStats out;
  out.frames = c.frames.load(std::memory_order_relaxed);
  out.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  return out;
}

void ServerStatsCollector::reset() {
  for (Cell& c : cells_) {
    c.frames.store(0, std::memory_order_relaxed);
    c.busy_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& h : busy_ns_) h.reset();
  e2e_ns_.reset();
}

namespace {

/// Quantile block in microseconds from a nanosecond-sample histogram.
void write_us_quantiles(std::ostream& os, const LatencyHistogram& h) {
  os << "{\"count\": " << h.count()
     << ", \"p50\": " << json_number(h.p50() / 1e3)
     << ", \"p90\": " << json_number(h.p90() / 1e3)
     << ", \"p99\": " << json_number(h.p99() / 1e3)
     << ", \"p999\": " << json_number(h.p999() / 1e3) << "}";
}

}  // namespace

void ServerStatsCollector::write_json(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < kServerStages; ++i) {
    const auto stage = static_cast<ServerStage>(i);
    const StageStats s = snapshot(stage);
    if (i != 0) os << ", ";
    os << "\"" << server_stage_name(stage) << "\": {\"frames\": " << s.frames
       << ", \"busy_ns\": " << s.busy_ns << ", \"busy_us\": ";
    write_us_quantiles(os, busy_ns_[i]);
    os << "}";
  }
  os << ", \"e2e_us\": ";
  write_us_quantiles(os, e2e_ns_);
  os << "}";
}

void ServerStatsCollector::write_prometheus(std::ostream& os) const {
  os << "# TYPE bis_server_stage_frames counter\n";
  for (std::size_t i = 0; i < kServerStages; ++i)
    os << "bis_server_stage_frames{stage=\""
       << server_stage_name(static_cast<ServerStage>(i)) << "\"} "
       << snapshot(static_cast<ServerStage>(i)).frames << "\n";
  const auto summary = [&os](const char* metric, const char* stage,
                             const LatencyHistogram& h) {
    static constexpr std::pair<const char*, double> kQ[] = {
        {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
    for (const auto& [label, q] : kQ) {
      os << metric;
      if (stage != nullptr) os << "{stage=\"" << stage << "\",quantile=\""
                               << label << "\"} ";
      else os << "{quantile=\"" << label << "\"} ";
      os << prometheus_number(h.quantile(q) / 1e3) << "\n";
    }
    os << metric << "_count";
    if (stage != nullptr) os << "{stage=\"" << stage << "\"}";
    os << " " << h.count() << "\n";
  };
  os << "# TYPE bis_server_stage_busy_us summary\n";
  for (std::size_t i = 0; i < kServerStages; ++i)
    summary("bis_server_stage_busy_us",
            server_stage_name(static_cast<ServerStage>(i)), busy_ns_[i]);
  os << "# TYPE bis_server_e2e_us summary\n";
  summary("bis_server_e2e_us", nullptr, e2e_ns_);
}

std::string ServerStatsCollector::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

}  // namespace bis::obs
