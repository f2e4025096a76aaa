#include "obs/metrics.hpp"

#include <cmath>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace bis::obs {

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

std::size_t Counter::shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kShards;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::instance() {
  static Registry* registry = new Registry();  // never destroyed: metric
  return *registry;  // references must outlive static-destruction order
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

LatencyHistogram& Registry::latency(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latencies_.find(name);
  if (it == latencies_.end())
    it = latencies_
             .emplace(std::string(name), std::make_unique<LatencyHistogram>())
             .first;
  return *it->second;
}

void Registry::write_json(std::ostream& os, bool pretty) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << (pretty ? "\n  " : " ");
  };
  for (const auto& [name, c] : counters_) {
    sep();
    os << '"' << json_escape(name) << "\": " << c->value();
  }
  for (const auto& [name, g] : gauges_) {
    sep();
    os << '"' << json_escape(name) << "\": " << json_number(g->value());
  }
  for (const auto& [name, l] : latencies_) {
    sep();
    os << '"' << json_escape(name) << "\": {\"count\": " << l->count()
       << ", \"sum\": " << l->sum()
       << ", \"mean\": " << json_number(l->mean())
       << ", \"p50\": " << json_number(l->p50())
       << ", \"p90\": " << json_number(l->p90())
       << ", \"p99\": " << json_number(l->p99())
       << ", \"p999\": " << json_number(l->p999()) << "}";
  }
  os << (pretty ? "\n}" : "}");
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream oss;
  oss << v;
  return oss.str();
}

void Registry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " counter\n" << n << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " gauge\n"
       << n << " " << prometheus_number(g->value()) << "\n";
  }
  for (const auto& [name, l] : latencies_) {
    const std::string n = prometheus_name(name);
    os << "# TYPE " << n << " summary\n";
    for (const auto& [q, v] :
         {std::pair{"0.5", l->p50()}, std::pair{"0.9", l->p90()},
          std::pair{"0.99", l->p99()}, std::pair{"0.999", l->p999()}})
      os << n << "{quantile=\"" << q << "\"} " << prometheus_number(v) << "\n";
    os << n << "_sum " << prometheus_number(static_cast<double>(l->sum()))
       << "\n";
    os << n << "_count " << l->count() << "\n";
  }
}

std::string Registry::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, l] : latencies_) l->reset();
}

}  // namespace bis::obs
