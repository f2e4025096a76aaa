/// BiScatter benchmark: runs one workload and prints its result.
///
///   perfbench --workload link_server|inventory|ber_sweep --seed N
///             --seconds S --trace 0|1 [--spans PATH]
///
/// Prints a record line (seed, host fingerprint, and every measured metric's
/// median, quartiles and sample count), then, as the last line, the result:
/// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
/// (--trace 0) or the per-layer metrics (--trace 1). A traced run writes its
/// spans to PATH.

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "dsp/kernels/kernels.hpp"
#include "dsp/precision.hpp"
#include "obs/telemetry.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string host_json() {
  std::string s = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"simd_target\": \"";
  s += bis::dsp::kernels::target_name(bis::dsp::kernels::active_target());
  s += "\", \"precision\": \"";
  s += bis::dsp::precision_name(bis::dsp::Precision::kDoubleStrict);
  s += "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  return s;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* unit_of(const std::string& name) {
  for (const auto table : {std::span<const MetricDef>(kEndToEnd),
                            std::span<const MetricDef>(kPerLayer)})
    for (const MetricDef& d : table)
      if (name == d.name) return d.unit;
  return nullptr;
}

bool write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"host\": " << host_json() << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"self_ns\": " << self[i] << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload link_server|inventory|ber_sweep "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  Options opt;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = v;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage();
      opt.trace = v[0] == '1';
    } else if (key == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds) return usage();
  // The workloads are defined with telemetry off (no BIS_TRACE).
  if (bis::obs::enabled()) {
    std::fprintf(stderr, "perfbench: telemetry is on; unset BIS_TRACE\n");
    return 2;
  }

  Result res;
  if (workload == "link_server")
    res = run_link_server(opt);
  else if (workload == "inventory")
    res = run_inventory(opt);
  else if (workload == "ber_sweep")
    res = run_ber_sweep(opt);
  else
    return usage();
  res.add("peak_rss_mb", {peak_rss_mib()});

  std::string record = "{\"record\": {\"workload\": \"" + workload +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + num(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"host\": " + host_json() + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const MetricValue& m = res.metrics[i];
    const char* unit = unit_of(m.name);
    record += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"median\": " +
              num(m.summary.median) + ", \"q1\": " + num(m.summary.q1) +
              ", \"q3\": " + num(m.summary.q3) +
              ", \"n\": " + std::to_string(m.summary.n) + ", \"unit\": \"" +
              (unit != nullptr ? unit : "?") + "\"}";
  }
  record += "}}}";
  std::printf("%s\n", record.c_str());

  if (opt.trace && !spans_path.empty() &&
      !write_spans(spans_path, workload, opt.seed, res.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  // The result line: every metric of the run's kind; a layer this workload
  // never calls reads 0.
  std::string line = "{\"correct\": " + std::string(res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    double value = 0.0;
    for (const MetricValue& m : res.metrics)
      if (m.name == d.name) value = m.summary.median;
    line += std::string(first ? "\"" : ", \"") + d.name + "\": {\"value\": " +
            num(value) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
