#include "obs/telemetry.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace bis::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {

std::string& env_path_storage() {
  static std::string path;
  return path;
}

/// Expand every "%p" in @p path to the process id.
std::string expand_pid(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'p') {
      out += std::to_string(static_cast<long>(::getpid()));
      ++i;
    } else {
      out += path[i];
    }
  }
  return out;
}

void dump_trace_at_exit() {
  const std::string& path = env_path_storage();
  if (path.empty()) return;
  if (!write_chrome_trace_file(path)) {
    std::fprintf(stderr, "bis::obs: failed to write BIS_TRACE file '%s'\n",
                 path.c_str());
  }
}

/// One-time BIS_TRACE processing, run during static initialization. Other
/// translation units may touch metrics before this runs; that is harmless —
/// the switch simply defaults to off until we get here.
bool init_from_env() {
  const char* v = std::getenv("BIS_TRACE");
  if (v == nullptr || v[0] == '\0') return false;
  const std::string_view val(v);
  if (val == "0") return false;
  set_enabled(true);
  if (val != "1") {
    env_path_storage() = expand_pid(val);
    std::atexit(dump_trace_at_exit);
  }
  return true;
}

[[maybe_unused]] const bool g_env_initialized = init_from_env();

}  // namespace

}  // namespace bis::obs
