/// bench_compare — the perf-regression gate over BENCH_*.json trajectories.
///
/// Compares a freshly produced BENCH file against the committed baseline and
/// exits nonzero when any throughput/latency metric regressed beyond a
/// noise-aware relative threshold, or when a boolean gate (parity,
/// bit-identity, zero-alloc) flipped from true to false. Rows marked
/// `"valid": false` (thread-scaling measurements on an oversubscribed host)
/// are skipped on either side — they carry no comparable signal.
///
///   bench_compare --baseline BENCH_server.json --current build/BENCH_server.json
///   bench_compare --baseline A --current B --threshold 0.5
///   bench_compare --smoke BENCH_*.json     # parse + boolean gates only
///   bench_compare --self-test BENCH_server.json
///
/// Metric directions are keyed by name: frames_per_s / *speedup* /
/// *_msamples_per_s are higher-better; seconds / *_us / *_ns / *_ms are
/// lower-better. Everything else (counts, depths, configuration fields) is
/// matched for row identity but not gated. Rows inside arrays are matched by
/// their identity fields (links/workers/threads/n/kernel/…), falling back to
/// position, so reordering a report does not fake a regression.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace {

using bis::JsonValue;

/// Fields that identify a row inside an array of objects (never gated).
/// "tier"/"precision"/"grid"/"fallback" keep rows of different numeric
/// paths or grids apart (BENCH files recorded before the program had one
/// numeric path carry per-tier rows) and scalar-fallback goertzel rows apart
/// from SIMD rows: such a mismatch must read as a missing row, not a perf
/// delta.
constexpr const char* kIdentityFields[] = {
    "links", "workers", "frames_per_link", "threads",  "n",
    "n_fft", "kernel",  "chirps",          "points",   "rows",
    "bins",  "target",  "tier",            "precision", "grid",
    "fallback", "tags", "population",      "q",        "session",
    "slot_chirps", "n_channels",
};

/// Boolean gates: a true→false flip is always a regression.
constexpr const char* kBoolGates[] = {
    "parity", "bit_identical", "parity_bit_identical", "ok",
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

enum class Direction { kHigherBetter, kLowerBetter, kUngated };

Direction metric_direction(std::string_view name) {
  for (const char* id : kIdentityFields)
    if (name == id) return Direction::kUngated;
  if (name == "frames_per_s" || name == "speedup" ||
      name == "best_valid_speedup" || ends_with(name, "_msamples_per_s") ||
      ends_with(name, "_per_s"))
    return Direction::kHigherBetter;
  if (name == "seconds" || ends_with(name, "_us") || ends_with(name, "_ns") ||
      ends_with(name, "_ms"))
    return Direction::kLowerBetter;
  // Counts, cache stats, hardware_threads, overhead_frac (noise around 0,
  // already gated by the bench itself), …
  return Direction::kUngated;
}

bool is_bool_gate(std::string_view name) {
  for (const char* g : kBoolGates)
    if (name == g) return true;
  return false;
}

struct Regression {
  std::string path;
  double baseline = 0.0;
  double current = 0.0;
  double delta_frac = 0.0;  ///< Signed worsening fraction (positive = worse).
  bool gate = false;        ///< Boolean gate flip rather than a metric move.
};

struct CompareOptions {
  double threshold = 0.30;  ///< Relative worsening tolerated (1-core CI noise).
  /// Self-test knobs: pretend every gated metric of `current` moved worse by
  /// this factor (1.0 = off), and/or force boolean gates of `current` to
  /// false. Exercises the full direction/threshold logic without editing
  /// files on disk.
  double synthetic_worsen = 1.0;
  bool synthetic_gate_flip = false;
};

struct CompareState {
  const CompareOptions& opts;
  std::vector<Regression> regressions;
  std::vector<std::string> notes;  ///< Missing rows/metrics, shape changes.
  int metrics_compared = 0;
  int rows_skipped_invalid = 0;
};

bool row_invalid(const JsonValue& v) {
  return v.is_object() && !v.bool_or("valid", true);
}

void compare_values(const std::string& path, const JsonValue& base,
                    const JsonValue& cur, CompareState& st);

void compare_objects(const std::string& path, const JsonValue& base,
                     const JsonValue& cur, CompareState& st) {
  if (row_invalid(base) || row_invalid(cur)) {
    ++st.rows_skipped_invalid;
    return;
  }
  for (const auto& [key, bval] : base.members()) {
    const JsonValue* cval = cur.find(key);
    const std::string sub = path.empty() ? key : path + "." + key;
    if (cval == nullptr) {
      if (metric_direction(key) != Direction::kUngated || is_bool_gate(key))
        st.notes.push_back("missing in current: " + sub);
      continue;
    }
    compare_values(sub, bval, *cval, st);
  }
}

/// Identity signature of an object row: "links=64|workers=2|…".
std::string row_signature(const JsonValue& row) {
  std::string sig;
  for (const char* id : kIdentityFields) {
    const JsonValue* v = row.find(id);
    if (v == nullptr) continue;
    if (!sig.empty()) sig += '|';
    sig += id;
    sig += '=';
    if (v->is_number()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", v->as_number());
      sig += buf;
    } else if (v->is_string()) {
      sig += v->as_string();
    } else if (v->is_bool()) {
      sig += v->as_bool() ? "true" : "false";
    }
  }
  return sig;
}

void compare_arrays(const std::string& path, const JsonValue& base,
                    const JsonValue& cur, CompareState& st) {
  const auto& ba = base.as_array();
  const auto& ca = cur.as_array();
  if (ba.size() != ca.size())
    st.notes.push_back(path + ": row count changed (" +
                       std::to_string(ba.size()) + " -> " +
                       std::to_string(ca.size()) + ")");
  for (std::size_t i = 0; i < ba.size(); ++i) {
    const JsonValue& brow = ba[i];
    const JsonValue* crow = nullptr;
    std::string label = path + "[" + std::to_string(i) + "]";
    if (brow.is_object()) {
      const std::string sig = row_signature(brow);
      if (!sig.empty()) {
        for (const JsonValue& c : ca) {
          if (c.is_object() && row_signature(c) == sig) {
            crow = &c;
            break;
          }
        }
        label = path + "[" + sig + "]";
        if (crow == nullptr) {
          st.notes.push_back("row missing in current: " + label);
          continue;
        }
      }
    }
    if (crow == nullptr) {
      if (i >= ca.size()) continue;
      crow = &ca[i];
    }
    compare_values(label, brow, *crow, st);
  }
}

void compare_values(const std::string& path, const JsonValue& base,
                    const JsonValue& cur, CompareState& st) {
  if (base.is_object() && cur.is_object()) {
    compare_objects(path, base, cur, st);
    return;
  }
  if (base.is_array() && cur.is_array()) {
    compare_arrays(path, base, cur, st);
    return;
  }
  // Leaf name = the last path segment.
  const std::size_t dot = path.rfind('.');
  const std::string_view name =
      dot == std::string::npos ? std::string_view(path)
                               : std::string_view(path).substr(dot + 1);
  if (base.is_bool() && is_bool_gate(name)) {
    const bool cur_ok =
        st.opts.synthetic_gate_flip ? false : (cur.is_bool() && cur.as_bool());
    if (base.as_bool() && !cur_ok) {
      Regression r;
      r.path = path;
      r.baseline = 1.0;
      r.current = 0.0;
      r.gate = true;
      st.regressions.push_back(r);
    }
    return;
  }
  if (!base.is_number() || !cur.is_number()) return;  // null (NaN) or mixed
  const Direction dir = metric_direction(name);
  if (dir == Direction::kUngated) return;
  const double b = base.as_number();
  double c = cur.as_number();
  if (!(b > 0.0) || !std::isfinite(b) || !std::isfinite(c)) return;
  if (st.opts.synthetic_worsen != 1.0) {
    c = dir == Direction::kLowerBetter ? c * st.opts.synthetic_worsen
                                       : c / st.opts.synthetic_worsen;
  }
  ++st.metrics_compared;
  const double worsening =
      dir == Direction::kLowerBetter ? c / b - 1.0 : 1.0 - c / b;
  if (worsening > st.opts.threshold) {
    Regression r;
    r.path = path;
    r.baseline = b;
    r.current = c;
    r.delta_frac = worsening;
    st.regressions.push_back(r);
  }
}

/// Numbers measured under different SIMD targets or numeric paths are not
/// comparable. The program writes one path ("double_strict"), but the files
/// compared may come from other builds or older commits: when both carry a
/// "host" fingerprint, disagreement on simd_target or precision is a usage
/// error (exit 2), never a perf diff.
bool host_fingerprints_compatible(const JsonValue& base, const JsonValue& cur,
                                  std::string& why) {
  const JsonValue* bh = base.is_object() ? base.find("host") : nullptr;
  const JsonValue* ch = cur.is_object() ? cur.find("host") : nullptr;
  if (bh == nullptr || ch == nullptr) return true;  // legacy file: no check
  for (const char* key : {"simd_target", "precision"}) {
    const JsonValue* bv = bh->find(key);
    const JsonValue* cv = ch->find(key);
    if (bv == nullptr || cv == nullptr || !bv->is_string() || !cv->is_string())
      continue;
    if (bv->as_string() != cv->as_string()) {
      why = std::string("host.") + key + " mismatch: baseline \"" +
            bv->as_string() + "\" vs current \"" + cv->as_string() + "\"";
      return false;
    }
  }
  return true;
}

int run_compare(const std::string& baseline_path,
                const std::string& current_path, const CompareOptions& opts,
                bool quiet) {
  const auto base = bis::json_parse_file(baseline_path);
  if (!base.ok()) {
    std::fprintf(stderr, "bench_compare: baseline parse error: %s\n",
                 base.error.c_str());
    return 2;
  }
  const auto cur = bis::json_parse_file(current_path);
  if (!cur.ok()) {
    std::fprintf(stderr, "bench_compare: current parse error: %s\n",
                 cur.error.c_str());
    return 2;
  }
  std::string host_mismatch;
  if (!host_fingerprints_compatible(base.value, cur.value, host_mismatch)) {
    std::fprintf(stderr,
                 "bench_compare: refusing to compare: %s (rerun the bench "
                 "under the baseline's target/tier or refresh the baseline)\n",
                 host_mismatch.c_str());
    return 2;
  }
  CompareState st{opts, {}, {}, 0, 0};
  compare_values("", base.value, cur.value, st);
  if (!quiet) {
    std::printf("bench_compare: %s vs %s\n", baseline_path.c_str(),
                current_path.c_str());
    std::printf("  %d metrics compared, %d invalid rows skipped, threshold %.0f%%\n",
                st.metrics_compared, st.rows_skipped_invalid,
                opts.threshold * 100.0);
    for (const auto& n : st.notes)
      std::printf("  note: %s\n", n.c_str());
  }
  if (st.regressions.empty()) {
    if (!quiet) std::printf("  OK: no regressions\n");
    return 0;
  }
  std::printf("  REGRESSIONS (%zu):\n", st.regressions.size());
  std::printf("  %-58s %12s %12s %8s\n", "metric", "baseline", "current",
              "worse");
  for (const auto& r : st.regressions) {
    if (r.gate) {
      std::printf("  %-58s %12s %12s %8s\n", r.path.c_str(), "true", "false",
                  "GATE");
    } else {
      std::printf("  %-58s %12.4g %12.4g %7.1f%%\n", r.path.c_str(),
                  r.baseline, r.current, r.delta_frac * 100.0);
    }
  }
  return 1;
}

/// --smoke: each file must parse and every boolean gate it contains must be
/// true (format + parity health check, no perf comparison).
int run_smoke(const std::vector<std::string>& paths) {
  int rc = 0;
  for (const auto& path : paths) {
    const auto doc = bis::json_parse_file(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "bench_compare --smoke: %s\n", doc.error.c_str());
      rc = 1;
      continue;
    }
    // Comparing a document against itself visits every gate; a false gate in
    // the file itself is caught by forcing the synthetic flip on base==true.
    CompareOptions opts;
    CompareState st{opts, {}, {}, 0, 0};
    // Walk for gates: reuse compare with itself — gates true in both pass,
    // gates false in the file never trip (they were false in baseline too),
    // so check them explicitly here.
    struct GateWalk {
      int* rc;
      const std::string* path;
      void walk(const std::string& p, const JsonValue& v) {
        if (v.is_object()) {
          for (const auto& [k, m] : v.members()) {
            const std::string sub = p.empty() ? k : p + "." + k;
            if (m.is_bool() && is_bool_gate(k) && !m.as_bool()) {
              std::fprintf(stderr,
                           "bench_compare --smoke: %s: gate %s is false\n",
                           path->c_str(), sub.c_str());
              *rc = 1;
            }
            walk(sub, m);
          }
        } else if (v.is_array()) {
          if (row_invalid(v)) return;
          std::size_t i = 0;
          for (const auto& item : v.as_array()) {
            if (!row_invalid(item))
              walk(p + "[" + std::to_string(i) + "]", item);
            ++i;
          }
        }
      }
    } walker{&rc, &path};
    walker.walk("", doc.value);
    compare_values("", doc.value, doc.value, st);
    std::printf("bench_compare --smoke: %s parsed, %d gated metrics present\n",
                path.c_str(), st.metrics_compared);
  }
  return rc;
}

/// --self-test: the gate must pass on (file, file) and fail on (file,
/// synthetically perturbed file) and on a gate flip.
int run_self_test(const std::string& path) {
  CompareOptions clean;
  if (run_compare(path, path, clean, /*quiet=*/true) != 0) {
    std::fprintf(stderr, "self-test FAILED: file does not compare clean "
                         "against itself\n");
    return 1;
  }
  CompareOptions worse;
  worse.synthetic_worsen = 2.0;  // 2x worse on every gated metric
  if (run_compare(path, path, worse, /*quiet=*/true) == 0) {
    std::fprintf(stderr, "self-test FAILED: 2x synthetic perturbation not "
                         "detected\n");
    return 1;
  }
  CompareOptions flip;
  flip.synthetic_gate_flip = true;
  if (run_compare(path, path, flip, /*quiet=*/true) == 0) {
    std::fprintf(stderr, "self-test FAILED: boolean gate flip not detected\n");
    return 1;
  }
  std::printf("bench_compare --self-test: OK (%s)\n", path.c_str());
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline FILE --current FILE "
               "[--threshold FRAC] [--quiet]\n"
               "       bench_compare --smoke FILE...\n"
               "       bench_compare --self-test FILE\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline, current, self_test;
  std::vector<std::string> smoke;
  CompareOptions opts;
  bool quiet = false;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline = next();
    } else if (arg == "--current") {
      current = next();
    } else if (arg == "--threshold") {
      opts.threshold = std::atof(next());
    } else if (arg == "--self-test") {
      self_test = next();
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (smoke_mode && !arg.empty() && arg[0] != '-') {
      smoke.emplace_back(arg);
    } else {
      usage();
      return 2;
    }
  }
  if (!self_test.empty()) return run_self_test(self_test);
  if (smoke_mode) {
    if (smoke.empty()) {
      usage();
      return 2;
    }
    return run_smoke(smoke);
  }
  if (baseline.empty() || current.empty()) {
    usage();
    return 2;
  }
  return run_compare(baseline, current, opts, quiet);
}
