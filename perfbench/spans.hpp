#pragma once

/// @file spans.hpp
/// In-memory spans for the benchmark's traced runs. The benchmark opens a
/// span around each call it makes into a layer's public functions; the
/// spans stay in memory while the workload runs and are written out when it
/// ends. A layer's self time is its span's duration minus the part of that
/// interval its child spans cover.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  ///< Since the tracer was created.
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< Index of the enclosing span; -1 = root.
  std::uint64_t request = 0;   ///< Spans of one request share this id.
};

/// Self time of every span, index for index: its duration minus the length
/// of the union of its children's intervals clipped to its own (children
/// that ran in parallel may overlap each other).
inline std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t a = std::max(s.start_ns, p.start_ns);
    const std::uint64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns : 0;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

/// Self time of every call, grouped by span name, in ns.
inline std::map<std::string, std::vector<double>> self_times_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name].push_back(static_cast<double>(self[i]));
  return out;
}

/// Records spans from any thread into one list, in the order they open.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t begin(std::string name, std::uint64_t request,
                     std::int64_t parent) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for its scope; does nothing when @p tracer is null, so the
/// untraced runs pay one branch per call site. The parent defaults to the
/// innermost span open on the same thread; work fanned out to other threads
/// names its parent explicitly.
class ScopedSpan {
 public:
  static constexpr std::int64_t kInnermost = -2;

  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t request = 0,
             std::int64_t parent = kInnermost)
      : tracer_(tracer), prev_(innermost()) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->begin(std::move(name), request,
                         parent == kInnermost ? prev_ : parent);
    innermost() = id_;
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    tracer_->end(id_);
    innermost() = prev_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  static std::int64_t& innermost() {
    thread_local std::int64_t id = -1;
    return id;
  }

  Tracer* tracer_;
  std::int64_t prev_;
  std::int64_t id_ = -1;
};

}  // namespace perfbench
