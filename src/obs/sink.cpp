#include "obs/sink.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {

namespace {

TelemetrySink*& global_slot() {
  static TelemetrySink* sink = nullptr;
  return sink;
}

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

TelemetrySink::TelemetrySink(TelemetrySinkOptions options)
    : options_(std::move(options)), start_ns_(now_ns()) {
  set_enabled(true);
  if (!options_.jsonl_path.empty()) {
    jsonl_.open(options_.jsonl_path, std::ios::out | std::ios::trunc);
  }
  if (options_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ >= 0) {
      int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(listen_fd_, 8) == 0) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0) {
          port_ = static_cast<int>(ntohs(bound.sin_port));
        }
      }
      if (port_ < 0) {
        // Bind/listen failed (port taken, sandboxed environment, …): the
        // endpoint degrades to off rather than killing the run.
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }
  }
  sampler_ = std::thread([this] { sampler_main(); });
  if (listen_fd_ >= 0) listener_ = std::thread([this] { listener_main(); });
}

TelemetrySink::~TelemetrySink() { stop(); }

std::string TelemetrySink::build_jsonl_line() const {
  std::ostringstream oss;
  oss << "{\"t_ms\": " << uptime_ms() << ", \"metrics\": ";
  Registry::instance().write_json(oss, /*pretty=*/false);
  oss << "}";
  return oss.str();
}

std::string TelemetrySink::build_prometheus() const {
  std::ostringstream oss;
  oss << "# TYPE bis_telemetry_uptime_ms gauge\n"
      << "bis_telemetry_uptime_ms " << uptime_ms() << "\n";
  Registry::instance().write_prometheus(oss);
  return oss.str();
}

void TelemetrySink::write_prom_snapshot() {
  if (options_.prom_path.empty()) return;
  // Built outside any file lock, then rewritten whole: a reader sees either
  // the previous snapshot or this one, never a torn mix of metric families.
  const std::string text = build_prometheus();
  std::ofstream out(options_.prom_path, std::ios::out | std::ios::trunc);
  out << text;
}

void TelemetrySink::sample_now() {
  if (jsonl_.is_open()) {
    const std::string line = build_jsonl_line();
    std::lock_guard<std::mutex> lock(mu_);
    jsonl_ << line << "\n";
    jsonl_.flush();
  }
  write_prom_snapshot();
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetrySink::sampler_main() {
  // Chunked sleep instead of a cv: stop() latency stays under ~10 ms without
  // the sampler ever holding mu_ while parked.
  const auto chunk = std::chrono::milliseconds(10);
  auto next = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(options_.interval_ms);
  while (!stop_.load(std::memory_order_acquire)) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next) {
      sample_now();
      next = now + std::chrono::milliseconds(options_.interval_ms);
      continue;
    }
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        chunk, next - now));
  }
}

void TelemetrySink::listener_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // Drain whatever request line arrived; any GET gets the metrics page.
    char buf[1024];
    (void)::recv(client, buf, sizeof(buf), 0);
    const std::string body = build_prometheus();
    std::ostringstream oss;
    oss << "HTTP/1.1 200 OK\r\n"
        << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << body;
    const std::string resp = oss.str();
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n =
          ::send(client, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

void TelemetrySink::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  if (sampler_.joinable()) sampler_.join();
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  sample_now();  // Final snapshot so short runs export at least one sample.
  if (jsonl_.is_open()) jsonl_.close();
  stopped_ = true;
}

TelemetrySink* TelemetrySink::ensure_global(
    const TelemetrySinkOptions& options) {
  std::lock_guard<std::mutex> lock(global_mu());
  TelemetrySink*& slot = global_slot();
  if (slot != nullptr) return slot;
  if (!options.any()) return nullptr;
  slot = new TelemetrySink(options);
  // Leaked deliberately (process-lifetime singleton); atexit flushes it.
  std::atexit([] {
    std::lock_guard<std::mutex> guard(global_mu());
    if (global_slot() != nullptr) global_slot()->stop();
  });
  return slot;
}

}  // namespace bis::obs
