#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis {
namespace {

/// Set while a pool worker (or a caller draining a parallel_for) is inside
/// user code, so nested parallel_for calls degrade to inline execution
/// instead of deadlocking on the pool's own queue.
thread_local bool t_in_parallel_region = false;

struct ForState {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> pending{0};  ///< Drain tasks not yet finished.
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  ///< First exception, under mu.
  bool rejected = false;     ///< Enqueue refused (pool stopped); run inline.

  void drain() {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t i0 = next.fetch_add(grain);
      if (i0 >= end) break;
      const std::size_t i1 = std::min(end, i0 + grain);
      try {
        for (std::size_t i = i0; i < i1; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        // Poison the counter so remaining chunks are skipped quickly.
        next.store(end);
      }
    }
    t_in_parallel_region = false;
  }

  void finish_one() {
    if (pending.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  BIS_CHECK(n_threads >= 1);
  workers_.reserve(n_threads - 1);
  for (std::size_t i = 0; i + 1 < n_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // already shut down
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1 || t_in_parallel_region) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  BIS_TRACE_SPAN("pool.parallel_for");
  auto state = std::make_shared<ForState>();
  state->next.store(begin);
  state->end = end;
  state->fn = &fn;
  // Small chunks keep the lanes balanced when per-item cost varies (range
  // bins near clutter cost more); floor of 1 keeps tiny loops correct.
  state->grain = std::max<std::size_t>(1, n / (4 * size()));

  // Telemetry: queue depth at enqueue, plus per-task dispatch latency
  // (enqueue → a worker starts draining). Latched once per parallel_for so
  // the disabled cost stays one relaxed load.
  const bool telemetry = obs::enabled();
  const std::uint64_t enqueue_ns = telemetry ? obs::now_ns() : 0;

  const std::size_t n_tasks = std::min(workers_.size(), n - 1);
  state->pending.store(n_tasks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // The pool is shutting down (or already shut down): the workers either
      // have exited or will exit without draining new work, so a task
      // enqueued now would never run and the drain below would hang. Reject
      // the enqueue deterministically and run the whole loop inline instead
      // (outside the lock — fn may re-enter the pool).
      state->rejected = true;
    } else {
      for (std::size_t t = 0; t < n_tasks; ++t)
        tasks_.emplace_back([state, telemetry, enqueue_ns] {
          if (telemetry) {
            static obs::LatencyHistogram& latency =
                obs::Registry::instance().latency("bis.pool.task_latency_ns");
            static obs::Counter& executed =
                obs::Registry::instance().counter("bis.pool.tasks_executed");
            latency.record(obs::now_ns() - enqueue_ns);
            executed.add();
          }
          state->drain();
          state->finish_one();
        });
      if (telemetry) {
        static obs::Gauge& depth =
            obs::Registry::instance().gauge("bis.pool.queue_depth");
        depth.set(static_cast<double>(tasks_.size()));
      }
    }
  }
  if (state->rejected) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  work_cv_.notify_all();

  state->drain();  // the caller is a lane too
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->pending.load() == 0; });
    if (state->error) std::rethrow_exception(state->error);
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace bis
