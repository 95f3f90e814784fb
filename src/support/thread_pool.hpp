// Fixed-size thread pool for corpus-level batch analysis.
//
// The paper's scalability claim (§IV) rests on analyzing thousands of apps
// against one reusable framework model; each app's analysis is independent
// once the ARM database exists, so throughput is a sharding problem. This
// pool is deliberately minimal — a bounded worker set, a FIFO task queue,
// futures for exception propagation, join-on-destruct — because the batch
// engine built on top of it (workload/harness.hpp) owns the sharding
// policy and determinism guarantees. parallel_for is the one
// index-claiming loop for "do this to every input slot" fan-outs (package
// parsing, level warm-up, lease resolution).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace saintdroid {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least one; 0 is clamped to 1).
  explicit ThreadPool(std::size_t workers);

  /// Drains the queue, then joins every worker. Tasks already submitted
  /// run to completion; their futures stay valid.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`. The returned future yields the task's result or
  /// rethrows the exception it exited with. submit() is safe from any
  /// thread, including from inside a running task (reentrant submit).
  /// Once destruction has begun, submit() runs the task inline on the
  /// calling thread (caller-runs) — the future still completes, so a
  /// racing submit can never strand a waiter.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& task) {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> result = packaged->get_future();
    enqueue([packaged] { (*packaged)(); });
    return result;
  }

  std::size_t worker_count() const { return workers_.size(); }

  /// A sensible default worker count for this host (>= 1 even when the
  /// runtime cannot report concurrency).
  static std::size_t default_workers();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [0, count) on up to `workers` threads, the
/// calling thread among them: each worker takes the next index from one
/// atomic counter, so slot-per-index outputs come out in index order
/// whatever the schedule. Every index runs even when others throw; each
/// index keeps its own exception, and after the join the first one in
/// *index* order is rethrown — the error a serial loop would have met
/// first. With workers <= 1 (or count <= 1) the body runs inline on the
/// calling thread, in index order. `body` must be safe to call
/// concurrently for distinct indices.
void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& body);

}  // namespace saintdroid
