#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>

namespace saintdroid {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock{mutex_};
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::unique_lock lock{mutex_};
    if (!stopping_) {
      queue_.push_back(std::move(job));
      lock.unlock();
      wake_.notify_one();
      return;
    }
  }
  // Destruction has begun: workers may already have drained the queue and
  // exited, so a queued task could be orphaned — and its future would
  // never become ready, deadlocking any get(). Caller-runs instead: the
  // packaged_task wrapper captures exceptions into the future, so even a
  // throwing task completes it.
  job();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock{mutex_};
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    // Run outside the lock so tasks may submit() reentrantly. A
    // packaged_task never lets the exception escape here — it is captured
    // into the task's future.
    job();
  }
}

void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> helpers;
  const std::size_t threads = std::min(workers, count);
  if (threads > 1) helpers.reserve(threads - 1);
  try {
    while (helpers.size() + 1 < threads) helpers.emplace_back(drain);
  } catch (const std::system_error&) {
    // No thread to spare: the threads already started and the caller
    // drain the rest.
  }
  drain();
  for (auto& helper : helpers) helper.join();
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
}

std::size_t ThreadPool::default_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace saintdroid
