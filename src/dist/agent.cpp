#include "dist/agent.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "support/errors.hpp"
#include "support/meter.hpp"
#include "support/thread_pool.hpp"

namespace saintdroid {

namespace {

std::chrono::milliseconds to_ms(double seconds) {
  return std::chrono::milliseconds(
      std::max<long long>(1, static_cast<long long>(seconds * 1000.0)));
}

/// Background heartbeat for one held claim: refreshes the claim file every
/// ttl/3 seconds (floored at 1s) so a healthy-but-slow lease — one monster
/// app — is not reclaimed out from under its owner. Stamps come from the
/// writer's *steady* clock: observers judge liveness by the bytes changing
/// (LeaseMonitor), not by comparing the stamp against their own clock, so
/// an NTP step on either host can neither expire nor immortalize a claim.
/// RAII: the destructor stops the thread even when the analysis throws, so
/// a dying agent stops heartbeating and its claim expires on schedule.
class HeartbeatLoop {
 public:
  HeartbeatLoop(const WorkDir& dir, const ClaimedLease& claim,
                std::uint64_t ttl_seconds)
      : thread_([this, &dir, claim, ttl_seconds] {
          const auto interval =
              std::chrono::seconds(std::max<std::uint64_t>(
                  1, ttl_seconds / 3));
          std::unique_lock lock{mutex_};
          while (!cv_.wait_for(lock, interval, [this] { return stop_; }))
            dir.heartbeat(claim, WorkDir::steady_seconds());
        }) {}

  ~HeartbeatLoop() { stop(); }

  void stop() {
    {
      std::lock_guard lock{mutex_};
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last member: starts only after the state exists
};

}  // namespace

AgentResult run_agent(const WorkDir& dir, const AgentOptions& options) {
  if (options.worker.empty())
    throw ConfigError("run_agent: worker name must not be empty");
  if (!options.resolve)
    throw ConfigError("run_agent: an app resolver is required");
  if (!options.factory)
    throw ConfigError("run_agent: an analyzer factory is required");

  const auto poll = to_ms(options.poll_seconds);

  // The queue may not be published yet — agents are allowed to start
  // before their coordinator. Poll briefly, then fail loudly.
  std::optional<WorkQueue> queue = dir.load_queue();
  const auto queue_deadline =
      std::chrono::steady_clock::now() + to_ms(options.queue_wait_seconds);
  while (!queue.has_value()) {
    if (std::chrono::steady_clock::now() >= queue_deadline)
      throw ConfigError("run_agent: no work queue published in " +
                        dir.root());
    std::this_thread::sleep_for(poll);
    queue = dir.load_queue();
  }

  // Attach the on-disk model cache before the first lease's warmup, so its
  // substrate builds rebind from persisted tables (or persist them for the
  // next process) instead of re-deriving everything per run.
  if (options.repository != nullptr && !options.model_cache_dir.empty())
    options.repository->set_model_cache_dir(options.model_cache_dir);

  AgentResult result;
  result.jobs = options.jobs <= 0
                    ? static_cast<int>(ThreadPool::default_workers())
                    : options.jobs;

  // One staleness observer for the whole agent loop: ttl windows are
  // measured on this agent's steady clock across its idle passes.
  LeaseMonitor monitor{dir};

  for (;;) {
    if (options.max_leases > 0 &&
        result.leases_completed + result.leases_lost >= options.max_leases)
      break;
    if (options.interrupted && options.interrupted()) {
      result.interrupted = true;
      break;
    }

    const std::optional<ClaimedLease> claim =
        dir.claim_next(options.worker, WorkDir::steady_seconds());
    if (!claim.has_value()) {
      // Nothing open. Reclaim what went stale (this is what makes the
      // scheduler survive the coordinator itself dying after publish),
      // then either finish or wait for the agents holding claims.
      result.leases_reclaimed +=
          monitor.reclaim_stale(options.ttl_seconds);
      const WorkDirStatus status = dir.status();
      if (status.finished() || status.total() == 0) break;
      if (status.open == 0) std::this_thread::sleep_for(poll);
      continue;
    }

    const Lease* lease = nullptr;
    for (const auto& candidate : queue->leases)
      if (candidate.id == claim->lease_id) {
        lease = &candidate;
        break;
      }
    if (lease == nullptr) {
      // A lease file with no queue entry cannot assign work; retire it so
      // it stops circulating through claim/reclaim forever.
      dir.complete(*claim);
      continue;
    }

    // Resolve the lease's apps on the lease's own workers, each into its
    // lease-order slot. A failing item throws out of the agent before any
    // analysis or heartbeat — the first failure in lease order, whatever
    // order the workers met them — and the claim is left for TTL reclaim.
    const Stopwatch resolve_watch;
    std::vector<BenchApp> slice(lease->items.size());
    parallel_for(slice.size(), static_cast<std::size_t>(result.jobs),
                 [&](std::size_t i) {
                   slice[i] = options.resolve(queue->items[
                       static_cast<std::size_t>(lease->items[i])]);
                 });
    result.resolve_seconds += resolve_watch.seconds();

    SuiteRunOptions run;
    run.jobs = result.jobs;
    run.journal_path = dir.worker_journal_path(options.worker);
    // Always resume against our own journal: leases append to one file,
    // and a re-claimed lease skips the apps its first execution already
    // journaled instead of re-analyzing them.
    run.resume = true;
    run.corpus_id = queue->corpus;
    run.stop = options.interrupted;
    if (options.warmup) {
      const auto& warmup = options.warmup;
      run.warmup = [&warmup, &slice] {
        warmup(std::span<const BenchApp>{slice});
      };
    }

    HeartbeatLoop heartbeat{dir, *claim, options.ttl_seconds};
    const SuiteResult suite =
        run_suite_parallel(options.factory, slice, run);
    heartbeat.stop();

    result.apps_analyzed += suite.rows.size() - suite.resumed_rows;
    result.rows_resumed += suite.resumed_rows;
    result.framework_retries += suite.framework_retries;
    if (suite.skipped_rows > 0) {
      // Interrupted mid-lease: everything analyzed is journaled and the
      // journal is sealed, but the lease is not done. Leave the claim for
      // the TTL reclaim (or our own restart) and stop cleanly.
      result.interrupted = true;
      break;
    }
    // complete() only after run_suite_parallel returned — every row of the
    // lease is journaled (flushed per row) before the done marker exists.
    if (dir.complete(*claim))
      ++result.leases_completed;
    else
      ++result.leases_lost;
  }

  return result;
}

}  // namespace saintdroid
