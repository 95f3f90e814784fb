// VetService — the long-lived vetting engine behind `saintdroid serve`.
//
// One construction pays every startup cost exactly once — framework
// repository, shared substrate, the mined ApiDatabase (through the state
// directory's ModelCache, so a warm process skips mining entirely) — and
// then vets APKs on demand, one admission-controlled request at a time:
//
//   submit -> fingerprint -> result-cache hit?  -> answer, free
//                         -> journal acceptance -> bounded queue -> worker
//   worker -> per-request budget (deadline + cancel) -> analyze_app_row
//          -> journal result -> respond
//
// Robustness properties, each with a test in tests/test_serve.cpp:
//
//   * Admission control: the queue's high-water mark turns overload into a
//     structured `rejected: overloaded` response — the service keeps
//     answering at any offered load and can never wedge on its backlog.
//   * Crash safety: the acceptance journal flushes before enqueue, the
//     result journal flushes before respond; a kill -9 at any point leaves
//     every accepted-but-unanswered request replayable on restart.
//   * Degradation, not death: per-request deadlines and cancellation ride
//     the AnalysisBudget — an over-budget analysis degrades to a flagged
//     partial report (flat-scan fallback), never a hung worker.
//   * Determinism: responses carry the same schema-2 rows as a batch run —
//     canonical_row_bytes of a served row is byte-identical to batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "serve/codec.hpp"
#include "serve/queue.hpp"
#include "serve/state.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"

namespace saintdroid {

struct ServeOptions {
  /// Analysis workers; <= 0 means ThreadPool::default_workers().
  int jobs = 0;
  /// Admission-queue high-water mark; 0 means 4 * jobs.
  std::size_t queue_capacity = 0;
  /// Server-default per-request budget. A request's own deadline tightens
  /// (never loosens) this budget's deadline.
  AnalysisBudget budget;
  /// Pre-mined database to share (tests, benches); null = load through the
  /// state directory's model cache, mining on a cold start.
  std::shared_ptr<const ApiDatabase> database;
  /// Framework to vet against; null = FrameworkRepository::standard().
  const FrameworkRepository* repository = nullptr;
  /// Per-app incremental fact cache directory (core/incr_cache.hpp) shared
  /// by every worker facade: resubmitting an updated package re-analyzes
  /// only its dirty classes. Empty = no incremental layer. Part of the
  /// daemon's warm state — it survives across requests and restarts.
  std::string incr_cache_dir;
};

/// Monotonic service counters (snapshot; see VetService::stats).
struct ServeStats {
  std::uint64_t received = 0;    ///< submit_line calls
  std::uint64_t malformed = 0;   ///< rejected: bad-request
  std::uint64_t accepted = 0;    ///< journaled and enqueued
  std::uint64_t shed = 0;        ///< rejected: overloaded
  std::uint64_t rejected = 0;    ///< other rejections (bad-package, ...)
  std::uint64_t cache_hits = 0;  ///< answered from the result cache
  std::uint64_t completed = 0;   ///< analyses finished (done or failed)
  std::uint64_t replayed = 0;    ///< jobs re-enqueued from the journal
  bool database_from_cache = false;
};

class VetService {
 public:
  /// The response sink for one request. Invoked exactly once per submit
  /// (synchronously for rejections and cache hits, from a worker thread
  /// otherwise); must be thread-safe against other requests' responders.
  using Responder = std::function<void(const ServeResponse&)>;

  /// Opens (creating if needed) `statedir`, loads the model through its
  /// cache, replays accepted-but-unanswered journal entries, and starts
  /// the worker pool. Throws ConfigError on an unusable state directory.
  VetService(const std::string& statedir, ServeOptions options = {});

  /// Drains and joins; equivalent to shutdown().
  ~VetService();

  VetService(const VetService&) = delete;
  VetService& operator=(const VetService&) = delete;

  /// Handles one raw request line: a parse defect is answered as
  /// `rejected: bad-request` (id "?" when none could be read), anything
  /// else goes through submit(). Never throws on malformed input.
  void submit_line(std::string_view line, const Responder& respond);

  /// Handles one parsed request. Responds synchronously for rejections
  /// (overloaded, shutting-down, unreadable/unparseable package) and
  /// cache hits; otherwise journals the acceptance, enqueues, and the
  /// worker responds later.
  void submit(const ServeRequest& request, const Responder& respond);

  /// Blocks until every accepted job has been answered.
  void drain();

  /// Stops accepting (submit answers `rejected: shutting-down`), drains
  /// the backlog, and joins the workers. Idempotent.
  void shutdown();

  /// Flips every in-flight analysis budget to cancelled: running analyses
  /// degrade to partial reports (reason "cancelled") at their next budget
  /// probe. The fast half of a hurried shutdown.
  void cancel_in_flight();

  ServeStats stats() const;
  const StatePaths& paths() const { return paths_; }
  int jobs() const { return model_.jobs; }
  std::size_t queue_capacity() const { return queue_capacity_; }

 private:
  void replay_pending();
  void worker_loop(std::size_t worker_index);
  void process(SaintDroid& tool, ServeJob& job);
  void finish_one();

  StatePaths paths_;
  ServeOptions options_;
  /// The state directory's model cache attached, the database injected
  /// (ServeOptions::database) or loaded through that cache.
  AnalysisModel model_;
  std::size_t queue_capacity_ = 4;
  std::vector<std::unique_ptr<SaintDroid>> analyzers_;
  ResultCache results_;
  RequestJournal requests_;
  AdmissionQueue queue_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> cancel_{false};
  bool stopped_ = false;
  std::mutex shutdown_mutex_;  ///< serializes shutdown() callers

  // Outstanding = accepted jobs not yet answered; drain() waits on it.
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::size_t outstanding_ = 0;

  // Counters behind stats().
  std::atomic<std::uint64_t> received_{0}, malformed_{0}, accepted_{0},
      rejected_{0}, cache_hits_{0}, completed_{0}, replayed_{0};

  // Last member: workers must join before anything above is destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace saintdroid
