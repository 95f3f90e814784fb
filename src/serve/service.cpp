#include "serve/service.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "adf/repository.hpp"
#include "core/outcome.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"
#include "support/sdmc.hpp"
#include "workload/harness.hpp"

namespace saintdroid {

namespace {

ServeResponse rejected(std::string id, std::string reason) {
  ServeResponse response;
  response.id = std::move(id);
  response.status = ServeStatus::kRejected;
  response.reason = std::move(reason);
  return response;
}

ServeResponse answered(std::string id, std::string fingerprint,
                       SuiteAppRow row, bool cached) {
  ServeResponse response;
  response.id = std::move(id);
  response.status =
      row.completed ? ServeStatus::kDone : ServeStatus::kFailed;
  response.fingerprint = std::move(fingerprint);
  response.cached = cached;
  response.row = std::move(row);
  return response;
}

/// A structured failure row for a request that can no longer be analyzed
/// (replayed acceptance whose package vanished). Journaled like any other
/// result so the replay ledger converges instead of replaying forever.
SuiteAppRow unanalyzable_row(const std::string& app,
                             const std::string& message) {
  SuiteAppRow row;
  row.app = app;
  row.completed = false;
  row.failure_reason = message;
  row.failure = AnalysisFailure{FailureKind::kConfig, "serve", message};
  return row;
}

}  // namespace

VetService::VetService(const std::string& statedir, ServeOptions options)
    : paths_(statedir),
      options_(std::move(options)),
      model_(load_model(options_.repository != nullptr
                            ? *options_.repository
                            : FrameworkRepository::standard(),
                        options_.jobs, paths_.model_cache_dir(),
                        options_.database, options_.incr_cache_dir)),
      queue_capacity_(options_.queue_capacity > 0
                          ? options_.queue_capacity
                          : static_cast<std::size_t>(4 * model_.jobs)),
      results_(paths_.results_path()),
      requests_(paths_.requests_path()),
      queue_(queue_capacity_) {
  // One facade per worker, all sharing the immutable database, the
  // repository's substrate, and (when configured) the incremental fact
  // cache — the warm state the daemon exists to reuse. The budget is
  // applied per request.
  analyzers_.reserve(static_cast<std::size_t>(model_.jobs));
  for (int i = 0; i < model_.jobs; ++i)
    analyzers_.push_back(
        std::make_unique<SaintDroid>(model_.repo, model_.db, model_.options));
  replay_pending();
  pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(model_.jobs));
  for (int i = 0; i < model_.jobs; ++i) {
    const auto index = static_cast<std::size_t>(i);
    pool_->submit([this, index] { worker_loop(index); });
  }
}

VetService::~VetService() { shutdown(); }

void VetService::replay_pending() {
  // Every journaled acceptance whose fingerprint has no journaled result
  // was accepted-but-unanswered when the previous process died. Re-enqueue
  // each distinct fingerprint once, bypassing the high-water mark: the
  // acceptance journal is a promise.
  std::unordered_set<std::string> queued;
  for (AcceptedRequest& accepted :
       RequestJournal::load(paths_.requests_path())) {
    if (results_.find(accepted.fingerprint).has_value()) continue;
    if (!queued.insert(accepted.fingerprint).second) continue;
    ServeJob job;
    const auto bytes = read_file_bytes(accepted.apk_path);
    if (!bytes.has_value()) {
      // The package is gone; journal a structured failure so the ledger
      // converges — replay must terminate, not retry forever.
      results_.put(accepted.fingerprint,
                   unanalyzable_row(accepted.app, "replay: cannot read " +
                                                      accepted.apk_path));
      continue;
    }
    try {
      job.apk = Apk::parse(*bytes);
    } catch (const std::exception& error) {
      results_.put(accepted.fingerprint,
                   unanalyzable_row(accepted.app,
                                    std::string{"replay: bad package: "} +
                                        error.what()));
      continue;
    }
    job.accepted = std::move(accepted);
    job.budget = options_.budget;
    // No responder: the client of the dead process is gone; the result
    // lands in the cache for its resubmission.
    {
      const std::lock_guard lock{drain_mutex_};
      ++outstanding_;
    }
    queue_.force_push(std::move(job));
    ++replayed_;
  }
}

void VetService::submit_line(std::string_view line, const Responder& respond) {
  ++received_;
  ServeRequest request;
  try {
    request = parse_serve_request(line);
  } catch (const ParseError& error) {
    ++malformed_;
    respond(rejected("?", std::string{"bad-request: "} + error.what()));
    return;
  }
  submit(request, respond);
}

void VetService::submit(const ServeRequest& request, const Responder& respond) {
  SD_FAULT_POINT("serve.accept");
  if (!accepting_.load(std::memory_order_relaxed)) {
    ++rejected_;
    respond(rejected(request.id, "shutting-down"));
    return;
  }
  const auto bytes = read_file_bytes(request.apk_path);
  if (!bytes.has_value()) {
    ++rejected_;
    respond(rejected(request.id, "bad-package: cannot read " +
                                     request.apk_path));
    return;
  }
  const std::string fingerprint = apk_fingerprint(*bytes);
  if (auto row = results_.find(fingerprint)) {
    ++cache_hits_;
    respond(answered(request.id, fingerprint, std::move(*row), true));
    return;
  }
  ServeJob job;
  try {
    job.apk = Apk::parse(*bytes);
  } catch (const std::exception& error) {
    ++rejected_;
    respond(rejected(request.id,
                     std::string{"bad-package: "} + error.what()));
    return;
  }
  job.accepted = AcceptedRequest{request.id, fingerprint, job.apk.name,
                                 request.apk_path};
  job.budget = options_.budget;
  // A request deadline tightens the server default; it never loosens it.
  if (request.deadline_seconds > 0.0 &&
      (job.budget.deadline_seconds <= 0.0 ||
       request.deadline_seconds < job.budget.deadline_seconds))
    job.budget.deadline_seconds = request.deadline_seconds;
  job.respond = respond;

  // Crash-safety ordering: the acceptance reaches disk before the job can
  // run, so there is no window where a computed result has no acceptance.
  requests_.append(job.accepted);
  SD_FAULT_POINT("serve.enqueue");
  {
    const std::lock_guard lock{drain_mutex_};
    ++outstanding_;
  }
  if (!queue_.try_push(std::move(job))) {
    // The acceptance line of a shed request stays in the journal; a
    // restart may replay it once into a cached result. That costs only
    // work — never a wrong or missing answer — and keeps the ordering
    // above airtight for requests that *are* admitted. Shed is counted by
    // the queue, not in rejected_ — the counters partition the requests.
    finish_one();
    respond(rejected(request.id, "overloaded"));
    return;
  }
  ++accepted_;
}

void VetService::worker_loop(std::size_t worker_index) {
  SaintDroid& tool = *analyzers_[worker_index];
  while (auto job = queue_.pop()) {
    try {
      process(tool, *job);
    } catch (const std::exception& error) {
      // A fault hook or journal write escaped; the request still gets its
      // one response. analyze_app_row itself never throws.
      if (job->respond) {
        try {
          job->respond(rejected(job->accepted.id,
                                std::string{"internal: "} + error.what()));
        } catch (...) {
        }
      }
    }
    finish_one();
  }
}

void VetService::process(SaintDroid& tool, ServeJob& job) {
  AnalysisBudget budget = job.budget;
  budget.cancel = &cancel_;
  tool.set_budget(budget);
  const BenchApp app{std::move(job.apk), GroundTruth{}};
  SuiteAppRow row = analyze_app_row(tool, app);
  // Result before response: a crash after this line is a replay the
  // restarted process answers from cache, never a lost request.
  results_.put(job.accepted.fingerprint, row);
  ++completed_;
  SD_FAULT_POINT("serve.respond");
  if (job.respond)
    job.respond(answered(job.accepted.id, job.accepted.fingerprint,
                         std::move(row), false));
}

void VetService::finish_one() {
  {
    const std::lock_guard lock{drain_mutex_};
    --outstanding_;
  }
  drained_.notify_all();
}

void VetService::drain() {
  std::unique_lock lock{drain_mutex_};
  drained_.wait(lock, [this] { return outstanding_ == 0; });
}

void VetService::shutdown() {
  const std::lock_guard lock{shutdown_mutex_};
  if (stopped_) return;
  accepting_.store(false, std::memory_order_relaxed);
  drain();
  queue_.close();
  pool_.reset();  // joins the workers
  stopped_ = true;
}

void VetService::cancel_in_flight() {
  cancel_.store(true, std::memory_order_relaxed);
}

ServeStats VetService::stats() const {
  ServeStats stats;
  stats.received = received_.load();
  stats.malformed = malformed_.load();
  stats.accepted = accepted_.load();
  stats.shed = queue_.shed_count();
  stats.rejected = rejected_.load();
  stats.cache_hits = cache_hits_.load();
  stats.completed = completed_.load();
  stats.replayed = replayed_.load();
  stats.database_from_cache = model_.db_from_cache;
  return stats;
}

}  // namespace saintdroid
