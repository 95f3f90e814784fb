#include "workload/harness.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>

#include "adf/repository.hpp"
#include "support/errors.hpp"
#include "support/meter.hpp"
#include "support/thread_pool.hpp"
#include "workload/journal.hpp"

namespace saintdroid {

Score FamilyScores::total() const {
  Score t;
  t += api;
  t += apc;
  t += prm;
  t += sem;
  t += sdc;
  return t;
}

FamilyScores& FamilyScores::operator+=(const FamilyScores& other) {
  api += other.api;
  apc += other.apc;
  prm += other.prm;
  sem += other.sem;
  sdc += other.sdc;
  return *this;
}

SuiteAppRow analyze_app_row(Analyzer& tool, const BenchApp& app) {
  SuiteAppRow row;
  row.app = app.apk.name;
  const AppOutcome outcome = analyze_outcome(tool, app.apk);
  const AnalysisResult& result = outcome.report;
  row.completed = result.completed;
  row.incomplete = result.incomplete;
  row.failure_reason = result.failure_reason;
  row.failure = outcome.failure;
  row.mismatch_count = result.mismatches.size();
  row.usage = result.usage;
  row.incr = result.incremental;
  if (!result.completed) {
    row.scores.api.fn = app.truth.real_count(MismatchKind::kApiInvocation);
    row.scores.apc.fn = app.truth.real_count(MismatchKind::kApiCallback);
    row.scores.prm.fn =
        app.truth.real_count(MismatchKind::kPermissionRequest);
    row.scores.sem.fn = app.truth.real_count(MismatchKind::kSemanticChange);
    row.scores.sdc.fn = app.truth.real_count(MismatchKind::kSdkDeclaration);
  } else {
    row.scores.api = score_detections(app.truth, result.mismatches,
                                      MismatchKind::kApiInvocation);
    row.scores.apc = score_detections(app.truth, result.mismatches,
                                      MismatchKind::kApiCallback);
    row.scores.prm = score_detections(app.truth, result.mismatches,
                                      MismatchKind::kPermissionRequest);
    row.scores.sem = score_detections(app.truth, result.mismatches,
                                      MismatchKind::kSemanticChange);
    row.scores.sdc = score_detections(app.truth, result.mismatches,
                                      MismatchKind::kSdkDeclaration);
  }
  return row;
}

namespace {

/// Folds rows (already in input order) into the suite aggregate — shared
/// by both paths so merge semantics are defined exactly once.
void aggregate_rows(SuiteResult& suite) {
  for (const auto& row : suite.rows) {
    if (!row.completed) ++suite.failures;
    if (row.completed && row.incomplete) ++suite.incomplete;
    suite.aggregate += row.scores;
    suite.incremental += row.incr;
  }
}

/// The row of a slot whose app could not be produced: a structured
/// failure like analyze_outcome's, in the "resolve" phase. No ledger is
/// known for the app, so it scores nothing.
SuiteAppRow resolve_failure_row(const std::string& name,
                                const std::exception& error) {
  SuiteAppRow row;
  row.app = name;
  row.completed = false;
  row.failure_reason = error.what();
  row.failure =
      AnalysisFailure{classify_failure(error), "resolve", error.what()};
  return row;
}

}  // namespace

SuiteResult suite_from_rows(std::string tool, std::vector<SuiteAppRow> rows) {
  SuiteResult suite;
  suite.tool = std::move(tool);
  suite.rows = std::move(rows);
  aggregate_rows(suite);
  return suite;
}

std::vector<BenchApp> shard_slice(std::span<const BenchApp> apps,
                                  int shard_index, int shard_count) {
  if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count)
    throw ConfigError("shard_slice: invalid shard " +
                      std::to_string(shard_index) + "/" +
                      std::to_string(shard_count));
  std::vector<BenchApp> slice;
  slice.reserve(apps.size() / static_cast<std::size_t>(shard_count) + 1);
  for (std::size_t i = static_cast<std::size_t>(shard_index); i < apps.size();
       i += static_cast<std::size_t>(shard_count))
    slice.push_back(apps[i]);
  return slice;
}

std::string corpus_fingerprint(std::span<const BenchApp> apps) {
  std::vector<std::string> names;
  names.reserve(apps.size());
  for (const auto& app : apps) names.push_back(app.apk.name);
  return corpus_fingerprint(names);
}

std::string corpus_fingerprint(std::span<const std::string> names) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  for (const auto& name : names) {
    for (const char c : name) mix(static_cast<unsigned char>(c));
    mix('\n');  // separator: names must not concatenate ambiguously
  }
  static const char* digits = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return hex;
}

WarmupStats warm_target_levels(const FrameworkRepository& repo,
                               std::span<const int> target_levels, int jobs) {
  const Stopwatch watch;
  const std::uint64_t images_before = repo.image_cache_hits();
  const std::uint64_t substrates_before = repo.substrate_cache_hits();
  std::vector<char> wanted(kMaxApiLevel + 1, 0);
  for (const int level : target_levels)
    wanted[static_cast<std::size_t>(FrameworkRepository::clamp_level(level))] =
        1;
  // Newest levels first: they are the largest, so the pool's tail is short.
  std::vector<int> levels;
  for (int level = kMaxApiLevel; level >= kMinApiLevel; --level)
    if (wanted[static_cast<std::size_t>(level)]) levels.push_back(level);

  parallel_for(levels.size(), static_cast<std::size_t>(std::max(jobs, 1)),
               [&](std::size_t i) {
                 try {
                   (void)repo.substrate(levels[i]);
                 } catch (const std::exception&) {
                 }
               });

  WarmupStats stats;
  stats.levels = levels.size();
  stats.image_cache_hits = repo.image_cache_hits() - images_before;
  stats.substrate_cache_hits = repo.substrate_cache_hits() - substrates_before;
  stats.seconds = watch.seconds();
  return stats;
}

SuiteResult run_suite(Analyzer& tool, std::span<const BenchApp> apps) {
  const std::uint64_t retries_before = framework_build_retries();
  SuiteResult suite;
  suite.tool = std::string{tool.name()};
  suite.rows.reserve(apps.size());
  for (const auto& app : apps) suite.rows.push_back(analyze_app_row(tool, app));
  aggregate_rows(suite);
  suite.framework_retries = framework_build_retries() - retries_before;
  return suite;
}

SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const BenchApp> apps, int jobs) {
  SuiteRunOptions options;
  options.jobs = jobs;
  return run_suite_parallel(factory, apps, options);
}

SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const BenchApp> apps,
                               const SuiteRunOptions& options) {
  std::vector<std::string> names;
  names.reserve(apps.size());
  for (const auto& app : apps) names.push_back(app.apk.name);
  // Lend apps[i]: an aliasing pointer with no owner, so nothing is copied
  // and nothing is freed when the harness drops it.
  return run_suite_parallel(
      factory, names,
      [apps](std::size_t i) { return SlotApp{SlotApp{}, &apps[i]}; },
      options);
}

SuiteResult run_suite_parallel(const AnalyzerFactory& factory,
                               std::span<const std::string> names,
                               const SlotResolver& resolve,
                               const SuiteRunOptions& options) {
  const std::size_t n = names.size();
  const std::uint64_t retries_before = framework_build_retries();

  // Resume: journaled rows are merged back verbatim (matched by app name)
  // and their apps are never resolved, re-analyzed or re-journaled.
  std::unordered_map<std::string, SuiteAppRow> journaled;
  if (options.resume && !options.journal_path.empty()) {
    for (auto& row : load_journal(options.journal_path)) {
      std::string key = row.app;
      journaled.insert_or_assign(std::move(key), std::move(row));
    }
  }

  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    JournalHeader header;
    header.corpus = options.corpus_id;
    header.shard_index = options.shard_index;
    header.shard_count = options.shard_count;
    journal = std::make_unique<JournalWriter>(options.journal_path,
                                              options.resume, header);
  }

  SuiteResult suite;
  suite.rows.resize(n);
  std::vector<char> done(n, 0);      // resumed or analyzed
  std::vector<std::size_t> pending;  // slots to analyze, in input order
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = journaled.find(names[i]);
    if (it == journaled.end()) {
      pending.push_back(i);
      continue;
    }
    suite.rows[i] = it->second;
    done[i] = 1;
    ++suite.resumed_rows;
  }

  // Warm shared immutable state (images, substrates) once, on this thread,
  // before any analyzer exists — the fan-out then reads hot caches.
  if (options.warmup) options.warmup();

  // One analyzer per worker, constructed up front on this thread so
  // factory() itself needs no synchronization.
  std::size_t workers =
      options.jobs > 1 ? static_cast<std::size_t>(options.jobs) : 1;
  workers = std::min(workers, std::max<std::size_t>(n, 1));
  std::vector<std::unique_ptr<Analyzer>> tools;
  tools.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) tools.push_back(factory());
  suite.tool = std::string{tools.front()->name()};

  // Each worker claims the next pending slot from one counter until none
  // is left, resolves its app, analyzes it, and drops it once the row is
  // in place: a slow app holds up only its own worker, at most one app
  // per worker is ever live, and each slot is written exactly once by
  // exactly one worker, so rows need no locking and land at their input
  // index regardless of scheduling. `stop` is polled between apps, never
  // mid-analysis, so a stopping run finishes (and journals) every app it
  // started and skips the rest.
  std::atomic<std::size_t> next{0};
  const auto drain = [&](Analyzer& tool) {
    for (;;) {
      if (options.stop && options.stop()) return;
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= pending.size()) return;
      const std::size_t i = pending[k];
      SuiteAppRow& row = suite.rows[i];
      SlotApp app;
      try {
        app = resolve(i);
      } catch (const std::exception& error) {
        row = resolve_failure_row(names[i], error);
      }
      if (app) row = analyze_app_row(tool, *app);
      app.reset();
      if (journal) journal->append(row);
      done[i] = 1;
    }
  };
  // parallel_for runs each worker's drain once, the calling thread among
  // them (inline when there is one worker). Only a harness bug, never an
  // app, can throw here; its exception reaches the caller after the join.
  parallel_for(workers, workers,
               [&](std::size_t w) { drain(*tools[w]); });

  // Skipped slots are dropped from the result: the journal holds exactly
  // the analyzed rows, sealed, and a --resume run picks up the remainder.
  if (options.stop) {
    std::vector<SuiteAppRow> kept;
    kept.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i])
        kept.push_back(std::move(suite.rows[i]));
      else
        ++suite.skipped_rows;
    }
    suite.rows = std::move(kept);
  }
  aggregate_rows(suite);
  suite.framework_retries = framework_build_retries() - retries_before;
  return suite;
}

}  // namespace saintdroid
