#include "workload/harness.hpp"

#include <algorithm>
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
                               std::span<const BenchApp> apps, int jobs) {
  const Stopwatch watch;
  const std::uint64_t images_before = repo.image_cache_hits();
  const std::uint64_t substrates_before = repo.substrate_cache_hits();
  std::vector<char> wanted(kMaxApiLevel + 1, 0);
  for (const auto& app : apps)
    wanted[static_cast<std::size_t>(
        FrameworkRepository::clamp_level(app.apk.manifest.target_sdk))] = 1;
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
  const std::size_t n = apps.size();
  const std::uint64_t retries_before = framework_build_retries();
  int jobs = options.jobs;
  if (jobs > static_cast<int>(n)) jobs = static_cast<int>(n);

  // Resume: journaled rows are merged back verbatim (matched by app name)
  // and their apps are never re-analyzed or re-journaled.
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
  std::vector<char> resumed(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = journaled.find(apps[i].apk.name);
    if (it == journaled.end()) continue;
    suite.rows[i] = it->second;
    resumed[i] = 1;
    ++suite.resumed_rows;
  }

  // Warm shared immutable state (images, substrates) once, on this thread,
  // before any analyzer exists — the fan-out then reads hot caches.
  if (options.warmup) options.warmup();

  // Graceful shutdown: `stop` is polled between apps, never mid-analysis,
  // so a stopping run finishes (and journals) every app it started and
  // skips the rest. Skipped slots are dropped from the result afterwards —
  // the journal holds exactly the analyzed rows, sealed, and a --resume
  // run picks up the remainder.
  std::vector<char> analyzed(n, 0);
  const auto stopping = [&options] {
    return options.stop && options.stop();
  };
  const auto drop_skipped = [&] {
    if (!options.stop) return;
    std::vector<SuiteAppRow> kept;
    kept.reserve(suite.rows.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (resumed[i] || analyzed[i])
        kept.push_back(std::move(suite.rows[i]));
      else
        ++suite.skipped_rows;
    }
    suite.rows = std::move(kept);
  };

  const auto process = [&](Analyzer& tool, std::size_t i) {
    suite.rows[i] = analyze_app_row(tool, apps[i]);
    if (journal) journal->append(suite.rows[i]);
    analyzed[i] = 1;
  };

  if (jobs <= 1) {
    const std::unique_ptr<Analyzer> tool = factory();
    suite.tool = std::string{tool->name()};
    for (std::size_t i = 0; i < n; ++i) {
      if (resumed[i]) continue;
      if (stopping()) break;
      process(*tool, i);
    }
    drop_skipped();
    aggregate_rows(suite);
    suite.framework_retries = framework_build_retries() - retries_before;
    return suite;
  }

  // One analyzer per worker, constructed up front on this thread so
  // factory() itself needs no synchronization. Worker w owns the
  // interleaved slots {w, w + jobs, ...}: interleaving balances the
  // long-tailed app-size distribution better than contiguous blocks, and
  // each slot is written exactly once by exactly one worker, so rows need
  // no locking and land at their input index regardless of scheduling.
  std::vector<std::unique_ptr<Analyzer>> tools;
  tools.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) tools.push_back(factory());
  suite.tool = std::string{tools.front()->name()};

  {
    ThreadPool pool{static_cast<std::size_t>(jobs)};
    std::vector<std::future<void>> done;
    done.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      done.push_back(pool.submit([&, w] {
        Analyzer& tool = *tools[static_cast<std::size_t>(w)];
        for (std::size_t i = static_cast<std::size_t>(w); i < n;
             i += static_cast<std::size_t>(jobs)) {
          if (resumed[i]) continue;
          if (stopping()) break;
          process(tool, i);
        }
      }));
    }
    // get() (not just wait) so a worker's exception propagates to the
    // caller instead of being swallowed. With the analyze_outcome boundary
    // in score_app, only harness bugs — not app analyses — can throw here.
    for (auto& f : done) f.get();
  }

  drop_skipped();
  aggregate_rows(suite);
  suite.framework_retries = framework_build_retries() - retries_before;
  return suite;
}

}  // namespace saintdroid
