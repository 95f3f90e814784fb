// Tests for the parallel batch engine: the support thread pool and the
// determinism contract of run_suite_parallel (identical rows to the serial
// harness for any worker count — the property every throughput number in
// BENCH_parallel.json silently depends on), including the parallel warm
// start from a model cache and the streaming form that resolves each app
// on the worker analyzing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "support/errors.hpp"
#include "support/thread_pool.hpp"
#include "workload/benchmarks.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> done;
  {
    ThreadPool pool{4};
    for (int i = 0; i < 100; ++i)
      done.push_back(pool.submit([&ran] { ++ran; }));
    for (auto& f : done) f.get();
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPool, ReturnsTaskValues) {
  ThreadPool pool{2};
  auto a = pool.submit([] { return 7; });
  auto b = pool.submit([] { return std::string{"ok"}; });
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool{2};
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error{"task failed"}; });
  auto good = pool.submit([] { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // One task's failure must not poison the pool.
  EXPECT_EQ(good.get(), 1);
}

TEST(ThreadPool, ReentrantSubmit) {
  // A running task enqueues follow-up work into its own pool; even a
  // single worker must execute it once the outer task returns.
  ThreadPool pool{1};
  std::promise<std::future<int>> inner_slot;
  auto outer = pool.submit([&] {
    inner_slot.set_value(pool.submit([] { return 42; }));
  });
  outer.get();
  EXPECT_EQ(inner_slot.get_future().get().get(), 42);
}

TEST(ThreadPool, JoinOnDestructDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 32; ++i)
      (void)pool.submit([&ran] { ++ran; });
    // No explicit wait: the destructor must drain the queue and join.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ClampsZeroWorkersToOne) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, ThrowingTasksDuringDrainDoNotDeadlockJoin) {
  // Queue far more throwing tasks than workers, then destroy the pool
  // without waiting: the destructor's drain must run every task, capture
  // each exception into its future, and join — never wedge a worker.
  std::vector<std::future<void>> done;
  {
    ThreadPool pool{2};
    for (int i = 0; i < 64; ++i)
      done.push_back(
          pool.submit([] { throw std::runtime_error{"drain boom"}; }));
  }
  for (auto& f : done) EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitRacingShutdownNeverStrandsTheFuture) {
  // A task submits follow-up work while the destructor is (most likely
  // already) stopping the pool. Whichever side of the race the submit
  // lands on — enqueued before the stop, or caller-runs after it — the
  // inner future must complete; a stranded future would deadlock get().
  std::promise<void> entered;
  std::promise<void> release;
  std::future<int> inner;
  std::thread releaser;
  {
    ThreadPool pool{1};
    auto outer = pool.submit([&] {
      entered.set_value();
      release.get_future().wait();
      inner = pool.submit([] { return 5; });
    });
    entered.get_future().wait();
    releaser = std::thread{[&release] {
      // Give ~ThreadPool (running on the test thread after this scope
      // exits) time to set stopping_ so the inner submit exercises the
      // caller-runs path.
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
      release.set_value();
    }};
  }  // ~ThreadPool: stop + join; must not deadlock against the worker
  releaser.join();
  EXPECT_EQ(inner.get(), 5);
}

// --- run_suite_parallel determinism --------------------------------------------

void expect_scores_eq(const Score& a, const Score& b, const char* what) {
  EXPECT_EQ(a.tp, b.tp) << what;
  EXPECT_EQ(a.fp, b.fp) << what;
  EXPECT_EQ(a.fn, b.fn) << what;
}

void expect_family_eq(const FamilyScores& a, const FamilyScores& b) {
  expect_scores_eq(a.api, b.api, "api");
  expect_scores_eq(a.apc, b.apc, "apc");
  expect_scores_eq(a.prm, b.prm, "prm");
}

TEST(RunSuiteParallel, MatchesSerialRowForRowAtAnyJobCount) {
  const auto& repo = FrameworkRepository::standard();
  const auto apps = accuracy_bench(repo);
  ASSERT_FALSE(apps.empty());

  SaintDroid serial_tool{repo};
  const SuiteResult serial = run_suite(serial_tool, apps);

  const auto db = serial_tool.shared_database();
  const AnalyzerFactory factory = [&repo, &db] {
    return std::make_unique<SaintDroid>(repo, db);
  };

  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SuiteResult parallel = run_suite_parallel(factory, apps, jobs);

    EXPECT_EQ(parallel.tool, serial.tool);
    EXPECT_EQ(parallel.failures, serial.failures);
    expect_family_eq(parallel.aggregate, serial.aggregate);

    ASSERT_EQ(parallel.rows.size(), serial.rows.size());
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i));
      const SuiteAppRow& s = serial.rows[i];
      const SuiteAppRow& p = parallel.rows[i];
      EXPECT_EQ(p.app, s.app);  // ordering: rows land at input indexes
      EXPECT_EQ(p.completed, s.completed);
      EXPECT_EQ(p.failure_reason, s.failure_reason);
      expect_family_eq(p.scores, s.scores);
      // Usage is deterministic except wall-clock seconds.
      EXPECT_EQ(p.usage.peak_bytes, s.usage.peak_bytes);
      EXPECT_EQ(p.usage.loaded_classes, s.usage.loaded_classes);
    }
  }
}

std::vector<int> target_levels(std::span<const BenchApp> apps) {
  std::vector<int> levels;
  for (const auto& app : apps) levels.push_back(app.apk.manifest.target_sdk);
  return levels;
}

TEST(RunSuiteParallel, WarmStartJournalsEqualColdAtAnyJobCount) {
  // The batch/work warm start over fresh repositories sharing one model
  // cache: the cold run emits, mines and stores; each warm run parses its
  // images and rebinds its substrates from the cache in a parallel
  // warm-up. Journals must be byte-identical in canonical rows.
  FrameworkConfig cfg;
  cfg.bulk_classes = 400;
  cfg.bulk_packages = 12;
  const std::string dir = ::testing::TempDir() + "parallel_warm_start";
  std::filesystem::remove_all(dir);
  std::vector<BenchApp> apps;
  std::string cold;
  for (const auto& [warm, jobs] :
       {std::pair{false, 1}, std::pair{true, 1}, std::pair{true, 4}}) {
    SCOPED_TRACE(std::string{warm ? "warm" : "cold"} +
                 " jobs=" + std::to_string(jobs));
    const FrameworkRepository repo{cfg};
    if (apps.empty()) apps = accuracy_bench(repo);
    const ModelCache cache{dir};
    const auto db = cache.api_database(repo, jobs);
    cache.attach_substrate_cache(repo);
    WarmupStats warmup;
    SuiteRunOptions options;
    options.jobs = jobs;
    options.journal_path = dir + "/rows-" + std::to_string(warm) + "-" +
                           std::to_string(jobs) + ".jsonl";
    options.warmup = [&] {
      warmup = warm_target_levels(repo, target_levels(apps), jobs);
    };
    (void)run_suite_parallel(
        [&] { return std::make_unique<SaintDroid>(repo, db); }, apps,
        options);

    std::vector<std::string> lines;
    for (const auto& row : load_journal(options.journal_path))
      lines.push_back(canonical_row_bytes(row));
    std::sort(lines.begin(), lines.end());
    std::string rows;
    for (const auto& line : lines) rows += line + "\n";
    ASSERT_EQ(lines.size(), apps.size());
    EXPECT_GT(warmup.levels, 1u);
    if (!warm) {
      cold = rows;
      EXPECT_EQ(warmup.image_cache_hits, 0u);
      continue;
    }
    EXPECT_EQ(rows, cold);
    EXPECT_EQ(warmup.image_cache_hits, warmup.levels);
    EXPECT_EQ(warmup.substrate_cache_hits, warmup.levels);
  }
  std::filesystem::remove_all(dir);
}

TEST(RunSuiteParallel, SharedDatabaseIsNotRemined) {
  const auto& repo = FrameworkRepository::standard();
  SaintDroid a{repo};
  SaintDroid b{repo, a.shared_database()};
  EXPECT_EQ(&a.database(), &b.database());
}

TEST(RunSuiteParallel, EmptySuite) {
  const auto& repo = FrameworkRepository::standard();
  SaintDroid tool{repo};
  const auto db = tool.shared_database();
  const AnalyzerFactory factory = [&repo, &db] {
    return std::make_unique<SaintDroid>(repo, db);
  };
  const SuiteResult suite = run_suite_parallel(factory, {}, 8);
  EXPECT_TRUE(suite.rows.empty());
  EXPECT_EQ(suite.failures, 0);
}

// --- the streaming form ----------------------------------------------------------

/// The accuracy bench with one shared database, a factory over it, the
/// slot names, and the span form's rows as the reference — built once.
class StreamingSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    apps_ = new std::vector<BenchApp>(accuracy_bench(repo));
    names_ = new std::vector<std::string>;
    for (const auto& app : *apps_) names_->push_back(app.apk.name);
    db_ = new std::shared_ptr<const ApiDatabase>(
        SaintDroid{repo}.shared_database());
    reference_ = new SuiteResult{run_suite_parallel(factory(), *apps_, 1)};
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete names_;
    delete apps_;
  }

  static AnalyzerFactory factory() {
    return [] {
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_);
    };
  }

  /// A resolver that hands over an owned copy of app i, as a streaming
  /// caller hands over an app it just parsed.
  static SlotResolver owning() {
    return [](std::size_t i) {
      return std::make_shared<const BenchApp>((*apps_)[i]);
    };
  }

  static std::string journal(const std::string& name) {
    const std::string path = ::testing::TempDir() + "streaming_" + name +
                             ".jsonl";
    std::filesystem::remove(path);
    return path;
  }

  /// A journal's rows as sorted canonical bytes: the journal is in
  /// completion order, which varies with the schedule.
  static std::vector<std::string> canonical_journal(const std::string& path) {
    std::vector<std::string> lines;
    for (const auto& row : load_journal(path))
      lines.push_back(canonical_row_bytes(row));
    std::sort(lines.begin(), lines.end());
    return lines;
  }

  static std::vector<std::string> canonical_rows(const SuiteResult& suite) {
    std::vector<std::string> rows;
    for (const auto& row : suite.rows) rows.push_back(canonical_row_bytes(row));
    return rows;
  }

  static void expect_suites_eq(const SuiteResult& a, const SuiteResult& b) {
    EXPECT_EQ(a.tool, b.tool);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.incomplete, b.incomplete);
    expect_family_eq(a.aggregate, b.aggregate);
    EXPECT_EQ(canonical_rows(a), canonical_rows(b));
  }

  static std::vector<BenchApp>* apps_;
  static std::vector<std::string>* names_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static SuiteResult* reference_;
};

std::vector<BenchApp>* StreamingSuite::apps_ = nullptr;
std::vector<std::string>* StreamingSuite::names_ = nullptr;
std::shared_ptr<const ApiDatabase>* StreamingSuite::db_ = nullptr;
SuiteResult* StreamingSuite::reference_ = nullptr;

TEST_F(StreamingSuite, EqualsSpanFormIncludingStopAndResume) {
  ASSERT_GT(apps_->size(), 8u);
  const std::size_t half = apps_->size() / 2;
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::vector<std::vector<std::string>> journals;
    for (const bool streaming : {false, true}) {
      SCOPED_TRACE(streaming ? "streaming" : "span");
      const auto run = [&](const SuiteRunOptions& options) {
        return streaming ? run_suite_parallel(factory(), *names_, owning(),
                                              options)
                         : run_suite_parallel(factory(), *apps_, options);
      };
      const std::string tag =
          std::to_string(jobs) + (streaming ? "_stream" : "_span");

      SuiteRunOptions whole;
      whole.jobs = jobs;
      whole.journal_path = journal("whole_" + tag);
      const SuiteResult full = run(whole);
      expect_suites_eq(full, *reference_);
      journals.push_back(canonical_journal(whole.journal_path));

      // Stopped after about half the apps were started, then resumed: the
      // stopped run journals exactly the rows it analyzed, and the resumed
      // run completes to the uninterrupted result and journal.
      SuiteRunOptions stopped;
      stopped.jobs = jobs;
      stopped.journal_path = journal("stopped_" + tag);
      std::atomic<std::size_t> polls{0};
      stopped.stop = [&polls, half] { return polls++ >= half; };
      const SuiteResult cut = run(stopped);
      EXPECT_GT(cut.skipped_rows, 0u);
      EXPECT_EQ(cut.rows.size() + cut.skipped_rows, apps_->size());
      EXPECT_EQ(load_journal(stopped.journal_path).size(), cut.rows.size());

      SuiteRunOptions resumed = stopped;
      resumed.stop = nullptr;
      resumed.resume = true;
      const SuiteResult rest = run(resumed);
      EXPECT_EQ(rest.resumed_rows, cut.rows.size());
      expect_suites_eq(rest, *reference_);
      journals.push_back(canonical_journal(resumed.journal_path));
    }
    ASSERT_EQ(journals.size(), 4u);
    for (const auto& lines : journals) EXPECT_EQ(lines, journals.front());
  }
}

TEST_F(StreamingSuite, ResolvesEachAnalyzedSlotOnceAndNoOther) {
  const std::size_t n = apps_->size();
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    // The first third is journaled by an earlier run.
    SuiteRunOptions head_run;
    head_run.jobs = jobs;
    head_run.journal_path = journal("once_" + std::to_string(jobs));
    const std::vector<BenchApp> head(apps_->begin(),
                                     apps_->begin() + n / 3);
    (void)run_suite_parallel(factory(), head, head_run);

    // The resumed run stops after about two thirds were started.
    std::vector<std::atomic<int>> calls(n);
    SuiteRunOptions options = head_run;
    options.resume = true;
    std::atomic<std::size_t> polls{0};
    options.stop = [&polls, n] { return polls++ >= n / 3; };
    const SlotResolver copy = owning();
    const SuiteResult suite = run_suite_parallel(
        factory(), *names_,
        [&](std::size_t i) {
          ++calls[i];
          return copy(i);
        },
        options);

    EXPECT_EQ(suite.resumed_rows, head.size());
    EXPECT_GT(suite.skipped_rows, 0u);
    std::set<std::string> present;
    for (const auto& row : suite.rows) present.insert(row.app);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("slot " + std::to_string(i));
      const int expected =
          i >= head.size() && present.count((*names_)[i]) != 0 ? 1 : 0;
      EXPECT_EQ(calls[i].load(), expected);
      total += static_cast<std::size_t>(calls[i].load());
    }
    EXPECT_EQ(total, suite.rows.size() - suite.resumed_rows);
  }
}

TEST_F(StreamingSuite, NeverMoreAppsLiveThanJobs) {
  // An app counts as live from its resolve until the harness drops it,
  // which is once its analysis returned.
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    const SlotResolver counted = [&](std::size_t i) {
      const int now = ++live;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      return SlotApp{new BenchApp((*apps_)[i]), [&live](const BenchApp* app) {
                       --live;
                       delete app;
                     }};
    };
    SuiteRunOptions options;
    options.jobs = jobs;
    const SuiteResult suite =
        run_suite_parallel(factory(), *names_, counted, options);
    expect_suites_eq(suite, *reference_);
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), jobs);
    EXPECT_EQ(live.load(), 0);
  }
}

TEST_F(StreamingSuite, ThrowingResolverFailsOnlyItsSlot) {
  const std::size_t bad = 3;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    SuiteRunOptions options;
    options.jobs = jobs;
    options.journal_path = journal("throwing_" + std::to_string(jobs));
    const SlotResolver copy = owning();
    const SuiteResult suite = run_suite_parallel(
        factory(), *names_,
        [&](std::size_t i) {
          if (i == bad) throw ParseError("truncated package");
          return copy(i);
        },
        options);

    ASSERT_EQ(suite.rows.size(), reference_->rows.size());
    const SuiteAppRow& failed = suite.rows[bad];
    EXPECT_EQ(failed.app, (*names_)[bad]);
    EXPECT_FALSE(failed.completed);
    ASSERT_TRUE(failed.failure.has_value());
    EXPECT_EQ(failed.failure->kind, FailureKind::kParse);
    EXPECT_EQ(failed.failure->phase, "resolve");
    EXPECT_NE(failed.failure->message.find("truncated package"),
              std::string::npos);
    EXPECT_EQ(suite.failures, reference_->failures + 1);
    for (std::size_t i = 0; i < suite.rows.size(); ++i) {
      if (i == bad) continue;
      SCOPED_TRACE("row " + std::to_string(i));
      EXPECT_EQ(canonical_row_bytes(suite.rows[i]),
                canonical_row_bytes(reference_->rows[i]));
    }
    // The failure row is journaled like any other.
    const auto journaled = load_journal(options.journal_path);
    EXPECT_EQ(journaled.size(), suite.rows.size());
    EXPECT_EQ(std::count_if(journaled.begin(), journaled.end(),
                            [](const SuiteAppRow& row) {
                              return row.failure.has_value() &&
                                     row.failure->phase == "resolve";
                            }),
              1);
  }
}

}  // namespace
}  // namespace saintdroid
