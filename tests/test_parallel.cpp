// Tests for the parallel batch engine: the support thread pool and the
// determinism contract of run_suite_parallel (identical rows to the serial
// harness for any worker count — the property every throughput number in
// BENCH_parallel.json silently depends on), including the parallel warm
// start from a model cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
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
    options.warmup = [&] { warmup = warm_target_levels(repo, apps, jobs); };
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

}  // namespace
}  // namespace saintdroid
