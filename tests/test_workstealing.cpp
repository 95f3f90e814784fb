// Differential and protocol tests for the dynamic work-stealing scheduler.
//
// The load-bearing property extends the shard differential: over a skewed
// 200-app corpus, {one process} ≡ {static shards, journals merged} ≡
// {work-stealing: coordinator + N racing agents} — byte-identically, in
// the canonical currency (rows sorted by app name, journal_line
// serialization, wall-clock seconds zeroed), across workers ∈ {1, 3, 7}
// and jobs ∈ {1, 2, 8}, including a worker killed mid-lease whose lease is
// reclaimed, reissued and re-analyzed. Around that sit the protocol unit
// tests: lease planning (largest-cost-first), rename-atomic claiming under
// a thread race (every lease claimed exactly once — the TSan leg's prey),
// TTL/corrupt-claim reclamation, publish idempotence, the
// collect()-side lease accounting, the item-based plan a summary-only
// coordinator publishes, pooled lease resolution with its first-failure
// rule, and the parallel_for helper both rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "dist/lease.hpp"
#include "dist/workdir.hpp"
#include "support/errors.hpp"
#include "support/sdmc.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string root = ::testing::TempDir() + name;
  std::filesystem::remove_all(root);
  return root;
}

/// The byte-identity currency shared with the shard differential tests.
std::string sorted_canonical(std::span<const SuiteAppRow> rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& row : rows) lines.push_back(canonical_row_bytes(row));
  std::sort(lines.begin(), lines.end());
  std::string bytes;
  for (const auto& line : lines) {
    bytes += line;
    bytes += '\n';
  }
  return bytes;
}

std::vector<WorkItem> named_items(
    std::initializer_list<std::pair<const char*, std::uint64_t>> items) {
  std::vector<WorkItem> out;
  for (const auto& [name, cost] : items) {
    WorkItem item;
    item.name = name;
    item.cost = cost;
    out.push_back(std::move(item));
  }
  return out;
}

// --- the index-claiming helper -------------------------------------------------

TEST(ParallelFor, RunsEveryIndexOnceAndRethrowsTheFirstErrorInIndexOrder) {
  // Index 10 fails late, index 50 fails at once: whichever worker meets
  // its failure first, the caller sees index 10's — the serial answer —
  // and every other index still ran.
  for (const std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<std::atomic<int>> runs(64);
    try {
      parallel_for(runs.size(), workers, [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 10) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          throw Error("index 10");
        }
        if (i == 50) throw Error("index 50");
      });
      ADD_FAILURE() << "parallel_for swallowed the errors";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "index 10");
    }
    for (const auto& count : runs) EXPECT_EQ(count.load(), 1);
  }
}

TEST(ParallelFor, RunsInlineInIndexOrderAtOneWorker) {
  for (const std::size_t workers : {0u, 1u}) {
    std::vector<std::size_t> order;
    std::vector<std::thread::id> threads;
    EXPECT_THROW(parallel_for(5, workers,
                              [&](std::size_t i) {
                                order.push_back(i);
                                threads.push_back(std::this_thread::get_id());
                                if (i == 1 || i == 3)
                                  throw Error("index " + std::to_string(i));
                              }),
                 Error);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    for (const auto& id : threads) EXPECT_EQ(id, std::this_thread::get_id());
  }
  bool ran = false;
  parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// --- lease planning ------------------------------------------------------------

TEST(PlanLeases, LargestCostFirstChunking) {
  const auto items = named_items(
      {{"small", 2}, {"huge", 90}, {"mid", 10}, {"big", 40}, {"tiny", 1}});
  const auto leases = plan_leases(items, 2);
  ASSERT_EQ(leases.size(), 3u);
  // Sorted by descending cost: huge(1), big(3), mid(2), small(0), tiny(4).
  EXPECT_EQ(leases[0].items, (std::vector<int>{1, 3}));
  EXPECT_EQ(leases[1].items, (std::vector<int>{2, 0}));
  EXPECT_EQ(leases[2].items, (std::vector<int>{4}));
  for (std::size_t i = 0; i < leases.size(); ++i)
    EXPECT_EQ(leases[i].id, static_cast<int>(i));
}

TEST(PlanLeases, CostTiesBreakByInputIndexForDeterminism) {
  const auto items = named_items({{"a", 5}, {"b", 5}, {"c", 5}});
  const auto leases = plan_leases(items, 2);
  ASSERT_EQ(leases.size(), 2u);
  EXPECT_EQ(leases[0].items, (std::vector<int>{0, 1}));
  EXPECT_EQ(leases[1].items, (std::vector<int>{2}));
}

TEST(PlanLeases, StealingMakespanNeverExceedsStaticShards) {
  // A long-tailed corpus: 240 apps of median cost 10, every 20th costing
  // 130-500. Static shards commit to their strided slices up front;
  // the lease plan, list-scheduled in id order onto the least-loaded
  // worker (the schedule identical workers claim), must finish no later
  // than the slowest shard at every worker count.
  std::vector<WorkItem> items;
  std::vector<BenchApp> apps;
  for (int i = 0; i < 240; ++i) {
    WorkItem item;
    item.name = "app" + std::to_string(i);
    item.cost = i % 20 == 19 ? 100 + 10 * ((i * 7) % 41) : 5 + (i * 13) % 11;
    items.push_back(item);
    BenchApp app;
    app.apk.name = item.name;
    apps.push_back(std::move(app));
  }
  const auto cost_of = [&items](const std::string& name) {
    return items[static_cast<std::size_t>(std::stoi(name.substr(3)))].cost;
  };
  const std::vector<Lease> leases = plan_leases(items, 4);
  for (const int workers : {2, 3, 5}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::vector<std::uint64_t> load(static_cast<std::size_t>(workers), 0);
    for (const Lease& lease : leases) {
      std::uint64_t cost = 0;
      for (const int item : lease.items)
        cost += items[static_cast<std::size_t>(item)].cost;
      *std::min_element(load.begin(), load.end()) += cost;
    }
    std::uint64_t static_makespan = 0;
    for (int s = 0; s < workers; ++s) {
      std::uint64_t cost = 0;
      for (const BenchApp& app : shard_slice(apps, s, workers))
        cost += cost_of(app.apk.name);
      static_makespan = std::max(static_makespan, cost);
    }
    EXPECT_LE(*std::max_element(load.begin(), load.end()), static_makespan);
  }
}

TEST(PlanLeases, InvalidLeaseSizeThrows) {
  const auto items = named_items({{"a", 1}});
  EXPECT_THROW(plan_leases(items, 0), ConfigError);
  EXPECT_THROW(plan_leases(items, -3), ConfigError);
}

TEST(PlanLeases, DefaultLeaseSizeStaysFineGrained) {
  EXPECT_EQ(default_lease_size(0), 1);
  EXPECT_EQ(default_lease_size(10), 1);
  EXPECT_EQ(default_lease_size(200), 7);   // ~32 leases
  EXPECT_EQ(default_lease_size(3571), 64);  // paper-scale corpus: capped
  EXPECT_EQ(default_lease_size(1'000'000), 64);  // capped amortization
}

// --- container round trips -----------------------------------------------------

TEST(WorkQueueFormat, RoundTripsThroughItsBytes) {
  WorkQueue queue;
  queue.corpus = "deadbeef01234567";
  queue.tool = "saintdroid";
  queue.items = named_items({{"alpha", 7}, {"beta", 3}});
  queue.items[0].path = "/somewhere/alpha.apk";
  queue.leases = plan_leases(queue.items, 1);
  const WorkQueue parsed = WorkQueue::parse(queue.serialize());
  EXPECT_EQ(parsed.corpus, queue.corpus);
  EXPECT_EQ(parsed.tool, queue.tool);
  ASSERT_EQ(parsed.items.size(), 2u);
  EXPECT_EQ(parsed.items[0].name, "alpha");
  EXPECT_EQ(parsed.items[0].path, "/somewhere/alpha.apk");
  EXPECT_EQ(parsed.items[0].cost, 7u);
  ASSERT_EQ(parsed.leases.size(), 2u);
  EXPECT_EQ(parsed.leases[0].items, (std::vector<int>{0}));  // alpha first
}

TEST(WorkQueueFormat, RejectsPlansThatLeakOrDoubleAssignApps) {
  WorkQueue queue;
  queue.items = named_items({{"a", 1}, {"b", 1}});
  Lease lease;
  lease.id = 0;
  lease.items = {0};
  queue.leases = {lease};  // app "b" uncovered
  EXPECT_THROW(WorkQueue::parse(queue.serialize()), ParseError);

  queue.leases[0].items = {0, 1, 0};  // "a" leased twice
  EXPECT_THROW(WorkQueue::parse(queue.serialize()), ParseError);

  queue.leases[0].items = {0, 1, 2};  // index out of range
  EXPECT_THROW(WorkQueue::parse(queue.serialize()), ParseError);
}

TEST(LeaseStateFormat, RoundTripsThroughItsBytes) {
  LeaseState state;
  state.lease_id = 42;
  state.generation = 3;
  state.worker = "host-7/w2";
  state.heartbeat = 1'700'000'000ULL;
  const LeaseState parsed = LeaseState::parse(state.serialize());
  EXPECT_EQ(parsed.lease_id, 42);
  EXPECT_EQ(parsed.generation, 3);
  EXPECT_EQ(parsed.worker, "host-7/w2");
  EXPECT_EQ(parsed.heartbeat, 1'700'000'000ULL);
}

// --- the workdir protocol ------------------------------------------------------

/// A queue of `count` trivial items, one per lease — protocol tests need
/// lease files, not analyzable apps.
WorkQueue trivial_queue(int count) {
  WorkQueue queue;
  queue.corpus = "0123456789abcdef";
  queue.tool = "test";
  for (int i = 0; i < count; ++i) {
    WorkItem item;
    item.name = "app-" + std::to_string(i);
    item.cost = 1;
    queue.items.push_back(std::move(item));
  }
  queue.leases = plan_leases(queue.items, 1);
  return queue;
}

TEST(WorkDirProtocol, ClaimCompleteLifecycle) {
  const WorkDir dir{temp_dir("wd_lifecycle")};
  dir.publish(trivial_queue(3), 100);
  EXPECT_EQ(dir.status().open, 3);
  EXPECT_TRUE(dir.load_queue().has_value());

  const auto first = dir.claim_next("w0", 101);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lease_id, 0);  // lowest id first
  EXPECT_EQ(first->generation, 0);
  const auto second = dir.claim_next("w1", 101);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->lease_id, 1);  // never the same lease twice

  WorkDirStatus status = dir.status();
  EXPECT_EQ(status.open, 1);
  EXPECT_EQ(status.claimed, 2);
  EXPECT_FALSE(status.finished());

  EXPECT_TRUE(dir.heartbeat(*first, 150));
  EXPECT_TRUE(dir.complete(*first));
  EXPECT_FALSE(dir.complete(*first));   // claim file is gone
  EXPECT_FALSE(dir.heartbeat(*first, 151));
  EXPECT_TRUE(dir.complete(*second));
  const auto third = dir.claim_next("w0", 102);
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(dir.complete(*third));

  status = dir.status();
  EXPECT_EQ(status.done, 3);
  EXPECT_TRUE(status.finished());
  EXPECT_FALSE(dir.claim_next("w0", 103).has_value());

  const auto done = dir.done_states();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].worker, "w0");
  EXPECT_EQ(done[1].worker, "w1");
  std::filesystem::remove_all(dir.root());
}

TEST(WorkDirProtocol, RacingClaimantsNeverShareALease) {
  const int kLeases = 64;
  const int kThreads = 8;
  const WorkDir dir{temp_dir("wd_race")};
  dir.publish(trivial_queue(kLeases), 1);

  std::vector<std::vector<int>> claimed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, &claimed, t] {
      const std::string worker = "w" + std::to_string(t);
      while (const auto claim = dir.claim_next(worker, 2)) {
        claimed[static_cast<std::size_t>(t)].push_back(claim->lease_id);
        dir.complete(*claim);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<int> all;
  for (const auto& ids : claimed)
    all.insert(all.end(), ids.begin(), ids.end());
  std::sort(all.begin(), all.end());
  // Exactly one claimant won each lease: no loss, no double assignment.
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kLeases));
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end());
  EXPECT_TRUE(dir.status().finished());
  std::filesystem::remove_all(dir.root());
}

TEST(WorkDirProtocol, ExpiredClaimIsReclaimedAndGenerationBumps) {
  const WorkDir dir{temp_dir("wd_reclaim")};
  dir.publish(trivial_queue(2), 100);
  const auto dead = dir.claim_next("dead-worker", 100);
  ASSERT_TRUE(dead.has_value());

  // Within the TTL nothing happens; past it the claim is reissued.
  EXPECT_EQ(dir.reclaim_expired(60, 130), 0);
  EXPECT_EQ(dir.reclaim_expired(60, 160), 1);
  EXPECT_EQ(dir.status().open, 2);

  // The dead worker's late complete() finds its claim gone.
  EXPECT_FALSE(dir.complete(*dead));

  const auto retry = dir.claim_next("live-worker", 161);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->lease_id, dead->lease_id);
  EXPECT_EQ(retry->generation, 1);  // one reclaim survived
  EXPECT_TRUE(dir.complete(*retry));
  const auto done = dir.done_states();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].generation, 1);
  EXPECT_EQ(done[0].worker, "live-worker");
  std::filesystem::remove_all(dir.root());
}

TEST(WorkDirProtocol, CorruptClaimIsReclaimedNeverTrusted) {
  const WorkDir dir{temp_dir("wd_corrupt")};
  dir.publish(trivial_queue(1), 100);
  const auto claim = dir.claim_next("w0", 100);
  ASSERT_TRUE(claim.has_value());

  // Scribble over the claim file: heartbeat and owner are now unknowable.
  const std::string claim_path =
      dir.root() + "/leases/lease-000000.claim";
  {
    std::ofstream out{claim_path, std::ios::binary | std::ios::trunc};
    out << "not a lease state container";
  }
  // Even with a fresh "now" the corrupt claim counts as expired.
  EXPECT_EQ(dir.reclaim_expired(1'000'000, 100), 1);
  const auto retry = dir.claim_next("w1", 101);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->lease_id, 0);
  EXPECT_EQ(retry->generation, 1);  // corrupt history counts one reclaim
  std::filesystem::remove_all(dir.root());
}

TEST(LeaseMonitorProtocol, TtlZeroReclaimsOnFirstObservation) {
  const WorkDir dir{temp_dir("wd_mon_zero")};
  dir.publish(trivial_queue(1), WorkDir::steady_seconds());
  const auto claim = dir.claim_next("w0", WorkDir::steady_seconds());
  ASSERT_TRUE(claim.has_value());
  LeaseMonitor monitor{dir};
  // ttl=0: "unchanged for >= 0 seconds" holds at the very first sighting.
  EXPECT_EQ(monitor.reclaim_stale(0), 1);
  EXPECT_EQ(dir.status().open, 1);
  const auto retry = dir.claim_next("w1", WorkDir::steady_seconds());
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->generation, 1);
  std::filesystem::remove_all(dir.root());
}

TEST(LeaseMonitorProtocol, HeartbeatDefeatsReclaimDeadClaimExpires) {
  const WorkDir dir{temp_dir("wd_mon_beat")};
  dir.publish(trivial_queue(2), WorkDir::steady_seconds());
  const auto live = dir.claim_next("live", WorkDir::steady_seconds());
  const auto dead = dir.claim_next("dead", WorkDir::steady_seconds());
  ASSERT_TRUE(live.has_value());
  ASSERT_TRUE(dead.has_value());

  LeaseMonitor monitor{dir};
  EXPECT_EQ(monitor.reclaim_stale(1), 0);  // first sighting opens windows
  // The live worker's heartbeat rewrites its claim bytes inside the ttl
  // window; the dead worker's file never changes again. Stamps only need
  // to differ, so march a fake clock — no cross-host agreement involved.
  std::uint64_t stamp = WorkDir::steady_seconds();
  for (int tick = 0; tick < 3; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    ASSERT_TRUE(dir.heartbeat(*live, ++stamp));
    monitor.reclaim_stale(1);
  }
  // >= 1.8s elapsed on the monitor's steady clock: only "dead" expired.
  EXPECT_EQ(dir.status().open, 1);
  EXPECT_EQ(dir.status().claimed, 1);
  EXPECT_FALSE(dir.complete(*dead));
  EXPECT_TRUE(dir.complete(*live));
  std::filesystem::remove_all(dir.root());
}

TEST(LeaseMonitorProtocol, CorruptClaimReclaimsImmediately) {
  const WorkDir dir{temp_dir("wd_mon_corrupt")};
  dir.publish(trivial_queue(1), WorkDir::steady_seconds());
  ASSERT_TRUE(dir.claim_next("w0", WorkDir::steady_seconds()).has_value());
  {
    std::ofstream out{dir.root() + "/leases/lease-000000.claim",
                      std::ios::binary | std::ios::trunc};
    out << "not a lease state container";
  }
  LeaseMonitor monitor{dir};
  // No ttl window for garbage: unparseable bytes are reclaimed on sight.
  EXPECT_EQ(monitor.reclaim_stale(1'000'000), 1);
  EXPECT_EQ(dir.status().open, 1);
  std::filesystem::remove_all(dir.root());
}

TEST(WorkDirProtocol, PublishIsIdempotentAndRefusesForeignCorpora) {
  const WorkDir dir{temp_dir("wd_publish")};
  const WorkQueue queue = trivial_queue(2);
  dir.publish(queue, 100);
  const auto claim = dir.claim_next("w0", 100);
  ASSERT_TRUE(claim.has_value());

  // A re-run coordinator publishes again: claim state survives, no lease
  // is reissued behind the claimant's back.
  dir.publish(queue, 200);
  EXPECT_EQ(dir.status().open, 1);
  EXPECT_EQ(dir.status().claimed, 1);

  WorkQueue other = trivial_queue(2);
  other.corpus = "ffffffffffffffff";
  EXPECT_THROW(dir.publish(other, 300), ConfigError);
  std::filesystem::remove_all(dir.root());
}

TEST(WorkDirProtocol, StaleFilesOfDoneLeasesAreIgnoredAndCollected) {
  const WorkDir dir{temp_dir("wd_stale")};
  dir.publish(trivial_queue(1), 100);
  const auto claim = dir.claim_next("w0", 100);
  ASSERT_TRUE(claim.has_value());
  // A reclaim races the completion: the lease ends both done and reopened.
  EXPECT_EQ(dir.reclaim_expired(0, 100), 1);
  const auto dup = dir.claim_next("w1", 101);
  ASSERT_TRUE(dup.has_value());
  EXPECT_TRUE(dir.complete(*dup));
  // The done marker wins the census despite the zombie's leftovers, and a
  // later reclaim pass garbage-collects a stale claim of a done lease.
  EXPECT_TRUE(dir.status().finished());
  EXPECT_EQ(dir.reclaim_expired(0, 200), 0);
  EXPECT_TRUE(dir.status().finished());
  std::filesystem::remove_all(dir.root());
}

TEST(Supervise, TimesOutWhenNobodyWorks) {
  const WorkDir dir{temp_dir("wd_timeout")};
  dir.publish(trivial_queue(1), WorkDir::now_seconds());
  SuperviseOptions options;
  options.ttl_seconds = 1000;
  options.poll_seconds = 0.01;
  options.timeout_seconds = 0.05;
  const SuperviseOutcome outcome = supervise(dir, options);
  EXPECT_FALSE(outcome.finished);
  std::filesystem::remove_all(dir.root());
}

TEST(Agent, FailsLoudlyWithoutAQueue) {
  const WorkDir dir{temp_dir("wd_noqueue")};
  AgentOptions options;
  options.worker = "w0";
  options.queue_wait_seconds = 0.05;
  options.poll_seconds = 0.01;
  options.resolve = [](const WorkItem&) { return BenchApp{}; };
  options.factory = [] {
    return std::make_unique<SaintDroid>(FrameworkRepository::standard());
  };
  EXPECT_THROW(run_agent(dir, options), ConfigError);
  std::filesystem::remove_all(dir.root());
}

TEST(PlanWorkQueue, ValidatesItsInputs) {
  EXPECT_THROW(plan_work_queue({}, {}, {}), ConfigError);
  BenchApp app;
  app.apk.name = "solo";
  const std::vector<BenchApp> apps{app};
  const std::vector<std::string> wrong_paths{"a.apk", "b.apk"};
  EXPECT_THROW(plan_work_queue(apps, wrong_paths, {}), ConfigError);
  const WorkQueue queue = plan_work_queue(apps, {}, {});
  EXPECT_EQ(queue.corpus, corpus_fingerprint(apps));
  ASSERT_EQ(queue.items.size(), 1u);
  EXPECT_EQ(queue.items[0].cost, 1u);  // empty app floors at cost 1
}

// --- the differential property -------------------------------------------------

constexpr int kCorpusSize = 200;

/// A skewed 200-app corpus (library-heavy stratum cranked up so a static
/// partition really does have a straggler shard), a shared pre-mined
/// database, and the single-process reference bytes.
class WorkStealSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;   // keep the fixture fast: small apps,
    config.size_spread = 1.5;   // same generative structure
    config.api_issue_mean = 6.0;
    config.library_heavy_fraction = 0.10;  // the Fig. 3 outliers, amplified
    corpus_ = new RealWorldCorpus{repo, config};
    apps_ = new std::vector<BenchApp>{
        corpus_->generate_range(0, kCorpusSize, 8)};
    index_ = new std::unordered_map<std::string, std::size_t>{};
    for (std::size_t i = 0; i < apps_->size(); ++i)
      index_->emplace((*apps_)[i].apk.name, i);
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    fingerprint_ = new std::string{corpus_fingerprint(*apps_)};
    reference_ = new std::string{sorted_canonical(
        run_suite_parallel(factory(), *apps_, 4).rows)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete fingerprint_;
    delete db_;
    delete index_;
    delete apps_;
    delete corpus_;
    reference_ = nullptr;
    fingerprint_ = nullptr;
    db_ = nullptr;
    index_ = nullptr;
    apps_ = nullptr;
    corpus_ = nullptr;
  }

  static AnalyzerFactory factory() {
    return [] {
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_);
    };
  }

  static AppResolver resolver() {
    return [](const WorkItem& item) {
      const auto it = index_->find(item.name);
      if (it == index_->end())
        throw Error("resolver: unknown app " + item.name);
      return (*apps_)[it->second];
    };
  }

  /// Publishes the plan and drains it with `workers` in-process agents
  /// racing one work directory, then collects. The caller owns the
  /// assertions and removes `root` afterwards.
  static CollectResult run_stealing(const std::string& root, int workers,
                                    int jobs, int lease_size) {
    const WorkDir dir{root};
    CoordinatorOptions plan;
    plan.lease_size = lease_size;
    dir.publish(plan_work_queue(*apps_, {}, plan), WorkDir::now_seconds());
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&dir, w, jobs] {
        AgentOptions options;
        options.worker = "w" + std::to_string(w);
        options.jobs = jobs;
        options.ttl_seconds = 1000;  // healthy run: nothing expires
        options.poll_seconds = 0.002;
        options.resolve = resolver();
        options.factory = factory();
        (void)run_agent(dir, options);
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_TRUE(dir.status().finished());
    return collect(dir);
  }

  static RealWorldCorpus* corpus_;
  static std::vector<BenchApp>* apps_;
  static std::unordered_map<std::string, std::size_t>* index_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::string* fingerprint_;
  static std::string* reference_;
};

RealWorldCorpus* WorkStealSuite::corpus_ = nullptr;
std::vector<BenchApp>* WorkStealSuite::apps_ = nullptr;
std::unordered_map<std::string, std::size_t>* WorkStealSuite::index_ =
    nullptr;
std::shared_ptr<const ApiDatabase>* WorkStealSuite::db_ = nullptr;
std::string* WorkStealSuite::fingerprint_ = nullptr;
std::string* WorkStealSuite::reference_ = nullptr;

TEST_F(WorkStealSuite, StealingEqualsSingleProcessAcrossWorkersAndJobs) {
  for (const int workers : {1, 3, 7}) {
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " jobs=" + std::to_string(jobs));
      const std::string root =
          temp_dir("ws_w" + std::to_string(workers) + "_j" +
                   std::to_string(jobs));
      const CollectResult collected =
          run_stealing(root, workers, jobs, /*lease_size=*/7);
      EXPECT_TRUE(collected.merge.clean());
      EXPECT_EQ(collected.merge.duplicates, 0u);  // healthy: no re-runs
      EXPECT_EQ(collected.suite.rows.size(),
                static_cast<std::size_t>(kCorpusSize));
      EXPECT_EQ(sorted_canonical(collected.suite.rows), *reference_);
      EXPECT_EQ(collected.suite.leases_issued, (kCorpusSize + 6) / 7u);
      EXPECT_EQ(collected.suite.leases_reclaimed, 0u);
      int leases = 0;
      for (const auto& count : collected.suite.worker_lease_counts) {
        EXPECT_LE(count.leases, static_cast<int>(
            collected.suite.leases_issued));
        leases += count.leases;
      }
      EXPECT_EQ(static_cast<std::size_t>(leases),
                collected.suite.leases_issued);
      std::filesystem::remove_all(root);
    }
  }
}

TEST_F(WorkStealSuite, StealingEqualsStaticShardsPlusMerge) {
  // The three-way closure: static shards + merge-journals produce the same
  // canonical bytes as the single-process reference, which the matrix test
  // above ties to work-stealing — single ≡ static ≡ stealing.
  const int shards = 3;
  std::vector<std::string> files;
  for (int s = 0; s < shards; ++s) {
    const std::string path = ::testing::TempDir() + "ws_static_" +
                             std::to_string(s) + "of3.jsonl";
    SuiteRunOptions options;
    options.jobs = 2;
    options.journal_path = path;
    options.corpus_id = *fingerprint_;
    options.shard_index = s;
    options.shard_count = shards;
    (void)run_suite_parallel(factory(), shard_slice(*apps_, s, shards),
                             options);
    files.push_back(path);
  }
  const JournalMerge merged = merge_journals(files);
  EXPECT_TRUE(merged.clean());
  EXPECT_EQ(sorted_canonical(merged.rows), *reference_);
  for (const auto& path : files) std::remove(path.c_str());
}

TEST_F(WorkStealSuite, KilledWorkersLeaseIsReclaimedReissuedAndDeduped) {
  const std::string root = temp_dir("ws_kill");
  const WorkDir dir{root};
  CoordinatorOptions plan;
  plan.lease_size = 5;
  const WorkQueue queue = plan_work_queue(*apps_, {}, plan);
  dir.publish(queue, WorkDir::now_seconds());

  // A zombie worker claims the most expensive lease, journals *half* of
  // it, then dies without heartbeating or completing.
  const auto zombie = dir.claim_next("zombie", WorkDir::now_seconds());
  ASSERT_TRUE(zombie.has_value());
  const Lease* lease = nullptr;
  for (const auto& candidate : queue.leases)
    if (candidate.id == zombie->lease_id) lease = &candidate;
  ASSERT_NE(lease, nullptr);
  std::vector<BenchApp> half;
  for (std::size_t i = 0; i < lease->items.size() / 2; ++i)
    half.push_back(
        (*apps_)[static_cast<std::size_t>(lease->items[i])]);
  ASSERT_FALSE(half.empty());
  {
    SuiteRunOptions options;
    options.jobs = 2;
    options.journal_path = dir.worker_journal_path("zombie");
    options.resume = true;
    options.corpus_id = queue.corpus;
    (void)run_suite_parallel(factory(), half, options);
  }

  // A surviving agent drains the directory; ttl 0 makes the zombie's
  // claim reclaimable the moment the survivor runs out of open leases.
  AgentOptions options;
  options.worker = "survivor";
  options.jobs = 2;
  options.ttl_seconds = 0;
  options.poll_seconds = 0.002;
  options.resolve = resolver();
  options.factory = factory();
  const AgentResult survivor = run_agent(dir, options);
  EXPECT_EQ(survivor.leases_reclaimed, 1);
  EXPECT_TRUE(dir.status().finished());

  const CollectResult collected = collect(dir);
  EXPECT_TRUE(collected.merge.clean());
  // The zombie's journaled rows dedup byte-identically against the
  // reissued execution's rows — work was repeated, results were not.
  EXPECT_EQ(collected.merge.duplicates, half.size());
  EXPECT_EQ(sorted_canonical(collected.suite.rows), *reference_);
  EXPECT_EQ(collected.suite.leases_reclaimed, 1u);
  ASSERT_EQ(collected.suite.worker_lease_counts.size(), 1u);
  EXPECT_EQ(collected.suite.worker_lease_counts[0].worker, "survivor");
  EXPECT_EQ(static_cast<std::size_t>(
                collected.suite.worker_lease_counts[0].leases),
            collected.suite.leases_issued);
  std::filesystem::remove_all(root);
}

TEST_F(WorkStealSuite, ItemPlanEqualsAppPlanDownToTheQueueBytes) {
  // A coordinator that keeps only {name, path, cost} per package must
  // publish exactly the queue it would have from the parsed apps: same
  // corpus id, costs and leases, and a byte-identical queue.sdwq.
  std::vector<std::string> paths;
  std::vector<std::string> names;
  std::vector<WorkItem> items;
  for (const auto& app : *apps_) {
    paths.push_back("apps/" + app.apk.name + ".apk");
    names.push_back(app.apk.name);
    WorkItem item;
    item.name = app.apk.name;
    item.path = paths.back();
    item.cost = estimate_app_cost(app.apk);
    items.push_back(std::move(item));
  }
  EXPECT_EQ(corpus_fingerprint(names), *fingerprint_);
  for (const int lease_size : {0, 5}) {
    SCOPED_TRACE("lease_size=" + std::to_string(lease_size));
    CoordinatorOptions plan;
    plan.lease_size = lease_size;
    const WorkQueue from_apps = plan_work_queue(*apps_, paths, plan);
    const WorkQueue from_items = plan_work_queue(items, plan);
    EXPECT_EQ(from_items.corpus, from_apps.corpus);
    EXPECT_EQ(from_items.corpus, *fingerprint_);
    ASSERT_EQ(from_items.items.size(), from_apps.items.size());
    for (std::size_t i = 0; i < from_items.items.size(); ++i) {
      EXPECT_EQ(from_items.items[i].name, from_apps.items[i].name);
      EXPECT_EQ(from_items.items[i].path, from_apps.items[i].path);
      EXPECT_EQ(from_items.items[i].cost, from_apps.items[i].cost);
    }
    ASSERT_EQ(from_items.leases.size(), from_apps.leases.size());
    for (std::size_t i = 0; i < from_items.leases.size(); ++i) {
      EXPECT_EQ(from_items.leases[i].id, from_apps.leases[i].id);
      EXPECT_EQ(from_items.leases[i].items, from_apps.leases[i].items);
    }
    const WorkDir apps_dir{temp_dir("ws_plan_apps")};
    const WorkDir items_dir{temp_dir("ws_plan_items")};
    apps_dir.publish(from_apps, WorkDir::now_seconds());
    items_dir.publish(from_items, WorkDir::now_seconds());
    const auto apps_bytes = read_file_bytes(apps_dir.queue_path());
    const auto items_bytes = read_file_bytes(items_dir.queue_path());
    ASSERT_TRUE(apps_bytes.has_value());
    ASSERT_TRUE(items_bytes.has_value());
    EXPECT_EQ(*items_bytes, *apps_bytes);
    std::filesystem::remove_all(apps_dir.root());
    std::filesystem::remove_all(items_dir.root());
  }
  EXPECT_THROW(plan_work_queue(std::vector<WorkItem>{}), ConfigError);
}

TEST_F(WorkStealSuite, FailingResolveRethrowsFirstItemInLeaseOrder) {
  // Lease 0 (claimed first) holds four apps; its second and fourth fail
  // to resolve. The fourth fails at once and the second only after a
  // pause, so pooled workers meet the fourth first — yet run_agent
  // rethrows the second, the first failure in lease order, before any
  // analysis: no row of the lease is journaled and its claim stays
  // undone, left for TTL reclaim.
  const std::vector<BenchApp> apps(apps_->begin(), apps_->begin() + 12);
  CoordinatorOptions plan;
  plan.lease_size = 4;
  const WorkQueue queue = plan_work_queue(apps, {}, plan);
  ASSERT_EQ(queue.leases.size(), 3u);
  const std::vector<int>& lease = queue.leases[0].items;
  ASSERT_EQ(lease.size(), 4u);
  const std::string& slow_bad =
      queue.items[static_cast<std::size_t>(lease[1])].name;
  const std::string& fast_bad =
      queue.items[static_cast<std::size_t>(lease[3])].name;
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const WorkDir dir{temp_dir("ws_resolve_j" + std::to_string(jobs))};
    dir.publish(queue, WorkDir::now_seconds());
    AgentOptions options;
    options.worker = "w0";
    options.jobs = jobs;
    options.ttl_seconds = 1000;
    options.poll_seconds = 0.002;
    const AppResolver good = resolver();
    options.resolve = [&](const WorkItem& item) {
      if (item.name == slow_bad) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw Error("resolve: bad " + item.name);
      }
      if (item.name == fast_bad) throw Error("resolve: bad " + item.name);
      return good(item);
    };
    options.factory = factory();
    try {
      (void)run_agent(dir, options);
      ADD_FAILURE() << "run_agent swallowed the resolve error";
    } catch (const Error& e) {
      EXPECT_EQ(std::string{e.what()}, "resolve: bad " + slow_bad);
    }
    const WorkDirStatus status = dir.status();
    EXPECT_EQ(status.claimed, 1);
    EXPECT_EQ(status.done, 0);
    EXPECT_TRUE(dir.done_states().empty());
    const std::string journal = dir.worker_journal_path("w0");
    if (std::filesystem::exists(journal)) {
      for (const auto& row : load_journal(journal)) {
        for (const int index : lease) {
          EXPECT_NE(row.app,
                    queue.items[static_cast<std::size_t>(index)].name);
        }
      }
    }
    std::filesystem::remove_all(dir.root());
  }
}

TEST_F(WorkStealSuite, CollectBeforeFinishFailsLoudly) {
  const std::string root = temp_dir("ws_unfinished");
  const WorkDir dir{root};
  dir.publish(plan_work_queue(*apps_, {}, {}), WorkDir::now_seconds());
  EXPECT_THROW(collect(dir), Error);  // no journals at all
  // One lease journaled but the rest missing: still loud.
  const auto claim = dir.claim_next("w0", WorkDir::now_seconds());
  ASSERT_TRUE(claim.has_value());
  SuiteRunOptions options;
  options.jobs = 1;
  options.journal_path = dir.worker_journal_path("w0");
  options.resume = true;
  options.corpus_id = dir.load_queue()->corpus;
  (void)run_suite_parallel(factory(),
                           std::vector<BenchApp>{(*apps_)[0]}, options);
  EXPECT_THROW(collect(dir), Error);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace saintdroid
