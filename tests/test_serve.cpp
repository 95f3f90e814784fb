// Robustness suite for the online vetting service (src/serve).
//
// The load-bearing properties, each tested directly:
//
//   * Exactly-one-response: a 200-request soak at 2x queue capacity gets
//     one done|failed|rejected response per request — overload sheds,
//     never deadlocks or drops.
//   * Serve ≡ batch: every served row's canonical bytes equal the row a
//     batch run journals for the same package.
//   * Crash safety: a process "killed" between acceptance and enqueue (or
//     before responding) leaves a state directory whose next daemon
//     replays every accepted-but-unanswered request losslessly, and a
//     resubmission is answered from cache, byte-identically.
//   * Degradation: deadline exhaustion and cancellation produce flagged
//     partial rows, never a wedged worker.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adf/repository.hpp"
#include "core/saintdroid.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "serve/state.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"
#include "support/sdmc.hpp"
#include "support/shutdown.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

std::string temp_dir(const std::string& name) {
  // Process-unique: ctest runs this binary's tests as concurrent
  // processes, and the suite fixture rebuilds its shared corpus directory.
  const std::string root =
      ::testing::TempDir() + name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

// --- codec ---------------------------------------------------------------------

TEST(ServeCodec, RequestRoundTrip) {
  ServeRequest request;
  request.id = "r\"42\"";
  request.apk_path = "/tmp/apps/x.apk";
  request.deadline_seconds = 2.5;
  const ServeRequest parsed = parse_serve_request(serve_request_line(request));
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.apk_path, request.apk_path);
  EXPECT_DOUBLE_EQ(parsed.deadline_seconds, 2.5);
}

TEST(ServeCodec, RequestDefectsThrow) {
  EXPECT_THROW(parse_serve_request("not json"), ParseError);
  EXPECT_THROW(parse_serve_request("[1,2]"), ParseError);
  EXPECT_THROW(parse_serve_request(R"({"apk":"a"})"), ParseError);
  EXPECT_THROW(parse_serve_request(R"({"id":"r1"})"), ParseError);
  EXPECT_THROW(parse_serve_request(R"({"id":"r1","apk":"a","deadline":"x"})"),
               ParseError);
  EXPECT_THROW(parse_serve_request(R"({"id":"r1","apk":"a","deadline":-1})"),
               ParseError);
}

TEST(ServeCodec, ResponseCarriesJournalRowByteIdentically) {
  SuiteAppRow row;
  row.app = "App1";
  row.completed = true;
  row.incomplete = true;
  row.mismatch_count = 3;
  row.scores.api.fp = 3;
  row.usage.seconds = 1.25;

  ServeResponse response;
  response.id = "r1";
  response.status = ServeStatus::kDone;
  response.fingerprint = "00ff00ff00ff00ff";
  response.row = row;
  const std::string line = serve_response_line(response);

  // The flat merged object parses both as a response and as a plain
  // journal row — the serve/batch equivalence currency.
  const auto parsed = parse_serve_response(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->status, ServeStatus::kDone);
  EXPECT_EQ(parsed->fingerprint, response.fingerprint);
  ASSERT_TRUE(parsed->row.has_value());
  EXPECT_EQ(canonical_row_bytes(*parsed->row), canonical_row_bytes(row));

  const auto as_row = parse_journal_line(line);
  ASSERT_TRUE(as_row.has_value());
  EXPECT_EQ(canonical_row_bytes(*as_row), canonical_row_bytes(row));
}

TEST(ServeCodec, RejectedResponseRoundTrip) {
  ServeResponse response;
  response.id = "r9";
  response.status = ServeStatus::kRejected;
  response.reason = "overloaded";
  const auto parsed = parse_serve_response(serve_response_line(response));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, ServeStatus::kRejected);
  EXPECT_EQ(parsed->reason, "overloaded");
  EXPECT_FALSE(parsed->row.has_value());
}

TEST(ServeCodec, AcceptedRequestAndResultLinesRoundTrip) {
  AcceptedRequest accepted{"r1", "deadbeefdeadbeef", "App1", "/a/b.apk"};
  const auto parsed = parse_accepted_request(accepted_request_line(accepted));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->fingerprint, accepted.fingerprint);
  EXPECT_EQ(parsed->apk_path, accepted.apk_path);
  EXPECT_FALSE(parse_accepted_request("garbage").has_value());

  SuiteAppRow row;
  row.app = "App1";
  row.completed = false;
  row.failure_reason = "boom";
  const auto record = parse_result_line(result_line("deadbeef", row));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->fingerprint, "deadbeef");
  EXPECT_EQ(canonical_row_bytes(record->row), canonical_row_bytes(row));
  EXPECT_FALSE(parse_result_line("{\"app\":\"x\"}").has_value());
}

TEST(ServeCodec, FingerprintIsContentKeyed) {
  const std::vector<std::uint8_t> a{1, 2, 3, 4};
  std::vector<std::uint8_t> b = a;
  EXPECT_EQ(apk_fingerprint(a), apk_fingerprint(b));
  EXPECT_EQ(apk_fingerprint(a).size(), 16u);
  b[2] ^= 0x40;  // any byte change is a different key
  EXPECT_NE(apk_fingerprint(a), apk_fingerprint(b));
}

// --- admission queue -----------------------------------------------------------

TEST(AdmissionQueue, ShedsDeterministicallyAtCapacity) {
  AdmissionQueue queue{2};
  EXPECT_TRUE(queue.try_push({}));
  EXPECT_TRUE(queue.try_push({}));
  EXPECT_FALSE(queue.try_push({}));  // high-water mark
  EXPECT_FALSE(queue.try_push({}));
  EXPECT_EQ(queue.shed_count(), 2u);
  EXPECT_EQ(queue.depth(), 2u);
  // Replay bypasses the mark: the acceptance journal is a promise.
  EXPECT_TRUE(queue.force_push({}));
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(AdmissionQueue, CloseDrainsBacklogThenStopsPoppers) {
  AdmissionQueue queue{4};
  EXPECT_TRUE(queue.try_push({}));
  EXPECT_TRUE(queue.try_push({}));
  queue.close();
  EXPECT_FALSE(queue.try_push({}));   // closed refuses new work
  EXPECT_FALSE(queue.force_push({}));
  EXPECT_TRUE(queue.pop().has_value());   // but the backlog still drains
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());  // closed and empty: exit signal
}

TEST(AdmissionQueue, PopBlocksUntilPushOrClose) {
  AdmissionQueue queue{4};
  std::atomic<int> popped{0};
  std::thread consumer{[&] {
    while (queue.pop().has_value()) ++popped;
  }};
  EXPECT_TRUE(queue.try_push({}));
  queue.close();
  consumer.join();
  EXPECT_EQ(popped.load(), 1);
}

// --- state directory -----------------------------------------------------------

TEST(ServeState, JournalsSealTornTailsAndSkipCorruptLines) {
  const std::string dir = temp_dir("serve_state");
  const StatePaths paths{dir};

  SuiteAppRow row;
  row.app = "App1";
  {
    ResultCache cache{paths.results_path()};
    cache.put("f1", row);
  }
  // A kill -9 mid-write: append garbage and a torn (newline-less) line.
  {
    std::ofstream out{paths.results_path(), std::ios::app};
    out << "corrupt line\n";
    out << "{\"fingerprint\":\"f2\",\"app\"";  // torn
  }
  ResultCache reopened{paths.results_path()};
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.find("f1").has_value());
  EXPECT_FALSE(reopened.find("f2").has_value());
  // The torn tail was sealed: a new row starts on its own line.
  reopened.put("f3", row);
  ResultCache third{paths.results_path()};
  EXPECT_TRUE(third.find("f3").has_value());

  {
    RequestJournal requests{paths.requests_path()};
    requests.append({"r1", "f1", "App1", "/x.apk"});
  }
  {
    std::ofstream out{paths.requests_path(), std::ios::app};
    out << "{\"request\":";  // torn acceptance
  }
  RequestJournal sealed{paths.requests_path()};
  sealed.append({"r2", "f2", "App2", "/y.apk"});
  const auto loaded = RequestJournal::load(paths.requests_path());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id, "r1");
  EXPECT_EQ(loaded[1].id, "r2");
}

// --- service -------------------------------------------------------------------

/// Shares one small on-disk corpus and one mined database across the
/// service tests (mining dominates otherwise).
class VetServiceTest : public ::testing::Test {
 protected:
  static constexpr int kApps = 24;
  static constexpr int kCorpusSize = 48;

  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 80.0;   // small apps: this fixture tests plumbing,
    config.size_spread = 1.3;  // not analysis depth
    corpus_dir_ = new std::string{temp_dir("serve_corpus")};
    ensure_directory(*corpus_dir_);
    RealWorldCorpus corpus{repo, config};
    apps_ = new std::vector<BenchApp>;
    paths_ = new std::vector<std::string>;
    for (const BenchApp& generated :
         corpus.generate_range(0, kCorpusSize, 8)) {
      BenchApp app;
      app.apk = generated.apk;  // serve scores against an empty ledger
      const std::string path = *corpus_dir_ + "/" + app.apk.name + ".apk";
      write_file_atomic(path, app.apk.serialize());
      paths_->push_back(path);
      apps_->push_back(std::move(app));
    }
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    // The batch reference: what `saintdroid batch` would journal for the
    // same packages (no ground truth — exactly serve's scoring input).
    reference_ = new std::unordered_map<std::string, std::string>;
    const SuiteResult suite = run_suite_parallel(
        [] {
          return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                              *db_);
        },
        std::span<const BenchApp>{apps_->data(), apps_->size()}, 4);
    for (const auto& row : suite.rows)
      reference_->emplace(row.app, canonical_row_bytes(row));
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete paths_;
    delete apps_;
    delete corpus_dir_;
    reference_ = nullptr;
    db_ = nullptr;
    paths_ = nullptr;
    apps_ = nullptr;
    corpus_dir_ = nullptr;
  }

  static ServeOptions options(int jobs, std::size_t queue) {
    ServeOptions options;
    options.jobs = jobs;
    options.queue_capacity = queue;
    options.database = *db_;
    options.repository = &FrameworkRepository::standard();
    return options;
  }

  /// Collects responses thread-safely; one collector per test.
  struct Collector {
    std::mutex mutex;
    std::vector<ServeResponse> responses;

    VetService::Responder sink() {
      return [this](const ServeResponse& response) {
        const std::lock_guard lock{mutex};
        responses.push_back(response);
      };
    }
  };

  static std::string* corpus_dir_;
  static std::vector<BenchApp>* apps_;
  static std::vector<std::string>* paths_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::unordered_map<std::string, std::string>* reference_;
};

std::string* VetServiceTest::corpus_dir_ = nullptr;
std::vector<BenchApp>* VetServiceTest::apps_ = nullptr;
std::vector<std::string>* VetServiceTest::paths_ = nullptr;
std::shared_ptr<const ApiDatabase>* VetServiceTest::db_ = nullptr;
std::unordered_map<std::string, std::string>* VetServiceTest::reference_ =
    nullptr;

TEST_F(VetServiceTest, ServedRowsAreByteIdenticalToBatch) {
  VetService service{temp_dir("serve_eq"), options(2, 64)};
  Collector collected;
  for (int i = 0; i < kApps; ++i) {
    ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.apk_path = (*paths_)[static_cast<std::size_t>(i)];
    service.submit(request, collected.sink());
  }
  service.drain();
  ASSERT_EQ(collected.responses.size(), static_cast<std::size_t>(kApps));
  for (const ServeResponse& response : collected.responses) {
    ASSERT_EQ(response.status, ServeStatus::kDone) << response.reason;
    ASSERT_TRUE(response.row.has_value());
    const auto it = reference_->find(response.row->app);
    ASSERT_NE(it, reference_->end());
    EXPECT_EQ(canonical_row_bytes(*response.row), it->second);
  }
}

TEST_F(VetServiceTest, RestartServesTheDatabaseFromTheStateDirectoryCache) {
  // No injected database: the first daemon mines and stores it in the
  // state directory's model cache, a restart on that directory loads it
  // and runs no mining pass.
  const std::string state = temp_dir("serve_warm");
  ServeOptions cold = options(2, 8);
  cold.database = nullptr;
  {
    const VetService service{state, cold};
    EXPECT_FALSE(service.stats().database_from_cache);
  }
  const VetService service{state, cold};
  EXPECT_TRUE(service.stats().database_from_cache);
}

TEST_F(VetServiceTest, SoakAtTwiceCapacityOneResponsePerRequest) {
  // Offered load far past the high-water mark: 200 requests from 8
  // threads into a 2-worker, 8-deep service. The daemon must answer every
  // single request (done or rejected: overloaded) and keep accepting —
  // shedding is the release valve, deadlock the failure mode under test.
  VetService service{temp_dir("serve_soak"), options(2, 8)};
  constexpr int kRequests = 200;
  std::mutex mutex;
  std::map<std::string, std::vector<ServeStatus>> responses;
  std::vector<std::thread> clients;
  std::atomic<int> next{0};
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequests) break;
        ServeRequest request;
        request.id = "r" + std::to_string(i);
        request.apk_path =
            (*paths_)[static_cast<std::size_t>(i) % paths_->size()];
        service.submit(
            request, [&mutex, &responses](const ServeResponse& response) {
              const std::lock_guard lock{mutex};
              responses[response.id].push_back(response.status);
            });
      }
    });
  }
  for (auto& client : clients) client.join();
  service.drain();

  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, statuses] : responses)
    ASSERT_EQ(statuses.size(), 1u) << id << " answered twice";
  const ServeStats stats = service.stats();
  EXPECT_GT(stats.shed, 0u) << "2x offered load must shed";
  EXPECT_GT(stats.completed + stats.cache_hits, 0u);
  EXPECT_EQ(stats.accepted + stats.cache_hits + stats.shed + stats.rejected,
            static_cast<std::uint64_t>(kRequests));

  // Still accepting after the storm — shedding never wedges admission.
  Collector after;
  ServeRequest request;
  request.id = "after";
  request.apk_path = (*paths_)[0];
  service.submit(request, after.sink());
  service.drain();
  ASSERT_EQ(after.responses.size(), 1u);
  EXPECT_NE(after.responses[0].status, ServeStatus::kRejected);
}

TEST_F(VetServiceTest, ResubmissionIsServedFromCacheByteIdentically) {
  const std::string state = temp_dir("serve_cache");
  std::string first_bytes;
  {
    VetService service{state, options(1, 8)};
    Collector collected;
    ServeRequest request;
    request.id = "r1";
    request.apk_path = (*paths_)[1];
    service.submit(request, collected.sink());
    service.drain();
    ASSERT_EQ(collected.responses.size(), 1u);
    EXPECT_FALSE(collected.responses[0].cached);
    first_bytes = canonical_row_bytes(*collected.responses[0].row);

    Collector again;
    request.id = "r2";
    service.submit(request, again.sink());
    ASSERT_EQ(again.responses.size(), 1u);  // synchronous: no analysis
    EXPECT_TRUE(again.responses[0].cached);
    EXPECT_EQ(canonical_row_bytes(*again.responses[0].row), first_bytes);
  }
  // A fresh process over the same state directory inherits the cache.
  VetService warm{state, options(1, 8)};
  EXPECT_EQ(warm.stats().replayed, 0u);
  Collector collected;
  ServeRequest request;
  request.id = "r3";
  request.apk_path = (*paths_)[1];
  warm.submit(request, collected.sink());
  ASSERT_EQ(collected.responses.size(), 1u);
  EXPECT_TRUE(collected.responses[0].cached);
  EXPECT_EQ(canonical_row_bytes(*collected.responses[0].row), first_bytes);
}

TEST_F(VetServiceTest, CrashBetweenAcceptAndEnqueueReplaysLosslessly) {
  const std::string state = temp_dir("serve_replay");
  // "Kill" the daemon in the window after the acceptance journal flushed
  // but before the job reached the queue — the worst spot: the client got
  // no response and no worker ever saw the request.
  {
    VetService service{state, options(1, 8)};
    FaultScope scope{
        FaultPlan{{{"serve.enqueue", "", FaultSpec::Kind::kInjected}}}};
    ServeRequest request;
    request.id = "r1";
    request.apk_path = (*paths_)[2];
    Collector collected;
    EXPECT_THROW(service.submit(request, collected.sink()), InjectedFault);
    EXPECT_TRUE(collected.responses.empty());
  }
  // The restarted daemon replays the acceptance: the result is computed
  // and journaled with no client attached...
  VetService restarted{state, options(1, 8)};
  EXPECT_EQ(restarted.stats().replayed, 1u);
  restarted.drain();
  // ...so the client's resubmission is a cache hit, byte-identical to
  // what a batch run produces for that package.
  Collector collected;
  ServeRequest request;
  request.id = "r1-retry";
  request.apk_path = (*paths_)[2];
  restarted.submit(request, collected.sink());
  ASSERT_EQ(collected.responses.size(), 1u);
  EXPECT_TRUE(collected.responses[0].cached);
  EXPECT_EQ(collected.responses[0].status, ServeStatus::kDone);
  const auto it = reference_->find(collected.responses[0].row->app);
  ASSERT_NE(it, reference_->end());
  EXPECT_EQ(canonical_row_bytes(*collected.responses[0].row), it->second);
}

TEST_F(VetServiceTest, CrashBeforeRespondAnswersResubmissionFromCache) {
  const std::string state = temp_dir("serve_respond_crash");
  {
    VetService service{state, options(1, 8)};
    FaultScope scope{
        FaultPlan{{{"serve.respond", "", FaultSpec::Kind::kInjected}}}};
    ServeRequest request;
    request.id = "r1";
    request.apk_path = (*paths_)[3];
    Collector collected;
    service.submit(request, collected.sink());
    service.drain();
    // The worker's respond was "cut off" — the client saw the internal
    // error, but the result itself reached the journal first.
    ASSERT_EQ(collected.responses.size(), 1u);
    EXPECT_EQ(collected.responses[0].status, ServeStatus::kRejected);
  }
  VetService restarted{state, options(1, 8)};
  EXPECT_EQ(restarted.stats().replayed, 0u);  // result survived the crash
  Collector collected;
  ServeRequest request;
  request.id = "r1-retry";
  request.apk_path = (*paths_)[3];
  restarted.submit(request, collected.sink());
  ASSERT_EQ(collected.responses.size(), 1u);
  EXPECT_TRUE(collected.responses[0].cached);
}

TEST_F(VetServiceTest, ReplayOfVanishedPackageConvergesToFailureRow) {
  const std::string state = temp_dir("serve_replay_gone");
  {
    // Hand-craft the journal of a dead daemon whose accepted package no
    // longer exists on disk.
    const StatePaths paths{state};
    RequestJournal requests{paths.requests_path()};
    requests.append(
        {"r1", "aaaabbbbccccdddd", "Ghost", state + "/no-such.apk"});
  }
  VetService service{state, options(1, 8)};
  service.drain();
  service.shutdown();
  // The ledger converged: a structured failure row was journaled, so a
  // second restart replays nothing (replay terminates, never loops).
  VetService again{state, options(1, 8)};
  EXPECT_EQ(again.stats().replayed, 0u);
  const auto row = ResultCache{StatePaths{state}.results_path()}.find(
      "aaaabbbbccccdddd");
  ASSERT_TRUE(row.has_value());
  EXPECT_FALSE(row->completed);
  EXPECT_NE(row->failure_reason.find("replay"), std::string::npos);
}

TEST_F(VetServiceTest, MalformedAndUnreadableRequestsAreStructuredRejections) {
  VetService service{temp_dir("serve_bad"), options(1, 8)};
  Collector collected;
  service.submit_line("utter garbage", collected.sink());
  service.submit_line(R"({"id":"r1"})", collected.sink());
  service.submit_line(R"({"id":"r2","apk":"/does/not/exist.apk"})",
                      collected.sink());
  ASSERT_EQ(collected.responses.size(), 3u);
  for (const auto& response : collected.responses)
    EXPECT_EQ(response.status, ServeStatus::kRejected);
  EXPECT_NE(collected.responses[0].reason.find("bad-request"),
            std::string::npos);
  EXPECT_NE(collected.responses[2].reason.find("bad-package"),
            std::string::npos);
  EXPECT_EQ(service.stats().malformed, 2u);
}

TEST_F(VetServiceTest, ShutdownRejectsNewWorkAndAnswersAdmitted) {
  VetService service{temp_dir("serve_shutdown"), options(1, 8)};
  Collector collected;
  ServeRequest request;
  request.id = "r1";
  request.apk_path = (*paths_)[4];
  service.submit(request, collected.sink());
  service.shutdown();
  ASSERT_EQ(collected.responses.size(), 1u);  // admitted work was answered
  EXPECT_NE(collected.responses[0].status, ServeStatus::kRejected);

  Collector late;
  request.id = "r2";
  service.submit(request, late.sink());
  ASSERT_EQ(late.responses.size(), 1u);
  EXPECT_EQ(late.responses[0].status, ServeStatus::kRejected);
  EXPECT_EQ(late.responses[0].reason, "shutting-down");
}

TEST_F(VetServiceTest, TightDeadlineDegradesToFlaggedPartialRow) {
  ServeOptions tight = options(1, 8);
  tight.budget.deadline_seconds = 1e-9;  // exhausted on the first probe
  VetService service{temp_dir("serve_deadline"), tight};
  Collector collected;
  ServeRequest request;
  request.id = "r1";
  request.apk_path = (*paths_)[5];
  service.submit(request, collected.sink());
  service.drain();
  ASSERT_EQ(collected.responses.size(), 1u);
  ASSERT_EQ(collected.responses[0].status, ServeStatus::kDone);
  EXPECT_TRUE(collected.responses[0].row->incomplete)
      << "deadline exhaustion must degrade, not wedge or fail";
}

TEST_F(VetServiceTest, PerRequestDeadlineTightensServerDefault) {
  VetService service{temp_dir("serve_req_deadline"), options(1, 8)};
  Collector collected;
  ServeRequest request;
  request.id = "r1";
  request.apk_path = (*paths_)[6];
  request.deadline_seconds = 1e-9;
  service.submit(request, collected.sink());
  service.drain();
  ASSERT_EQ(collected.responses.size(), 1u);
  ASSERT_EQ(collected.responses[0].status, ServeStatus::kDone);
  EXPECT_TRUE(collected.responses[0].row->incomplete);
}

TEST_F(VetServiceTest, CancelInFlightDegradesWithoutLosingResponses) {
  VetService service{temp_dir("serve_cancel"), options(2, 64)};
  Collector collected;
  for (int i = 0; i < 12; ++i) {
    ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.apk_path = (*paths_)[static_cast<std::size_t>(6 + i)];
    service.submit(request, collected.sink());
  }
  service.cancel_in_flight();
  service.drain();  // liveness: cancellation can never strand a request
  ASSERT_EQ(collected.responses.size(), 12u);
  for (const auto& response : collected.responses)
    EXPECT_NE(response.status, ServeStatus::kRejected);
}

// --- daemon transports ---------------------------------------------------------

TEST_F(VetServiceTest, SocketTransportAnswersAndShutsDownGracefully) {
  const std::string state = temp_dir("serve_socket");
  VetService service{state, options(1, 8)};
  std::atomic<bool> interrupt{false};
  DaemonOptions daemon;
  daemon.stdio = false;
  daemon.interrupted = [&interrupt] { return interrupt.load(); };
  int exit_code = -1;
  std::thread loop{[&] { exit_code = run_serve_daemon(service, daemon); }};

  std::vector<std::string> lines;
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.id = "c" + std::to_string(i);
    request.apk_path = (*paths_)[static_cast<std::size_t>(i)];
    lines.push_back(serve_request_line(request));
  }
  lines.push_back("garbage request");
  const auto responses =
      submit_over_socket(service.paths().socket_path(), lines, 20.0);
  ASSERT_EQ(responses.size(), 4u);
  int done = 0;
  int rejected = 0;
  for (const std::string& line : responses) {
    const auto response = parse_serve_response(line);
    ASSERT_TRUE(response.has_value()) << line;
    if (response->status == ServeStatus::kDone) ++done;
    if (response->status == ServeStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(done, 3);
  EXPECT_EQ(rejected, 1);

  interrupt.store(true);
  loop.join();
  EXPECT_EQ(exit_code, kShutdownExitCode);
  EXPECT_FALSE(std::filesystem::exists(service.paths().socket_path()))
      << "socket file must be unlinked on exit";
}

}  // namespace
}  // namespace saintdroid
