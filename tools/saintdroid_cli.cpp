// saintdroid — command-line front end.
//
//   saintdroid analyze <apk-file> [--json] [--suggest] [--levels a,b,c]
//                                 [--db <database-file>]
//                                 [--model-cache <dir>] [--incr-cache <dir>]
//   saintdroid batch   <apk-file>... [--jobs N] [--db <database-file>]
//                                    [--shard i/N]
//                                    [--journal <file> [--resume]]
//                                    [--model-cache <dir>]
//                                    [--incr-cache <dir>]
//   saintdroid merge-journals [--stats] <out-journal> <in-journal>...
//   saintdroid coordinate <workdir> <apk-file>... [--lease-size N]
//                                    [--ttl S] [--timeout S] [--init-only]
//   saintdroid work    <workdir> [--jobs N] [--worker NAME]
//                                [--db <database-file>]
//                                [--model-cache <dir>] [--ttl S]
//                                [--max-leases K] [--wait S]
//   saintdroid serve   <statedir> [--jobs N] [--queue N] [--deadline S]
//                                 [--stdio] [--no-socket]
//                                 [--incr-cache <dir>]
//   saintdroid submit  <statedir> <apk-file>... [--deadline S] [--wait S]
//   saintdroid disasm  <apk-file>
//   saintdroid mine    <output-database-file>
//
// Consumes packages produced by apkgen (or any code using
// Apk::serialize()), runs the analysis, and prints a text or JSON report,
// optionally with repair suggestions and against an explicit framework
// version set. `mine` persists the ARM database once so later `analyze
// --db` runs skip the mining pass (§III-B's reusable model). `batch`
// analyzes many packages across a worker pool — one mined database shared
// by every worker, fault isolation per app, one summary line per app in
// input order regardless of `--jobs`. `--journal` appends each finished
// row to a crash-safe JSONL file so a killed batch can pick up where it
// left off with `--resume`. `--shard i/N` analyzes only the deterministic
// interleaved slice {i, i+N, ...} of the app list — the multi-process /
// multi-host fan-out: give every process the *same* app list and a
// distinct shard, then combine the per-shard journals with
// `merge-journals`, which deduplicates by app name, fails loudly when the
// journals came from different corpora or shard layouts, and reports (and
// exits non-zero on) divergent duplicate rows. `--model-cache <dir>` keeps
// the mined models (ARM database and framework substrate tables) in an
// on-disk cache keyed by framework fingerprint: the first run in a fresh
// directory mines and stores, every later process — including concurrent
// shards sharing the directory — starts warm, skipping the mining pass
// entirely with byte-identical results (see docs/FORMAT.md, `.sdmc`).
// `--incr-cache <dir>` adds the *per-app* incremental fact cache on top:
// re-analyzing an updated package re-explores only the classes its diff
// dirties and splices cached facts for the rest, falling back (counted) to
// full analysis whenever the cached entry or the diff cannot be trusted.
// Results are byte-identical either way; the batch summary reports
// hits/dirty-classes/fallbacks.
//
// `coordinate`/`work` replace the static `--shard` partition with dynamic
// work-stealing (see docs/parallelism.md): `coordinate` publishes a
// largest-cost-first lease plan into a shared work directory, supervises
// the lease lifecycle (reclaiming leases whose workers crashed), and
// merges every worker journal into <workdir>/merged.jsonl; each `work`
// process claims leases until the directory is finished. `--jobs 0`
// resolves to the host's hardware concurrency in both `batch` and `work`.
//
// `serve` runs the long-lived vetting daemon (docs/robustness.md): warm
// framework + mined models held across requests, bounded admission queue,
// explicit overload shedding, per-request deadlines, and a crash-safe
// request journal in <statedir> that replays accepted-but-unanswered
// requests after a kill -9. `submit` is the matching client: it sends one
// request per package over <statedir>/serve.sock and prints the response
// lines. `batch`, `work` and `serve` all exit with code 4 after a graceful
// SIGINT/SIGTERM shutdown (journals sealed, in-flight apps finished).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "adf/repository.hpp"
#include "core/advisor.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "core/json.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "dex/disasm.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "support/errors.hpp"
#include "support/shutdown.hpp"
#include "support/meter.hpp"
#include "support/sdmc.hpp"
#include "support/thread_pool.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace sd = saintdroid;

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes;
  try {
    bytes = sd::read_file_bytes(path);
  } catch (const sd::Error&) {
  }
  if (!bytes) throw sd::Error("cannot open " + path);
  return *std::move(bytes);
}

/// Reads and parses `paths` on a pool of `jobs` workers, returning the
/// apps in input order. Any unreadable or malformed package fails the
/// whole call — before any analysis or journal row — with the error of
/// the first bad path in input order, whatever order the workers finished.
std::vector<sd::BenchApp> parse_packages(const std::vector<std::string>& paths,
                                         int jobs) {
  std::vector<sd::BenchApp> apps(paths.size());
  std::vector<std::exception_ptr> errors(paths.size());
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= paths.size()) return;
      try {
        const auto bytes = read_file(paths[i]);
        try {
          apps[i].apk = sd::Apk::parse(bytes);
        } catch (const sd::Error& e) {
          throw sd::Error(paths[i] + ": " + e.what());
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t workers =
      std::min(paths.size(), static_cast<std::size_t>(std::max(jobs, 1)));
  if (workers <= 1) {
    drain();
  } else {
    sd::ThreadPool pool{workers};
    std::vector<std::future<void>> done;
    for (std::size_t w = 0; w < workers; ++w)
      done.push_back(pool.submit(drain));
    for (auto& f : done) f.get();
  }
  for (const auto& error : errors)
    if (error) std::rethrow_exception(error);
  return apps;
}

std::vector<int> parse_levels(const std::string& arg) {
  std::vector<int> levels;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string token =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    levels.push_back(std::stoi(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return levels;
}

/// The one usage text, printed to stderr (error path) or stdout
/// (`--help`). ci/verify.sh lint-checks every `--flag` the docs mention
/// against this output, so a flag that exists must be listed here.
void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: saintdroid analyze <apk> [--json] [--suggest] "
               "[--levels a,b,c] [--db <file>]\n"
               "                          [--model-cache <dir>] "
               "[--incr-cache <dir>]\n"
               "       saintdroid batch <apk>... [--jobs N] [--db <file>] "
               "[--shard i/N]\n"
               "                        [--journal <file> [--resume]]\n"
               "                        [--model-cache <dir>] "
               "[--incr-cache <dir>]\n"
               "       saintdroid merge-journals [--stats] <out-journal> "
               "<in-journal>...\n"
               "       saintdroid coordinate <workdir> <apk>... "
               "[--lease-size N] [--ttl S]\n"
               "                             [--timeout S] [--init-only]\n"
               "       saintdroid work <workdir> [--jobs N] "
               "[--worker NAME] [--db <file>]\n"
               "                       [--model-cache <dir>] [--ttl S] "
               "[--max-leases K] [--wait S]\n"
               "       saintdroid serve <statedir> [--jobs N] [--queue N] "
               "[--deadline S]\n"
               "                        [--stdio] [--no-socket] "
               "[--incr-cache <dir>]\n"
               "       saintdroid submit <statedir> <apk>... [--deadline S] "
               "[--wait S]\n"
               "       saintdroid disasm <apk>\n"
               "       saintdroid mine <output-db-file>\n"
               "       saintdroid --help\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// Parses "i/N" into {i, N}; false on malformed specs or i outside [0, N).
bool parse_shard_spec(const char* arg, int& index, int& count) {
  char* end = nullptr;
  const long i = std::strtol(arg, &end, 10);
  if (end == arg || *end != '/') return false;
  const char* count_text = end + 1;
  const long n = std::strtol(count_text, &end, 10);
  if (end == count_text || *end != '\0') return false;
  if (n < 1 || i < 0 || i >= n) return false;
  index = static_cast<int>(i);
  count = static_cast<int>(n);
  return true;
}

/// Prints the per-app rows of a suite exactly like `batch` does, and
/// returns the total mismatch count. Shared by `batch` and `coordinate` so
/// their per-app report lines cannot drift apart.
std::uint64_t print_suite_rows(const sd::SuiteResult& suite) {
  std::uint64_t total = 0;
  for (const auto& row : suite.rows) {
    total += row.mismatch_count;
    if (row.failure.has_value()) {
      std::printf("%-24s FAILED  %s in %s: %s\n", row.app.c_str(),
                  sd::failure_kind_name(row.failure->kind),
                  row.failure->phase.c_str(), row.failure->message.c_str());
    } else {
      std::printf("%-24s %s  %zu mismatch%s (%.1f ms)\n", row.app.c_str(),
                  row.completed ? (row.incomplete ? "part  " : "ok    ")
                                : "FAILED",
                  row.mismatch_count, row.mismatch_count == 1 ? "" : "es",
                  row.usage.seconds * 1000.0);
    }
  }
  return total;
}

/// `saintdroid batch`: parses every package up front (on `--jobs`
/// workers), warms the target levels in parallel, analyzes them through
/// the fault-isolated suite harness (one mined database shared by every
/// worker), prints one line per app in input order. An app whose analysis
/// fails is reported as a structured FAILED row — it never sinks the batch.
/// With `--journal` every finished row is appended to a crash-safe JSONL
/// file; `--resume` skips apps already journaled. Returns 1 when any app
/// has mismatches or failed, 2 on package parse failure.
int run_batch(const std::vector<std::string>& paths, int jobs,
              const std::string& db_path, const std::string& journal_path,
              bool resume, int shard_index, int shard_count,
              const std::string& model_cache_dir,
              const std::string& incr_cache_dir) {
  const auto& repo = sd::FrameworkRepository::standard();
  if (jobs <= 0) jobs = static_cast<int>(sd::ThreadPool::default_workers());
  // Database precedence: an explicit --db file wins; otherwise the model
  // cache serves (or mines once and stores) it; otherwise mine per run.
  std::optional<sd::ModelCache> cache;
  if (!model_cache_dir.empty()) cache.emplace(model_cache_dir);
  std::shared_ptr<const sd::ApiDatabase> db;
  if (!db_path.empty())
    db = std::make_shared<const sd::ApiDatabase>(
        sd::ApiDatabase::parse(read_file(db_path)));
  else if (cache)
    db = cache->api_database(repo, jobs);
  else
    db = std::make_shared<const sd::ApiDatabase>(sd::ApiDatabase::mine(repo));

  const sd::Stopwatch parse_watch;
  std::vector<sd::BenchApp> full_list = parse_packages(paths, jobs);
  const double parse_seconds = parse_watch.seconds();

  // The corpus fingerprint covers the *full* app list — every shard of one
  // run computes the same id, so merge-journals can refuse shards cut from
  // different lists. The shard then analyzes only its interleaved slice.
  const std::string corpus_id = sd::corpus_fingerprint(full_list);
  const std::vector<sd::BenchApp> apps =
      shard_count > 1 ? sd::shard_slice(full_list, shard_index, shard_count)
                      : std::move(full_list);

  sd::SuiteRunOptions options;
  options.jobs = jobs;
  options.journal_path = journal_path;
  options.resume = resume;
  options.corpus_id = corpus_id;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.model_cache_dir = model_cache_dir;
  options.incr_cache_dir = incr_cache_dir;
  options.repository = &repo;
  // Pre-build the shared framework substrate for every level the batch
  // targets, once, before the worker fan-out, levels in parallel.
  sd::WarmupStats warmup;
  options.warmup = [&] { warmup = sd::warm_target_levels(repo, apps, jobs); };

  // Graceful shutdown: SIGINT/SIGTERM stops starting new apps; in-flight
  // apps finish and journal (the journal stays sealed and resumable), the
  // skipped remainder is reported, and the exit code is distinct.
  sd::install_shutdown_handlers();
  options.stop = [] { return sd::shutdown_requested(); };

  // One incremental fact cache shared by every worker facade (stores are
  // rename-atomic, so concurrent workers — and concurrent shard processes
  // pointed at one directory — race benignly).
  sd::SaintDroidOptions tool_options;
  if (!incr_cache_dir.empty())
    tool_options.incr_cache = std::make_shared<const sd::IncrCache>(incr_cache_dir);

  const sd::Stopwatch watch;
  const sd::SuiteResult suite = sd::run_suite_parallel(
      [&] { return std::make_unique<sd::SaintDroid>(repo, db, tool_options); },
      apps, options);
  const double elapsed = watch.seconds();

  const std::uint64_t total = print_suite_rows(suite);
  if (shard_count > 1)
    std::printf("shard %d/%d (corpus %s): ", shard_index, shard_count,
                corpus_id.c_str());
  std::printf("%zu apps, %llu mismatches, %d failures, %d incomplete, "
              "%d jobs, %.2fs (%.1f apps/sec, %llu framework retr%s)\n",
              apps.size(), static_cast<unsigned long long>(total),
              suite.failures, suite.incomplete, jobs, elapsed,
              elapsed > 0 ? apps.size() / elapsed : 0.0,
              static_cast<unsigned long long>(suite.framework_retries),
              suite.framework_retries == 1 ? "y" : "ies");
  std::printf("startup: read+parse %.2fs (%zu packages); warm-up %.2fs "
              "(%zu levels, %llu images and %llu substrates from cache)\n",
              parse_seconds, paths.size(), warmup.seconds, warmup.levels,
              static_cast<unsigned long long>(warmup.image_cache_hits),
              static_cast<unsigned long long>(warmup.substrate_cache_hits));
  if (suite.incremental.any())
    std::printf("incremental: %llu attempted, %llu hits, %llu dirty classes, "
                "%llu fallbacks\n",
                static_cast<unsigned long long>(suite.incremental.attempted),
                static_cast<unsigned long long>(suite.incremental.hits),
                static_cast<unsigned long long>(
                    suite.incremental.dirty_classes),
                static_cast<unsigned long long>(suite.incremental.fallbacks));
  if (sd::shutdown_requested()) {
    std::fprintf(stderr,
                 "batch: interrupted by signal %d — %zu app%s skipped, "
                 "journal sealed%s\n",
                 sd::shutdown_signal(), suite.skipped_rows,
                 suite.skipped_rows == 1 ? "" : "s",
                 journal_path.empty() ? "" : " (rerun with --resume)");
    return sd::kShutdownExitCode;
  }
  return total == 0 && suite.failures == 0 ? 0 : 1;
}

/// `saintdroid coordinate`: publishes the work queue for the given
/// packages into <workdir>, supervises the lease lifecycle until every
/// lease is done (reclaiming expired claims), then merges the worker
/// journals and prints the collected result. `--init-only` stops after
/// publish — the mode for driving supervision from elsewhere. Returns 1 on
/// mismatches/failures/conflicts, 2 on configuration errors, 3 on timeout.
int run_coordinate(const std::string& workdir,
                   const std::vector<std::string>& paths, int lease_size,
                   std::uint64_t ttl_seconds, double timeout_seconds,
                   bool init_only) {
  const std::vector<sd::BenchApp> apps = parse_packages(
      paths, static_cast<int>(sd::ThreadPool::default_workers()));

  sd::CoordinatorOptions plan_options;
  plan_options.lease_size = lease_size;
  const sd::WorkQueue queue = sd::plan_work_queue(apps, paths, plan_options);
  const sd::WorkDir dir{workdir};
  dir.publish(queue, sd::WorkDir::steady_seconds());
  std::printf("coordinate: published %zu apps in %zu leases (corpus %s) "
              "-> %s\n",
              queue.items.size(), queue.leases.size(), queue.corpus.c_str(),
              dir.queue_path().c_str());
  if (init_only) return 0;

  sd::SuperviseOptions supervise_options;
  supervise_options.ttl_seconds = ttl_seconds;
  supervise_options.timeout_seconds = timeout_seconds;
  const sd::SuperviseOutcome outcome = sd::supervise(dir, supervise_options);
  if (!outcome.finished) {
    const sd::WorkDirStatus status = dir.status();
    std::fprintf(stderr,
                 "coordinate: timed out after %.1fs (%d open, %d claimed, "
                 "%d done)\n",
                 timeout_seconds, status.open, status.claimed, status.done);
    return 3;
  }

  const sd::CollectResult collected = sd::collect(dir);
  const std::uint64_t total = print_suite_rows(collected.suite);
  for (const auto& conflict : collected.merge.conflicts)
    std::fprintf(stderr, "coordinate: divergent rows for app %s\n",
                 conflict.app.c_str());
  std::string workers;
  for (const auto& count : collected.suite.worker_lease_counts) {
    if (!workers.empty()) workers += ", ";
    workers += count.worker + "=" + std::to_string(count.leases);
  }
  std::printf("coordinate: %zu apps, %llu mismatches, %d failures, %zu "
              "leases (%zu reclaimed, %d by supervisor), %zu duplicate "
              "row%s, workers [%s] -> %s\n",
              collected.suite.rows.size(),
              static_cast<unsigned long long>(total),
              collected.suite.failures, collected.suite.leases_issued,
              collected.suite.leases_reclaimed, outcome.reclaimed,
              collected.merge.duplicates,
              collected.merge.duplicates == 1 ? "" : "s", workers.c_str(),
              dir.merged_journal_path().c_str());
  return total == 0 && collected.suite.failures == 0 &&
                 collected.merge.clean()
             ? 0
             : 1;
}

/// `saintdroid work`: one worker agent. Claims leases from <workdir> until
/// the queue is drained, analyzing each lease through the same journaled
/// suite path as `batch` (shared mined database, per-app fault isolation)
/// and appending rows to journal-<worker>.jsonl. Safe to run many of these
/// concurrently against one workdir — on one host or many.
int run_work(const std::string& workdir, int jobs, std::string worker,
             const std::string& db_path, const std::string& model_cache_dir,
             std::uint64_t ttl_seconds, int max_leases,
             double queue_wait_seconds) {
  const auto& repo = sd::FrameworkRepository::standard();
  if (jobs <= 0) jobs = static_cast<int>(sd::ThreadPool::default_workers());
  if (worker.empty()) worker = "w" + std::to_string(getpid());

  std::optional<sd::ModelCache> cache;
  if (!model_cache_dir.empty()) cache.emplace(model_cache_dir);
  std::shared_ptr<const sd::ApiDatabase> db;
  if (!db_path.empty())
    db = std::make_shared<const sd::ApiDatabase>(
        sd::ApiDatabase::parse(read_file(db_path)));
  else if (cache)
    db = cache->api_database(repo, jobs);
  else
    db = std::make_shared<const sd::ApiDatabase>(sd::ApiDatabase::mine(repo));

  sd::AgentOptions options;
  options.worker = std::move(worker);
  options.jobs = jobs;
  options.ttl_seconds = ttl_seconds;
  options.queue_wait_seconds = queue_wait_seconds;
  options.max_leases = max_leases;
  options.resolve = [](const sd::WorkItem& item) {
    if (item.path.empty())
      throw sd::Error("work: queue item " + item.name +
                      " carries no package path");
    sd::BenchApp app;
    app.apk = sd::Apk::parse(read_file(item.path));
    return app;
  };
  options.factory = [&repo, &db] {
    return std::make_unique<sd::SaintDroid>(repo, db);
  };
  options.model_cache_dir = model_cache_dir;
  options.repository = &repo;
  options.warmup = [&repo, jobs](std::span<const sd::BenchApp> slice) {
    (void)sd::warm_target_levels(repo, slice, jobs);
  };

  // Graceful shutdown: stop claiming, finish (or journal-and-abandon) the
  // current lease, and exit distinctly; the unmarked claim is reclaimed by
  // TTL or resumed by a restarted worker against the sealed journal.
  sd::install_shutdown_handlers();
  options.interrupted = [] { return sd::shutdown_requested(); };

  const sd::WorkDir dir{workdir};
  const sd::AgentResult result = run_agent(dir, options);
  std::printf("work %s: %d lease%s completed (%d lost, %d reclaimed for "
              "others), %zu apps analyzed, %zu resumed, %d jobs\n",
              options.worker.c_str(), result.leases_completed,
              result.leases_completed == 1 ? "" : "s", result.leases_lost,
              result.leases_reclaimed, result.apps_analyzed,
              result.rows_resumed, result.jobs);
  if (result.interrupted) {
    std::fprintf(stderr, "work %s: interrupted by signal %d — journal "
                 "sealed, claim left for TTL reclaim\n",
                 options.worker.c_str(), sd::shutdown_signal());
    return sd::kShutdownExitCode;
  }
  return 0;
}

/// `saintdroid serve`: the long-lived vetting daemon. Pays every startup
/// cost once (framework, substrate, mined database via the state
/// directory's model cache) and then vets packages on demand over
/// line-delimited JSON — on <statedir>/serve.sock and, with `--stdio`,
/// stdin/stdout (EOF drains and exits 0, the one-shot piping mode).
/// Returns kShutdownExitCode after a graceful SIGINT/SIGTERM. All
/// human-facing chatter goes to stderr; stdout is a response channel.
int run_serve(const std::string& statedir, int jobs, std::size_t queue,
              double deadline, bool stdio, bool no_socket,
              const std::string& incr_cache_dir) {
  sd::install_shutdown_handlers();
  sd::ServeOptions options;
  options.jobs = jobs;
  options.queue_capacity = queue;
  options.budget.deadline_seconds = deadline;
  options.incr_cache_dir = incr_cache_dir;
  const sd::Stopwatch watch;
  sd::VetService service{statedir, options};
  const sd::ServeStats warm = service.stats();
  std::fprintf(stderr,
               "serve: ready in %.2fs (%d jobs, queue %zu, model %s, "
               "%llu replayed) on %s%s\n",
               watch.seconds(), service.jobs(), service.queue_capacity(),
               warm.database_from_cache ? "cached" : "mined",
               static_cast<unsigned long long>(warm.replayed),
               no_socket ? "" : service.paths().socket_path().c_str(),
               stdio ? (no_socket ? "stdio" : " + stdio") : "");

  sd::DaemonOptions daemon;
  daemon.stdio = stdio;
  daemon.socket = !no_socket;
  daemon.interrupted = [] { return sd::shutdown_requested(); };
  const int code = sd::run_serve_daemon(service, daemon);

  const sd::ServeStats stats = service.stats();
  std::fprintf(stderr,
               "serve: exiting (%s) — %llu received, %llu accepted, "
               "%llu completed, %llu cache hits, %llu shed, %llu rejected, "
               "%llu malformed\n",
               code == sd::kShutdownExitCode ? "signal" : "eof",
               static_cast<unsigned long long>(stats.received),
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.completed),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.rejected),
               static_cast<unsigned long long>(stats.malformed));
  return code;
}

/// `saintdroid submit`: client half of `serve`. One request per package
/// over <statedir>/serve.sock; prints the raw response lines. Returns 0
/// when every response is `done`, 1 when any is `failed`/`rejected` (or
/// unparseable), 2 when the daemon cannot be reached.
int run_submit(const std::string& statedir,
               const std::vector<std::string>& paths, double deadline,
               double wait_seconds) {
  std::vector<std::string> lines;
  lines.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    sd::ServeRequest request;
    request.id = "r" + std::to_string(i + 1);
    request.apk_path = paths[i];
    request.deadline_seconds = deadline;
    lines.push_back(sd::serve_request_line(request));
  }
  const std::vector<std::string> responses = sd::submit_over_socket(
      statedir + "/serve.sock", lines, wait_seconds);
  bool all_done = true;
  for (const std::string& line : responses) {
    std::printf("%s\n", line.c_str());
    const auto response = sd::parse_serve_response(line);
    if (!response.has_value() ||
        response->status != sd::ServeStatus::kDone)
      all_done = false;
  }
  return all_done ? 0 : 1;
}

/// `saintdroid merge-journals`: merges per-shard journals into one
/// canonical journal — one row per app, sorted by app name, behind a
/// "merged" header. Identical duplicate rows dedup silently; divergent
/// duplicates are printed (both rows) and make the exit code 1; journals
/// from different corpora/schemas/shard layouts are refused (exit 2).
/// `--stats` additionally prints per-input row/duplicate/resumed counts
/// and the per-shard canonical-row spread.
int run_merge_journals(const std::string& out_path,
                       const std::vector<std::string>& inputs, bool stats) {
  const sd::JournalMerge merge = sd::merge_journals(inputs);
  sd::write_journal(out_path, merge.header, merge.rows);
  if (stats) {
    std::printf("%-40s %-6s %6s %6s %8s %9s %9s %9s\n", "input", "shard",
                "rows", "dups", "resumed", "conflicts", "incompl",
                "canonical");
    std::size_t min_canonical = merge.rows.size();
    std::size_t max_canonical = 0;
    for (const auto& input : merge.inputs) {
      std::string shard = "-";
      if (input.header.has_value())
        shard = input.header->merged()
                    ? "merged"
                    : std::to_string(input.header->shard_index) + "/" +
                          std::to_string(input.header->shard_count);
      std::printf("%-40s %-6s %6zu %6zu %8zu %9zu %9zu %9zu\n",
                  input.path.c_str(), shard.c_str(), input.rows,
                  input.duplicates, input.resumed, input.conflicts,
                  input.incomplete, input.canonical);
      min_canonical = std::min(min_canonical, input.canonical);
      max_canonical = std::max(max_canonical, input.canonical);
    }
    std::printf("canonical-row spread: min %zu, max %zu per input "
                "(skew %.2fx)\n",
                min_canonical, max_canonical,
                min_canonical > 0 ? static_cast<double>(max_canonical) /
                                        static_cast<double>(min_canonical)
                                  : 0.0);
  }
  for (const auto& conflict : merge.conflicts) {
    std::fprintf(stderr,
                 "merge-journals: divergent rows for app %s\n"
                 "  kept:      %s\n"
                 "  discarded: %s\n",
                 conflict.app.c_str(),
                 sd::canonical_row_bytes(conflict.kept).c_str(),
                 sd::canonical_row_bytes(conflict.discarded).c_str());
  }
  std::printf("merged %zu journals -> %s: %zu apps, %zu duplicate row%s "
              "deduped, %zu conflict%s\n",
              inputs.size(), out_path.c_str(), merge.rows.size(),
              merge.duplicates, merge.duplicates == 1 ? "" : "s",
              merge.conflicts.size(), merge.conflicts.size() == 1 ? "" : "s");
  return merge.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--help` anywhere wins: print the usage text to stdout and succeed.
  // The doc-drift lint in ci/verify.sh runs exactly this invocation.
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout);
      return 0;
    }
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  if (command == "batch") {
    std::vector<std::string> paths;
    int jobs = 0;  // 0 -> hardware concurrency
    std::string db_path;
    std::string journal_path;
    std::string model_cache_dir;
    std::string incr_cache_dir;
    bool resume = false;
    int shard_index = 0;
    int shard_count = 1;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
        jobs = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc)
        db_path = argv[++i];
      else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc)
        journal_path = argv[++i];
      else if (std::strcmp(argv[i], "--resume") == 0)
        resume = true;
      else if (std::strcmp(argv[i], "--model-cache") == 0 && i + 1 < argc)
        model_cache_dir = argv[++i];
      else if (std::strcmp(argv[i], "--incr-cache") == 0 && i + 1 < argc)
        incr_cache_dir = argv[++i];
      else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
        if (!parse_shard_spec(argv[++i], shard_index, shard_count))
          return usage();
      } else if (argv[i][0] == '-')
        return usage();
      else
        paths.emplace_back(argv[i]);
    }
    if (paths.empty()) return usage();
    if (resume && journal_path.empty()) return usage();
    try {
      return run_batch(paths, jobs, db_path, journal_path, resume,
                       shard_index, shard_count, model_cache_dir,
                       incr_cache_dir);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  if (command == "merge-journals") {
    // The first non-flag argument is the output journal; every further
    // one is an input.
    bool stats = false;
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--stats") == 0)
        stats = true;
      else if (argv[i][0] == '-')
        return usage();
      else if (out_path.empty())
        out_path = argv[i];
      else
        inputs.emplace_back(argv[i]);
    }
    if (out_path.empty() || inputs.empty()) return usage();
    try {
      return run_merge_journals(out_path, inputs, stats);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  if (command == "coordinate") {
    std::string workdir;
    std::vector<std::string> paths;
    int lease_size = 0;
    std::uint64_t ttl = 60;
    double timeout = 0;
    bool init_only = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--lease-size") == 0 && i + 1 < argc)
        lease_size = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--ttl") == 0 && i + 1 < argc)
        ttl = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc)
        timeout = std::atof(argv[++i]);
      else if (std::strcmp(argv[i], "--init-only") == 0)
        init_only = true;
      else if (argv[i][0] == '-')
        return usage();
      else if (workdir.empty())
        workdir = argv[i];
      else
        paths.emplace_back(argv[i]);
    }
    if (workdir.empty() || paths.empty()) return usage();
    try {
      return run_coordinate(workdir, paths, lease_size, ttl, timeout,
                            init_only);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  if (command == "serve") {
    std::string statedir;
    std::string incr_cache_dir;
    int jobs = 0;  // 0 -> hardware concurrency
    std::size_t queue = 0;  // 0 -> 4 * jobs
    double deadline = 0.0;
    bool stdio = false;
    bool no_socket = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
        jobs = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc)
        queue = static_cast<std::size_t>(std::atoll(argv[++i]));
      else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc)
        deadline = std::atof(argv[++i]);
      else if (std::strcmp(argv[i], "--stdio") == 0)
        stdio = true;
      else if (std::strcmp(argv[i], "--no-socket") == 0)
        no_socket = true;
      else if (std::strcmp(argv[i], "--incr-cache") == 0 && i + 1 < argc)
        incr_cache_dir = argv[++i];
      else if (argv[i][0] == '-')
        return usage();
      else if (statedir.empty())
        statedir = argv[i];
      else
        return usage();
    }
    if (statedir.empty()) return usage();
    if (no_socket && !stdio) return usage();  // need at least one transport
    try {
      return run_serve(statedir, jobs, queue, deadline, stdio, no_socket,
                       incr_cache_dir);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  if (command == "submit") {
    std::string statedir;
    std::vector<std::string> paths;
    double deadline = 0.0;
    double wait = 10.0;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc)
        deadline = std::atof(argv[++i]);
      else if (std::strcmp(argv[i], "--wait") == 0 && i + 1 < argc)
        wait = std::atof(argv[++i]);
      else if (argv[i][0] == '-')
        return usage();
      else if (statedir.empty())
        statedir = argv[i];
      else
        paths.emplace_back(argv[i]);
    }
    if (statedir.empty() || paths.empty()) return usage();
    try {
      return run_submit(statedir, paths, deadline, wait);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  if (command == "work") {
    std::string workdir;
    std::string worker;
    std::string db_path;
    std::string model_cache_dir;
    int jobs = 0;  // 0 -> hardware concurrency
    std::uint64_t ttl = 60;
    int max_leases = 0;
    double wait = 10.0;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
        jobs = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--worker") == 0 && i + 1 < argc)
        worker = argv[++i];
      else if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc)
        db_path = argv[++i];
      else if (std::strcmp(argv[i], "--model-cache") == 0 && i + 1 < argc)
        model_cache_dir = argv[++i];
      else if (std::strcmp(argv[i], "--ttl") == 0 && i + 1 < argc)
        ttl = static_cast<std::uint64_t>(std::atoll(argv[++i]));
      else if (std::strcmp(argv[i], "--max-leases") == 0 && i + 1 < argc)
        max_leases = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--wait") == 0 && i + 1 < argc)
        wait = std::atof(argv[++i]);
      else if (argv[i][0] == '-')
        return usage();
      else if (workdir.empty())
        workdir = argv[i];
      else
        return usage();
    }
    if (workdir.empty()) return usage();
    try {
      return run_work(workdir, jobs, worker, db_path, model_cache_dir, ttl,
                      max_leases, wait);
    } catch (const sd::Error& e) {
      std::fprintf(stderr, "saintdroid: %s\n", e.what());
      return 2;
    }
  }

  bool json = false;
  bool suggest = false;
  std::vector<int> levels;
  std::string db_path;
  std::string model_cache_dir;
  std::string incr_cache_dir;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--suggest") == 0)
      suggest = true;
    else if (std::strcmp(argv[i], "--levels") == 0 && i + 1 < argc)
      levels = parse_levels(argv[++i]);
    else if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc)
      db_path = argv[++i];
    else if (std::strcmp(argv[i], "--model-cache") == 0 && i + 1 < argc)
      model_cache_dir = argv[++i];
    else if (std::strcmp(argv[i], "--incr-cache") == 0 && i + 1 < argc)
      incr_cache_dir = argv[++i];
    else
      return usage();
  }

  try {
    if (command == "mine") {
      const sd::ApiDatabase db =
          sd::ApiDatabase::mine(sd::FrameworkRepository::standard());
      const auto bytes = db.serialize();
      std::ofstream out{path, std::ios::binary};
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      if (!out) throw sd::Error("cannot write " + path);
      std::printf("mined %zu methods, %zu callbacks, %zu permission "
                  "mappings -> %s (%zu bytes)\n",
                  db.method_count(), db.callback_count(),
                  db.permission_mapping_count(), path.c_str(), bytes.size());
      return 0;
    }

    const auto bytes = read_file(path);
    const sd::Apk apk = sd::Apk::parse(bytes);

    if (command == "disasm") {
      std::printf("apk %s (package %s, sdk %d..%d target %d)\n",
                  apk.name.c_str(), apk.manifest.package.c_str(),
                  apk.manifest.min_sdk,
                  apk.manifest.max_sdk ? apk.manifest.max_sdk : 29,
                  apk.manifest.target_sdk);
      for (std::size_t d = 0; d < apk.dexes.size(); ++d) {
        std::printf("-- dex %zu --\n", d);
        std::fputs(sd::disassemble(apk.dexes[d]).c_str(), stdout);
      }
      return 0;
    }
    if (command != "analyze") return usage();

    const auto& repo = sd::FrameworkRepository::standard();
    // Same precedence as batch: --db wins, then the model cache, then a
    // fresh mining pass. The cache also serves the substrate tables.
    std::optional<sd::ModelCache> cache;
    if (!model_cache_dir.empty()) {
      cache.emplace(model_cache_dir);
      cache->attach_substrate_cache(repo);
    }
    std::shared_ptr<const sd::ApiDatabase> db;
    if (!db_path.empty())
      db = std::make_shared<const sd::ApiDatabase>(
          sd::ApiDatabase::parse(read_file(db_path)));
    else if (cache)
      db = cache->api_database(repo);
    else
      db = std::make_shared<const sd::ApiDatabase>(sd::ApiDatabase::mine(repo));
    sd::SaintDroidOptions tool_options;
    if (!incr_cache_dir.empty())
      tool_options.incr_cache =
          std::make_shared<const sd::IncrCache>(incr_cache_dir);
    sd::SaintDroid tool{repo, std::move(db), tool_options};
    const sd::AnalysisResult result =
        levels.empty() ? tool.analyze(apk)
                       : tool.analyze_versions(apk, levels);

    if (json)
      std::printf("%s\n", sd::to_json(result, apk.name).c_str());
    else
      std::fputs(result.to_text(apk.name).c_str(), stdout);

    if (suggest) {
      const auto repairs =
          sd::suggest_repairs(apk.manifest, result.mismatches);
      if (json)
        std::printf("%s\n", sd::to_json(repairs).c_str());
      else
        std::fputs(sd::render_repairs(repairs).c_str(), stdout);
    }
    return result.mismatches.empty() ? 0 : 1;
  } catch (const sd::Error& e) {
    std::fprintf(stderr, "saintdroid: %s\n", e.what());
    return 2;
  }
}
