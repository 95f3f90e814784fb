// saintdroid — command-line front end. `saintdroid --help` prints the
// synopsis of every command, generated from the command table below.
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
//
// A malformed invocation — unknown command or flag, a flag without its
// value, a value that is not a number in the flag's range, missing or
// extra positionals — prints the usage to stderr and exits 2.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "adf/repository.hpp"
#include "core/advisor.hpp"
#include "core/json.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "dex/disasm.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"
#include "support/errors.hpp"
#include "support/meter.hpp"
#include "support/sdmc.hpp"
#include "support/shutdown.hpp"
#include "support/thread_pool.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace sd = saintdroid;

namespace {

/// Started during static initialization: `batch`'s summary reports the
/// process wall from here, startup included.
const sd::Stopwatch process_watch;

// --- the command table ------------------------------------------------------

/// A malformed invocation: main prints the usage to stderr and exits 2.
struct UsageError {};

enum class Value { kSwitch, kString, kInteger, kDecimal };

/// One flag of a command. An integer or decimal value must parse whole
/// and lie in [min, max].
struct Flag {
  const char* name;
  const char* metavar;  ///< shown in --help; empty for a switch
  Value kind;
  double min = 0;
  double max = 0;
  /// A flag this one is meaningless without, or nullptr.
  const char* needs = nullptr;
};

/// Parses `text` whole as a base-10 integer in [min, max].
std::optional<long long> parse_integer(const std::string& text, double min,
                                       double max) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  if (value < min || value > max) return std::nullopt;
  return value;
}

/// Parses `text` whole as a decimal in [min, max] (never NaN).
std::optional<double> parse_decimal(const std::string& text, double min,
                                    double max) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !(value >= min && value <= max)) return std::nullopt;
  return value;
}

/// A parsed invocation: positionals in order, and the last value given
/// for each flag (a switch maps to "").
struct Args {
  std::vector<std::string> positionals;
  std::map<std::string, std::string, std::less<>> values;

  bool has(std::string_view flag) const { return values.count(flag) != 0; }
  std::string text(std::string_view flag) const {
    const auto it = values.find(flag);
    return it == values.end() ? std::string{} : it->second;
  }
  /// The value of an integer flag (checked when parsed), or `fallback`.
  long long integer(std::string_view flag, long long fallback) const {
    return has(flag) ? std::stoll(text(flag)) : fallback;
  }
  /// The value of a decimal flag (checked when parsed), or `fallback`.
  double decimal(std::string_view flag, double fallback) const {
    return has(flag) ? std::strtod(text(flag).c_str(), nullptr) : fallback;
  }
};

struct Command {
  const char* name;
  const char* synopsis;  ///< the positionals, as --help shows them
  std::size_t min_positionals;
  std::size_t max_positionals;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

constexpr std::size_t kMany = SIZE_MAX;
constexpr double kMaxJobs = 1024;
constexpr double kMaxCount = INT_MAX;
constexpr double kMaxSeconds = 1e9;

const Flag kJobs{"--jobs", "N", Value::kInteger, 0, kMaxJobs};
const Flag kDb{"--db", "<file>", Value::kString};
const Flag kModelCache{"--model-cache", "<dir>", Value::kString};
const Flag kIncrCache{"--incr-cache", "<dir>", Value::kString};
const Flag kTtl{"--ttl", "S", Value::kInteger, 0, kMaxSeconds};
const Flag kDeadline{"--deadline", "S", Value::kDecimal, 0, kMaxSeconds};
const Flag kWait{"--wait", "S", Value::kDecimal, 0, kMaxSeconds};

/// Reads `args` against `command`'s table: flags may come before, between
/// or after the positionals; every value is checked against its kind.
Args parse_args(const Command& command, std::span<const std::string> args) {
  Args parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      parsed.positionals.push_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(command.flags.begin(), command.flags.end(),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == command.flags.end()) throw UsageError{};
    std::string value;
    if (flag->kind != Value::kSwitch) {
      if (i + 1 >= args.size()) throw UsageError{};
      value = args[++i];
    }
    if ((flag->kind == Value::kInteger &&
         !parse_integer(value, flag->min, flag->max)) ||
        (flag->kind == Value::kDecimal &&
         !parse_decimal(value, flag->min, flag->max)))
      throw UsageError{};
    parsed.values[arg] = std::move(value);
  }
  if (parsed.positionals.size() < command.min_positionals ||
      parsed.positionals.size() > command.max_positionals)
    throw UsageError{};
  for (const Flag& flag : command.flags)
    if (flag.needs != nullptr && parsed.has(flag.name) &&
        !parsed.has(flag.needs))
      throw UsageError{};
  return parsed;
}

const std::vector<Command>& commands();

/// The usage text, generated from the command table: one synopsis per
/// command, wrapped under its command name. Printed to stderr (error path)
/// or stdout (`--help`); tools/check_doc_drift.sh checks every `--flag`
/// the docs mention against it.
void print_usage(std::FILE* out) {
  constexpr std::size_t kWidth = 78;
  bool first = true;
  for (const Command& command : commands()) {
    std::string line = std::string{first ? "usage: " : "       "} +
                       "saintdroid " + command.name + " ";
    const std::string indent(line.size(), ' ');
    line += command.synopsis;
    for (const Flag& flag : command.flags) {
      const std::string word = std::string{"["} + flag.name +
                               (flag.kind == Value::kSwitch ? "" : " ") +
                               flag.metavar + "]";
      if (line.size() + 1 + word.size() > kWidth) {
        std::fprintf(out, "%s\n", line.c_str());
        line = indent + word;
      } else {
        line += " " + word;
      }
    }
    std::fprintf(out, "%s\n", line.c_str());
    first = false;
  }
  std::fprintf(out, "       saintdroid --help\n");
}

// --- shared helpers ---------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes;
  try {
    bytes = sd::read_file_bytes(path);
  } catch (const sd::Error&) {
  }
  if (!bytes) throw sd::Error("cannot open " + path);
  return *std::move(bytes);
}

/// Fully parses one package's bytes; any error names the path.
sd::Apk parse_package(const std::string& path,
                      std::span<const std::uint8_t> bytes) {
  try {
    return sd::Apk::parse(bytes);
  } catch (const sd::Error& e) {
    throw sd::Error(path + ": " + e.what());
  }
}

/// Reads and fully parses one package; any error names the path.
sd::Apk parse_package(const std::string& path) {
  return parse_package(path, read_file(path));
}

/// What `batch` keeps of its packages between the check pass and the
/// analysis, slot for slot: each app's name (corpus fingerprint, shard
/// slice, resume matching), its manifest target SDK (the warm-up) and the
/// bytes read, which the analyzing worker parses again and then releases.
struct CheckedPackages {
  std::vector<std::string> names;
  std::vector<int> target_levels;
  std::vector<std::vector<std::uint8_t>> bytes;

  /// Keeps only the interleaved slice shard_slice would cut.
  void keep_shard(int index, int count) {
    CheckedPackages slice;
    for (std::size_t i = static_cast<std::size_t>(index); i < names.size();
         i += static_cast<std::size_t>(count)) {
      slice.names.push_back(std::move(names[i]));
      slice.target_levels.push_back(target_levels[i]);
      slice.bytes.push_back(std::move(bytes[i]));
    }
    *this = std::move(slice);
  }
};

/// Reads and fully parses `paths` on `jobs` workers; each worker drops the
/// parsed app and keeps only what CheckedPackages holds. Any unreadable or
/// malformed package fails the whole call — before any analysis or journal
/// row — with the error of the first bad path in input order, whatever
/// order the workers finished.
CheckedPackages check_packages(const std::vector<std::string>& paths,
                               int jobs) {
  CheckedPackages packages;
  packages.names.resize(paths.size());
  packages.target_levels.resize(paths.size());
  packages.bytes.resize(paths.size());
  sd::parallel_for(paths.size(), static_cast<std::size_t>(std::max(jobs, 1)),
                   [&](std::size_t i) {
                     std::vector<std::uint8_t> bytes = read_file(paths[i]);
                     const sd::Apk apk = parse_package(paths[i], bytes);
                     packages.names[i] = apk.name;
                     packages.target_levels[i] = apk.manifest.target_sdk;
                     packages.bytes[i] = std::move(bytes);
                   });
  return packages;
}

/// Parses "a,b,c" into levels; a token that is not an integer is a usage
/// error. Levels outside the modelled range are clamped by the analysis.
std::vector<int> parse_levels(const std::string& arg) {
  std::vector<int> levels;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = arg.find(',', pos);
    const auto level = parse_integer(arg.substr(pos, comma - pos), INT_MIN,
                                     INT_MAX);
    if (!level) throw UsageError{};
    levels.push_back(static_cast<int>(*level));
    if (comma == std::string::npos) return levels;
    pos = comma + 1;
  }
}

/// Parses "i/N" into {i, N}; a malformed spec or i outside [0, N) is a
/// usage error.
std::pair<int, int> parse_shard_spec(const std::string& arg) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos) throw UsageError{};
  const auto count = parse_integer(arg.substr(slash + 1), 1, kMaxCount);
  if (!count) throw UsageError{};
  const auto index = parse_integer(arg.substr(0, slash), 0,
                                   static_cast<double>(*count - 1));
  if (!index) throw UsageError{};
  return {static_cast<int>(*index), static_cast<int>(*count)};
}

/// The analysis model of `analyze`, `batch` and `work` (sd::load_model):
/// `--jobs` (0 or absent: the host's hardware concurrency); the ARM
/// database from the `--db` file, else from the `--model-cache` directory
/// (mined once and stored there), else mined for this run; the model cache
/// attached so framework images and substrates load from it too; and the
/// `--incr-cache` directory as the incremental fact cache.
sd::AnalysisModel load_model(const Args& args) {
  std::shared_ptr<const sd::ApiDatabase> db;
  if (!args.text("--db").empty())
    db = std::make_shared<const sd::ApiDatabase>(
        sd::ApiDatabase::parse(read_file(args.text("--db"))));
  return sd::load_model(sd::FrameworkRepository::standard(),
                        static_cast<int>(args.integer("--jobs", 0)),
                        args.text("--model-cache"), std::move(db),
                        args.text("--incr-cache"));
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

// --- the commands -----------------------------------------------------------

/// `saintdroid analyze`: one package, a text or JSON report, optionally
/// with repair suggestions and across the `--levels` framework versions.
/// Returns 1 when it has mismatches.
int run_analyze(const Args& args) {
  const std::vector<int> levels =
      args.has("--levels") ? parse_levels(args.text("--levels"))
                           : std::vector<int>{};
  const bool json = args.has("--json");
  const sd::Apk apk = sd::Apk::parse(read_file(args.positionals[0]));
  sd::AnalysisModel model = load_model(args);
  sd::SaintDroid tool{model.repo, std::move(model.db), model.options};
  const sd::AnalysisResult result =
      levels.empty() ? tool.analyze(apk) : tool.analyze_versions(apk, levels);

  if (json)
    std::printf("%s\n", sd::to_json(result, apk.name).c_str());
  else
    std::fputs(result.to_text(apk.name).c_str(), stdout);

  if (args.has("--suggest")) {
    const auto repairs = sd::suggest_repairs(apk.manifest, result.mismatches);
    if (json)
      std::printf("%s\n", sd::to_json(repairs).c_str());
    else
      std::fputs(sd::render_repairs(repairs).c_str(), stdout);
  }
  return result.mismatches.empty() ? 0 : 1;
}

/// `saintdroid batch`: checks every package up front (read and fully
/// parsed on `--jobs` workers, keeping only its name, target SDK and
/// bytes), warms the target levels in parallel, then analyzes the apps
/// through the fault-isolated suite harness (one mined database shared by
/// every worker), each parsed again from its bytes on the worker that
/// analyzes it and dropped once its row is written. Prints one line per
/// app in input order. An app whose analysis fails is reported as a
/// structured FAILED row — it never sinks the batch. With `--journal`
/// every finished row is appended to a crash-safe JSONL file; `--resume`
/// skips apps already journaled. Returns 1 when any app has mismatches or
/// failed, 2 on package parse failure.
int run_batch(const Args& args) {
  const auto [shard_index, shard_count] =
      args.has("--shard") ? parse_shard_spec(args.text("--shard"))
                          : std::pair{0, 1};
  const std::string journal_path = args.text("--journal");
  const sd::AnalysisModel model = load_model(args);
  const int jobs = model.jobs;

  const sd::Stopwatch parse_watch;
  CheckedPackages packages = check_packages(args.positionals, jobs);
  const double parse_seconds = parse_watch.seconds();

  // The corpus fingerprint covers the *full* app list — every shard of one
  // run computes the same id, so merge-journals can refuse shards cut from
  // different lists. The shard then analyzes only its interleaved slice.
  const std::string corpus_id = sd::corpus_fingerprint(packages.names);
  if (shard_count > 1) packages.keep_shard(shard_index, shard_count);
  const std::size_t app_count = packages.names.size();

  sd::SuiteRunOptions options;
  options.jobs = jobs;
  options.journal_path = journal_path;
  options.resume = args.has("--resume");
  options.corpus_id = corpus_id;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  // Pre-build the shared framework substrate for every level the batch
  // targets, once, before the worker fan-out, levels in parallel.
  sd::WarmupStats warmup;
  options.warmup = [&] {
    warmup = sd::warm_target_levels(model.repo, packages.target_levels, jobs);
  };

  // Graceful shutdown: SIGINT/SIGTERM stops starting new apps; in-flight
  // apps finish and journal (the journal stays sealed and resumable), the
  // skipped remainder is reported, and the exit code is distinct.
  sd::install_shutdown_handlers();
  options.stop = [] { return sd::shutdown_requested(); };

  // The second parse reads the very bytes the check pass accepted, so a
  // package changed on disk in between cannot make it fail.
  const auto resolve = [&packages](std::size_t i) {
    auto app = std::make_shared<sd::BenchApp>();
    app->apk = sd::Apk::parse(packages.bytes[i]);
    std::vector<std::uint8_t>{}.swap(packages.bytes[i]);
    return sd::SlotApp{std::move(app)};
  };

  const sd::Stopwatch watch;
  const sd::SuiteResult suite = sd::run_suite_parallel(
      [&] {
        return std::make_unique<sd::SaintDroid>(model.repo, model.db,
                                                model.options);
      },
      packages.names, resolve, options);
  const double elapsed = watch.seconds();

  const std::uint64_t total = print_suite_rows(suite);
  if (shard_count > 1)
    std::printf("shard %d/%d (corpus %s): ", shard_index, shard_count,
                corpus_id.c_str());
  std::printf("%zu apps, %llu mismatches, %d failures, %d incomplete, "
              "%d jobs, %.2fs (%.1f apps/sec, %llu framework retr%s), "
              "wall %.2fs\n",
              app_count, static_cast<unsigned long long>(total),
              suite.failures, suite.incomplete, jobs, elapsed,
              elapsed > 0 ? app_count / elapsed : 0.0,
              static_cast<unsigned long long>(suite.framework_retries),
              suite.framework_retries == 1 ? "y" : "ies",
              process_watch.seconds());
  std::printf("startup: read+parse %.2fs (%zu packages); warm-up %.2fs "
              "(%zu levels, %llu images and %llu substrates from cache)\n",
              parse_seconds, args.positionals.size(), warmup.seconds,
              warmup.levels,
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
int run_coordinate(const Args& args) {
  const std::vector<std::string> paths(args.positionals.begin() + 1,
                                       args.positionals.end());
  // Every package is parsed whole, so a corrupt one exits 2 before any
  // queue exists, but only its name and cost are kept: the agents parse
  // the packages again where they analyze them.
  const sd::Stopwatch parse_watch;
  std::vector<sd::WorkItem> items(paths.size());
  sd::parallel_for(paths.size(), sd::ThreadPool::default_workers(),
                   [&](std::size_t i) {
                     const sd::Apk apk = parse_package(paths[i]);
                     items[i].name = apk.name;
                     items[i].path = paths[i];
                     items[i].cost = sd::estimate_app_cost(apk);
                   });
  const double parse_seconds = parse_watch.seconds();

  const sd::Stopwatch publish_watch;
  sd::CoordinatorOptions plan_options;
  plan_options.lease_size = static_cast<int>(args.integer("--lease-size", 0));
  const sd::WorkQueue queue =
      sd::plan_work_queue(std::move(items), plan_options);
  const sd::WorkDir dir{args.positionals[0]};
  dir.publish(queue, sd::WorkDir::steady_seconds());
  const double publish_seconds = publish_watch.seconds();
  std::printf("coordinate: published %zu apps in %zu leases (corpus %s) "
              "-> %s\n",
              queue.items.size(), queue.leases.size(), queue.corpus.c_str(),
              dir.queue_path().c_str());
  std::printf("startup: read+parse %.2fs (%zu packages); publish %.2fs\n",
              parse_seconds, paths.size(), publish_seconds);
  std::fflush(stdout);  // seen while supervision runs, not only at exit
  if (args.has("--init-only")) return 0;

  sd::SuperviseOptions supervise_options;
  supervise_options.ttl_seconds =
      static_cast<std::uint64_t>(args.integer("--ttl", 60));
  supervise_options.timeout_seconds = args.decimal("--timeout", 0.0);
  const sd::SuperviseOutcome outcome = sd::supervise(dir, supervise_options);
  if (!outcome.finished) {
    const sd::WorkDirStatus status = dir.status();
    std::fprintf(stderr,
                 "coordinate: timed out after %.1fs (%d open, %d claimed, "
                 "%d done)\n",
                 supervise_options.timeout_seconds, status.open,
                 status.claimed, status.done);
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
int run_work(const Args& args) {
  const sd::AnalysisModel model = load_model(args);
  const int jobs = model.jobs;

  sd::AgentOptions options;
  options.worker = args.text("--worker");
  if (options.worker.empty()) options.worker = "w" + std::to_string(getpid());
  options.jobs = jobs;
  options.ttl_seconds = static_cast<std::uint64_t>(args.integer("--ttl", 60));
  options.queue_wait_seconds = args.decimal("--wait", 10.0);
  options.max_leases = static_cast<int>(args.integer("--max-leases", 0));
  options.resolve = [](const sd::WorkItem& item) {
    if (item.path.empty())
      throw sd::Error("work: queue item " + item.name +
                      " carries no package path");
    sd::BenchApp app;
    app.apk = parse_package(item.path);
    return app;
  };
  options.factory = [&model] {
    return std::make_unique<sd::SaintDroid>(model.repo, model.db,
                                            model.options);
  };
  options.warmup = [&model, jobs](std::span<const sd::BenchApp> slice) {
    std::vector<int> levels;
    levels.reserve(slice.size());
    for (const auto& app : slice) levels.push_back(app.apk.manifest.target_sdk);
    (void)sd::warm_target_levels(model.repo, levels, jobs);
  };

  // Graceful shutdown: stop claiming, finish (or journal-and-abandon) the
  // current lease, and exit distinctly; the unmarked claim is reclaimed by
  // TTL or resumed by a restarted worker against the sealed journal.
  sd::install_shutdown_handlers();
  options.interrupted = [] { return sd::shutdown_requested(); };

  const sd::WorkDir dir{args.positionals[0]};
  const sd::AgentResult result = run_agent(dir, options);
  std::printf("work %s: %d lease%s completed (%d lost, %d reclaimed for "
              "others), %zu apps analyzed, %zu resumed, %d jobs, lease "
              "resolution %.2fs\n",
              options.worker.c_str(), result.leases_completed,
              result.leases_completed == 1 ? "" : "s", result.leases_lost,
              result.leases_reclaimed, result.apps_analyzed,
              result.rows_resumed, result.jobs, result.resolve_seconds);
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
int run_serve(const Args& args) {
  const bool stdio = args.has("--stdio");
  const bool no_socket = args.has("--no-socket");
  sd::install_shutdown_handlers();
  sd::ServeOptions options;
  options.jobs = static_cast<int>(args.integer("--jobs", 0));
  options.queue_capacity =
      static_cast<std::size_t>(args.integer("--queue", 0));
  options.budget.deadline_seconds = args.decimal("--deadline", 0.0);
  options.incr_cache_dir = args.text("--incr-cache");
  const sd::Stopwatch watch;
  sd::VetService service{args.positionals[0], options};
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
int run_submit(const Args& args) {
  const double deadline = args.decimal("--deadline", 0.0);
  std::vector<std::string> lines;
  for (std::size_t i = 1; i < args.positionals.size(); ++i) {
    sd::ServeRequest request;
    request.id = "r" + std::to_string(i);
    request.apk_path = args.positionals[i];
    request.deadline_seconds = deadline;
    lines.push_back(sd::serve_request_line(request));
  }
  const std::vector<std::string> responses = sd::submit_over_socket(
      args.positionals[0] + "/serve.sock", lines, args.decimal("--wait", 10.0));
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
int run_merge_journals(const Args& args) {
  const std::string& out_path = args.positionals[0];
  const std::vector<std::string> inputs(args.positionals.begin() + 1,
                                        args.positionals.end());
  const sd::JournalMerge merge = sd::merge_journals(inputs);
  sd::write_journal(out_path, merge.header, merge.rows);
  if (args.has("--stats")) {
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

/// `saintdroid disasm`: the package's manifest line and every dex's
/// disassembly.
int run_disasm(const Args& args) {
  const sd::Apk apk = sd::Apk::parse(read_file(args.positionals[0]));
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

/// `saintdroid mine`: mines the ARM database and publishes it
/// rename-atomically, so a crash or a full disk never leaves a torn
/// database at the destination.
int run_mine(const Args& args) {
  const std::string& path = args.positionals[0];
  const sd::ApiDatabase db =
      sd::ApiDatabase::mine(sd::FrameworkRepository::standard());
  const auto bytes = db.serialize();
  try {
    sd::write_file_atomic(path, bytes);
  } catch (const sd::Error&) {
    throw sd::Error("cannot write " + path);
  }
  std::printf("mined %zu methods, %zu callbacks, %zu permission "
              "mappings -> %s (%zu bytes)\n",
              db.method_count(), db.callback_count(),
              db.permission_mapping_count(), path.c_str(), bytes.size());
  return 0;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"analyze", "<apk>", 1, 1,
       {{"--json", "", Value::kSwitch},
        {"--suggest", "", Value::kSwitch},
        {"--levels", "a,b,c", Value::kString},
        kDb, kModelCache, kIncrCache},
       run_analyze},
      {"batch", "<apk>...", 1, kMany,
       {kJobs, kDb,
        {"--shard", "i/N", Value::kString},
        {"--journal", "<file>", Value::kString},
        {"--resume", "", Value::kSwitch, 0, 0, "--journal"},
        kModelCache, kIncrCache},
       run_batch},
      {"merge-journals", "<out-journal> <in-journal>...", 2, kMany,
       {{"--stats", "", Value::kSwitch}},
       run_merge_journals},
      {"coordinate", "<workdir> <apk>...", 2, kMany,
       {{"--lease-size", "N", Value::kInteger, 0, kMaxCount},
        kTtl,
        {"--timeout", "S", Value::kDecimal, 0, kMaxSeconds},
        {"--init-only", "", Value::kSwitch}},
       run_coordinate},
      {"work", "<workdir>", 1, 1,
       {kJobs,
        {"--worker", "NAME", Value::kString},
        kDb, kModelCache, kTtl,
        {"--max-leases", "K", Value::kInteger, 0, kMaxCount},
        kWait},
       run_work},
      {"serve", "<statedir>", 1, 1,
       {kJobs,
        {"--queue", "N", Value::kInteger, 0, kMaxCount},
        kDeadline,
        {"--stdio", "", Value::kSwitch},
        {"--no-socket", "", Value::kSwitch, 0, 0, "--stdio"},
        kIncrCache},
       run_serve},
      {"submit", "<statedir> <apk>...", 2, kMany, {kDeadline, kWait},
       run_submit},
      {"disasm", "<apk>", 1, 1, {}, run_disasm},
      {"mine", "<output-db-file>", 1, 1, {}, run_mine},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  // `--help` anywhere wins: print the usage text to stdout and succeed.
  // The doc-drift lint (tools/check_doc_drift.sh) runs exactly this.
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    print_usage(stdout);
    return 0;
  }
  try {
    const auto command =
        std::find_if(commands().begin(), commands().end(),
                     [&](const Command& c) {
                       return !args.empty() && args[0] == c.name;
                     });
    if (command == commands().end()) throw UsageError{};
    return command->run(
        parse_args(*command, std::span{args}.subspan(1)));
  } catch (const UsageError&) {
    print_usage(stderr);
    return 2;
  } catch (const sd::Error& e) {
    std::fprintf(stderr, "saintdroid: %s\n", e.what());
    return 2;
  }
}
