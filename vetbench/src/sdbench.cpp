// sdbench — the benchmark's input generator, correctness oracle, process
// launcher and open-loop serve client. It never analyzes on behalf of the
// measured system: `gen` computes the reference rows up front, and `run` /
// `serve-leg` only start `saintdroid` processes, feed them the generated
// files and check what comes back.
//
//   sdbench gen <workload> <seed> <outdir> <reference-model-cache>
//   sdbench run --expected F [--watch DIR] [--queue-name N] [--check F]
//               [--log F] --out F -- <cmd>... [--and <cmd>...]
//   sdbench serve-leg --expected F --apps DIR --socket PATH --setup SCHED
//               --sched SCHED [--window N] [--log F] --out F -- <daemon cmd>...
//
// `run` starts every command at once, watches DIR for journal rows (one
// inotify event per flushed row, so each app's completion time is taken
// from outside the process), reaps each child with wait4 for its rusage,
// and checks every row against the reference. `serve-leg` starts the
// daemon, times readiness and the warm-up set, then plays a schedule over
// one socket connection — open loop by due time, or closed loop with a
// fixed window — and checks every response.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "common.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "serve/codec.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

extern char** environ;

namespace sd = saintdroid;
namespace fs = std::filesystem;
using namespace vetbench;

namespace {

// ---------------------------------------------------------------------------
// gen: seeded inputs, reference rows and the ledger oracle
// ---------------------------------------------------------------------------

/// Real seeded issues the analysis does not report, by ledger tag. Only the
/// paper's documented §VI limitation is exempt: call sites and callbacks in
/// runtime-generated classes (hidden_site, hidden_callback; EXPERIMENTS.md,
/// Table II). Those misses are counted apart; a miss with any other tag
/// makes the app's rows wrong, except a known defect's (known_defect).
const std::set<std::string>& limitation_tags() {
  static const std::set<std::string> tags = {"hidden_callback", "hidden_site"};
  return tags;
}

/// True when missing `issue` is the known analysis defect: an unguarded
/// call through an app subclass (tag inherited_receiver) to a framework
/// method that the image of the app's analysis level lacks. The analysis
/// resolves the call against that image, finds nothing, and skips it
/// because the declared receiver is an app class (Aum's unresolved-call
/// path). The same call on a method the image has is found, and so is a
/// direct call to a method the image lacks.
bool is_known_defect(const sd::SeededIssue& issue, const sd::ApiDatabase& db,
                     int level) {
  if (!issue.real || issue.tag != "inherited_receiver" ||
      issue.kind != sd::MismatchKind::kApiInvocation)
    return false;
  const auto levels = db.defined_levels(issue.subject);
  return levels && !levels->contains(level);
}

/// Ledger verdict for one app's findings.
struct LedgerCheck {
  std::size_t unmatched = 0;          ///< findings matching no ledger entry
  std::size_t unexplained_misses = 0; ///< real issues missed, untagged
  std::size_t benign_matched = 0;     ///< findings on benign look-alikes
  std::size_t limitation_misses = 0;  ///< real issues missed, tagged
  std::size_t known_defect_misses = 0;  ///< real issues a known defect misses
  std::map<std::string, std::size_t> tags;  ///< tag of each benign/limit hit
  bool ok() const { return unmatched == 0 && unexplained_misses == 0; }
  bool known() const { return ok() && known_defect_misses != 0; }
};

LedgerCheck check_ledger(const sd::GroundTruth& truth,
                         const std::vector<sd::Mismatch>& findings,
                         const sd::ApiDatabase& db, int level) {
  LedgerCheck check;
  std::map<std::string, const sd::SeededIssue*> real;
  std::map<std::string, const sd::SeededIssue*> benign;
  for (const auto& issue : truth.issues)
    (issue.real ? real : benign).emplace(issue.key(), &issue);
  std::set<std::string> found;
  for (const auto& m : findings) {
    const std::string key = sd::match_key(m);
    if (!found.insert(key).second) continue;
    if (real.count(key) != 0) continue;
    if (const auto it = benign.find(key); it != benign.end()) {
      ++check.benign_matched;
      ++check.tags["benign:" + it->second->tag];
    } else {
      ++check.unmatched;
    }
  }
  for (const auto& [key, issue] : real) {
    if (found.count(key) != 0) continue;
    if (limitation_tags().count(issue->tag) != 0) {
      ++check.limitation_misses;
      ++check.tags["missed:" + issue->tag];
    } else if (is_known_defect(*issue, db, level)) {
      ++check.known_defect_misses;
      ++check.tags["known_defect:" + issue->tag];
    } else {
      ++check.unexplained_misses;
      ++check.tags["unexplained:" + issue->tag];
    }
  }
  // score_detections is the repository's own matcher; the two must agree
  // on how many real issues were found.
  const sd::Score score = sd::score_detections(truth, findings);
  if (score.fn != check.unexplained_misses + check.limitation_misses +
                      check.known_defect_misses)
    ++check.unexplained_misses;
  return check;
}

/// Forwards to the analysis under test and keeps its last result, so one
/// analysis yields both the reference row and the findings for the ledger.
class Recording final : public sd::Analyzer {
 public:
  explicit Recording(sd::Analyzer& inner) : inner_{inner} {}
  std::string_view name() const override { return inner_.name(); }
  sd::AnalysisResult analyze(const sd::Apk& apk) override {
    last = inner_.analyze(apk);
    return last;
  }
  bool detects(sd::MismatchKind kind) const override {
    return inner_.detects(kind);
  }
  sd::AnalysisResult last;

 private:
  sd::Analyzer& inner_;
};

struct GenApp {
  std::string role;
  std::string stem;
  sd::BenchApp app;
};

std::uint64_t mix_seed(std::uint64_t seed, std::string_view salt) {
  std::uint64_t state = seed ^ fnv1a(salt);
  return sd::splitmix64(state);
}

sd::CorpusConfig corpus_config(std::uint64_t seed) {
  sd::CorpusConfig config;
  config.seed = seed;
  // The RQ2 mix with the SEM / SDC / helper-guard strata switched on. No
  // published prevalence exists for these strata; the shares are the ones
  // the repository's own strata corpus uses (bench_table2_accuracy).
  config.semantic_app_fraction = 0.6;
  config.declaration_issue_fraction = 0.5;
  config.helper_guard_fraction = 0.5;
  return config;
}

int level_of(const sd::BenchApp& app) {
  return sd::FrameworkRepository::clamp_level(app.apk.manifest.target_sdk);
}

/// One app per target level used by `apps`, drawn from corpus indices past
/// the stream so warm-up packages never collide with measured ones.
std::vector<GenApp> warmup_set(const sd::RealWorldCorpus& corpus,
                               const std::vector<GenApp>& apps) {
  std::set<int> wanted;
  for (const auto& a : apps) wanted.insert(level_of(a.app));
  std::vector<GenApp> warm;
  for (int index = 3000; index < corpus.size() && !wanted.empty(); ++index) {
    sd::BenchApp app = corpus.generate(index);
    if (wanted.erase(level_of(app)) == 0) continue;
    warm.push_back({"warm", app.apk.name, std::move(app)});
  }
  return warm;
}

std::string schedule_text(const std::vector<std::string>& stems,
                          double rate, sd::Rng& rng) {
  std::string text;
  double due = 0.0;
  char buffer[64];
  for (const auto& stem : stems) {
    std::snprintf(buffer, sizeof buffer, "%.6f\t", due);
    text += buffer;
    text += stem;
    text += "\n";
    if (rate > 0) due += -std::log(1.0 - rng.uniform01()) / rate;
  }
  return text;
}

int cmd_gen(const std::string& workload, std::uint64_t seed,
            const std::string& out, const std::string& refcache) {
  const WorkloadSpec& spec = workload_spec(workload);
  const auto& repo = sd::FrameworkRepository::standard();
  const std::uint64_t base = mix_seed(seed, workload);
  const int jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  std::vector<GenApp> apps;
  std::vector<GenApp> warm;
  std::vector<std::vector<std::string>> chain_stems;  // [version][chain]
  if (workload == "update-stream") {
    sd::VersionChainConfig chains;
    chains.seed = base;
    chains.versions = spec.versions;
    chains.target_loc = spec.chain_loc;
    chains.filler_live_stride = 1;  // fully-live chains
    chain_stems.resize(static_cast<std::size_t>(spec.versions));
    std::vector<GenApp> generated(
        static_cast<std::size_t>(spec.apps * spec.versions));
    sd::ThreadPool pool{static_cast<std::size_t>(jobs)};
    std::vector<std::future<void>> done;
    for (int c = 0; c < spec.apps; ++c)
      done.push_back(pool.submit([&, c] {
        for (int v = 0; v < spec.versions; ++v) {
          sd::BenchApp app = sd::generate_chain_version(repo, chains, c, v);
          const std::string stem = app.apk.name + "-v" + std::to_string(v);
          generated[static_cast<std::size_t>(c * spec.versions + v)] =
              GenApp{v == 0 ? "v0" : "update", stem, std::move(app)};
        }
      }));
    for (auto& f : done) f.get();
    for (int c = 0; c < spec.apps; ++c)
      for (int v = 0; v < spec.versions; ++v)
        chain_stems[static_cast<std::size_t>(v)].push_back(
            generated[static_cast<std::size_t>(c * spec.versions + v)].stem);
    apps = std::move(generated);
    const sd::RealWorldCorpus corpus{repo, corpus_config(base)};
    warm = warmup_set(corpus, apps);
  } else {
    const sd::RealWorldCorpus corpus{repo, corpus_config(base)};
    for (auto& app : corpus.generate_range(0, spec.apps, jobs)) {
      std::string stem = app.apk.name;
      apps.push_back({"app", std::move(stem), std::move(app)});
    }
    warm = warmup_set(corpus, apps);
  }

  std::vector<GenApp*> all;
  for (auto& w : warm) all.push_back(&w);
  for (auto& a : apps) all.push_back(&a);

  // Reference: from-scratch analysis in this process, one facade per
  // worker over one mined database; the findings are scored against the
  // ledger and the canonical row is what every saintdroid command must
  // reproduce byte for byte.
  const sd::ModelCache cache{refcache};
  const auto db = cache.api_database(repo, jobs);
  std::vector<LedgerCheck> checks(all.size());
  std::vector<std::string> rows(all.size());
  {
    sd::ThreadPool pool{static_cast<std::size_t>(jobs)};
    std::vector<std::future<void>> done;
    std::atomic<std::size_t> next{0};
    for (int w = 0; w < jobs; ++w)
      done.push_back(pool.submit([&] {
        sd::SaintDroid saintdroid{repo, db};
        Recording tool{saintdroid};
        for (std::size_t i = next++; i < all.size(); i = next++) {
          const sd::BenchApp& app = all[i]->app;
          const sd::BenchApp unledgered{app.apk, sd::GroundTruth{}};
          rows[i] = sd::canonical_row_bytes(sd::analyze_app_row(tool, unledgered));
          checks[i] = check_ledger(app.truth, tool.last.mismatches, *db,
                                    level_of(app));
        }
      }));
    for (auto& f : done) f.get();
  }

  // Self-test: the oracle must reject a doctored row and doctored findings,
  // and accept a known defect only in its exact form. The probe is a
  // package that passed the ledger and has a real issue that is neither a
  // limitation nor a known defect, so every doctoring below applies.
  bool narrow_tested = false;
  {
    const auto counts = [&](std::size_t i, const sd::SeededIssue& issue) {
      return issue.real && limitation_tags().count(issue.tag) == 0 &&
             !is_known_defect(issue, *db, level_of(all[i]->app));
    };
    const auto probe_fits = [&](std::size_t i) {
      if (!checks[i].ok()) return false;
      for (const auto& issue : all[i]->app.truth.issues)
        if (counts(i, issue)) return true;
      return false;
    };
    std::size_t probe = 0;
    while (probe < all.size() && !probe_fits(probe)) ++probe;
    if (probe == all.size()) throw std::runtime_error("no package fits the self-test");
    std::map<std::string, Expected> expected{
        {all[probe]->stem, Expected{true, false, rows[probe]}}};
    const auto verdict = [&](const sd::SuiteAppRow& row) {
      return check_row(expected, all[probe]->stem, sd::journal_line(row));
    };
    auto row = sd::parse_journal_line(rows[probe]);
    if (!row || verdict(*row) != RowVerdict::kOk)
      throw std::runtime_error("oracle self-test: reference row rejected");
    auto doctored = *row;
    doctored.mismatch_count += 1;
    doctored.scores.api.fp += 1;
    if (verdict(doctored) != RowVerdict::kWrong)
      throw std::runtime_error("oracle self-test: doctored row accepted");
    // The incremental defect's form: other usage counts, on a hit only,
    // with the findings unchanged.
    auto off_row = *row;
    off_row.usage.loaded_classes += 3;
    off_row.usage.peak_bytes += 6000;
    if (verdict(off_row) != RowVerdict::kWrong)
      throw std::runtime_error("oracle self-test: non-incremental usage change accepted");
    off_row.incr.attempted = off_row.incr.fallbacks = 1;
    if (verdict(off_row) != RowVerdict::kWrong)
      throw std::runtime_error("oracle self-test: fallback usage change accepted");
    off_row.incr.fallbacks = 0;
    off_row.incr.hits = 1;
    if (verdict(off_row) != RowVerdict::kKnown)
      throw std::runtime_error("oracle self-test: incremental usage change not known");
    off_row.mismatch_count += 1;
    off_row.scores.api.fp += 1;
    if (verdict(off_row) != RowVerdict::kWrong)
      throw std::runtime_error("oracle self-test: incremental doctored row accepted");

    sd::SaintDroid tool{repo, db};
    const auto drop_one = [&](std::size_t i, auto&& pick) {
      const sd::BenchApp& app = all[i]->app;
      std::vector<sd::Mismatch> findings = tool.analyze(app.apk).mismatches;
      for (const auto& issue : app.truth.issues) {
        if (!pick(issue)) continue;
        const auto it = std::find_if(
            findings.begin(), findings.end(),
            [&](const sd::Mismatch& m) { return sd::match_key(m) == issue.key(); });
        if (it == findings.end()) continue;
        findings.erase(it);
        return std::optional{check_ledger(app.truth, findings, *db, level_of(app))};
      }
      return std::optional<LedgerCheck>{};
    };
    const sd::BenchApp& app = all[probe]->app;
    std::vector<sd::Mismatch> findings = tool.analyze(app.apk).mismatches;
    sd::Mismatch fake;
    fake.location = sd::MethodId{"Lvetbench/Doctored;", "fake", "()V"};
    fake.subject = fake.location;
    findings.push_back(fake);
    if (check_ledger(app.truth, findings, *db, level_of(app)).ok())
      throw std::runtime_error("oracle self-test: invented finding accepted");
    const auto dropped =
        drop_one(probe, [&](const sd::SeededIssue& i) { return counts(probe, i); });
    if (!dropped || dropped->ok())
      throw std::runtime_error("oracle self-test: missed issue accepted");
    // An inherited-receiver call the analysis finds is not the known
    // defect: dropping it must fail the ledger.
    const auto resolvable_inherited = [&](std::size_t i) {
      return [&, i](const sd::SeededIssue& issue) {
        return issue.real && issue.tag == "inherited_receiver" &&
               !is_known_defect(issue, *db, level_of(all[i]->app));
      };
    };
    for (std::size_t i = 0; i < all.size() && !narrow_tested; ++i) {
      const auto& issues = all[i]->app.truth.issues;
      if (std::none_of(issues.begin(), issues.end(), resolvable_inherited(i)))
        continue;
      const auto check = drop_one(i, resolvable_inherited(i));
      if (!check) continue;
      if (check->ok())
        throw std::runtime_error("oracle self-test: found inherited call dropped unnoticed");
      narrow_tested = true;
    }
  }

  fs::create_directories(out + "/apps");
  std::uint64_t hash = fnv1a(workload);
  std::string manifest;
  std::string expected;
  LedgerCheck total;
  std::size_t bad = 0;
  std::size_t known = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const GenApp& g = *all[i];
    const auto bytes = g.app.apk.serialize();
    const std::string_view view{reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()};
    write_text(out + "/apps/" + g.stem + ".apk", view);
    hash = fnv1a(view, fnv1a(g.stem, hash));
    manifest += g.role + "\t" + g.stem + "\t" +
                std::to_string(level_of(g.app)) + "\n";
    const LedgerCheck& c = checks[i];
    expected += g.stem + (c.known() ? "\tknown\t" : c.ok() ? "\tok\t" : "\tbad\t") +
                rows[i] + "\n";
    if (!c.ok()) ++bad;
    if (c.known()) ++known;
    total.unmatched += c.unmatched;
    total.unexplained_misses += c.unexplained_misses;
    total.benign_matched += c.benign_matched;
    total.limitation_misses += c.limitation_misses;
    total.known_defect_misses += c.known_defect_misses;
    for (const auto& [tag, n] : c.tags) total.tags[tag] += n;
  }
  write_text(out + "/manifest.tsv", manifest);
  write_text(out + "/expected.tsv", expected);
  hash = fnv1a(expected, fnv1a(manifest, hash));

  // Schedules: setup set, closed-loop saturation order, the nominal
  // arrivals, and one Poisson arrival schedule per ladder rung.
  std::vector<std::string> setup;
  for (const auto& w : warm) setup.push_back(w.stem);
  std::vector<std::string> stream;
  sd::Rng order_rng{mix_seed(base, "order")};
  if (workload == "update-stream") {
    for (const auto& stem : chain_stems.front()) setup.push_back(stem);
    for (std::size_t v = 1; v < chain_stems.size(); ++v) {
      std::vector<std::string> bump = chain_stems[v];
      std::shuffle(bump.begin(), bump.end(), order_rng);
      stream.insert(stream.end(), bump.begin(), bump.end());
    }
  } else {
    for (const auto& a : apps) stream.push_back(a.stem);
    std::shuffle(stream.begin(), stream.end(), order_rng);
    if (spec.resubmit_share > 0) {
      std::vector<std::string> with_resubmits;
      for (const auto& stem : stream) {
        with_resubmits.push_back(stem);
        if (order_rng.chance(spec.resubmit_share)) {
          const std::size_t back = static_cast<std::size_t>(order_rng.uniform(
              1, static_cast<std::int64_t>(std::min<std::size_t>(
                     20, with_resubmits.size()))));
          with_resubmits.push_back(with_resubmits[with_resubmits.size() - back]);
        }
      }
      stream = std::move(with_resubmits);
    }
  }
  const auto write_schedule = [&](const std::string& leg, std::size_t count,
                                   double rate) {
    sd::Rng rng{mix_seed(base, "arrivals-" + leg)};
    const std::vector<std::string> slice(
        stream.begin(),
        stream.begin() + static_cast<std::ptrdiff_t>(std::min(count, stream.size())));
    const std::string text =
        schedule_text(leg == "setup" ? setup : slice, rate, rng);
    write_text(out + "/sched-" + leg + ".tsv", text);
    hash = fnv1a(text, fnv1a(leg, hash));
  };
  write_schedule("setup", setup.size(), 0);
  if (!spec.ladder.empty()) {
    write_schedule("sat", static_cast<std::size_t>(spec.nominal_requests), 0);
    write_schedule("nominal", static_cast<std::size_t>(spec.nominal_requests),
                   spec.nominal_rate);
    for (std::size_t r = 0; r < spec.ladder.size(); ++r)
      write_schedule("r" + std::to_string(r),
                     static_cast<std::size_t>(spec.rung_requests), spec.ladder[r]);
  }

  std::string tags = "{";
  for (const auto& [tag, n] : total.tags) {
    if (tags.size() > 1) tags += ",";
    tags += "\"" + tag + "\":" + std::to_string(n);
  }
  tags += "}";
  JsonOut oracle;
  oracle.integer("checked", static_cast<long long>(all.size()))
      .integer("bad_apps", static_cast<long long>(bad))
      .integer("unmatched_findings", static_cast<long long>(total.unmatched))
      .integer("unexplained_misses",
               static_cast<long long>(total.unexplained_misses))
      .integer("benign_matched", static_cast<long long>(total.benign_matched))
      .integer("limitation_misses",
               static_cast<long long>(total.limitation_misses))
      .integer("known_defect_apps", static_cast<long long>(known))
      .integer("known_defect_misses",
               static_cast<long long>(total.known_defect_misses))
      .raw("tags", tags)
      .boolean("self_test_passed", true)
      .boolean("self_test_found_inherited_call", narrow_tested);
  JsonOut info;
  info.str("workload", workload)
      .integer("seed", static_cast<long long>(seed))
      .str("content_hash", hex64(hash))
      .integer("apps", static_cast<long long>(apps.size()))
      .integer("warm", static_cast<long long>(warm.size()))
      .integer("setup_requests", static_cast<long long>(setup.size()))
      .integer("stream_requests", static_cast<long long>(stream.size()))
      .nums("ladder", spec.ladder)
      .num("nominal_rate", spec.nominal_rate)
      .integer("queue", spec.queue)
      .integer("nominal_requests", spec.nominal_requests)
      .integer("rung_requests", spec.rung_requests)
      .raw("oracle", oracle.done());
  write_text(out + "/inputs.json", info.done() + "\n");
  std::printf("%s\n", info.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Process control
// ---------------------------------------------------------------------------

pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string sink = log.empty() ? "/dev/null" : log;
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, sink.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  return pid;
}

struct Reaped {
  int code = -1;  ///< exit code, or 128 + signal
  double maxrss_kb = 0;
  double cpu_s = 0;
  double at = 0;  ///< steady-clock time the exit was observed
};

Reaped to_reaped(int status, const rusage& usage) {
  Reaped r;
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  r.maxrss_kb = static_cast<double>(usage.ru_maxrss);
  r.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                       usage.ru_stime.tv_usec);
  r.at = now_seconds();
  return r;
}

/// Reaps `pid` if it has exited (non-blocking unless `block`).
std::optional<Reaped> try_reap(pid_t pid, bool block) {
  int status = 0;
  rusage usage{};
  const pid_t got = wait4(pid, &status, block ? 0 : WNOHANG, &usage);
  if (got != pid) return std::nullopt;
  return to_reaped(status, usage);
}

struct RowTally {
  std::map<RowVerdict, long long> verdicts;
  std::set<std::string> seen;
  long long duplicates = 0;
  long long rows = 0;

  void add(const std::map<std::string, Expected>& expected,
           const std::string& stem, std::string_view line) {
    ++rows;
    const RowVerdict verdict = check_row(expected, stem, line);
    if (!seen.insert(stem).second && accepted(verdict)) {
      ++duplicates;  // a re-executed lease: identical, not a second result
      return;
    }
    ++verdicts[verdict];
  }
  std::string json() const {
    JsonOut out;
    for (const auto v : {RowVerdict::kOk, RowVerdict::kKnown, RowVerdict::kUnknown,
                         RowVerdict::kWrong, RowVerdict::kFailed,
                         RowVerdict::kIncomplete}) {
      const auto it = verdicts.find(v);
      out.integer(verdict_name(v), it == verdicts.end() ? 0 : it->second);
    }
    out.integer("duplicates", duplicates)
        .integer("distinct", static_cast<long long>(seen.size()))
        .integer("rows", rows);
    return out.done();
  }
};

/// Follows the journals appended in one directory: every complete new row
/// line is checked and its arrival time recorded.
class JournalFollower {
 public:
  JournalFollower(std::string dir, const std::map<std::string, Expected>& expected)
      : dir_(std::move(dir)), expected_(&expected) {}

  void poll_file(const std::string& name, double t) {
    if (name.size() < 6 || name.compare(name.size() - 6, 6, ".jsonl") != 0 ||
        name == "merged.jsonl")
      return;
    std::FILE* f = std::fopen((dir_ + "/" + name).c_str(), "rb");
    if (f == nullptr) return;
    auto& state = files_[name];
    std::fseek(f, static_cast<long>(state.offset), SEEK_SET);
    char buffer[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
      state.offset += n;
      state.pending.append(buffer, n);
    }
    std::fclose(f);
    std::size_t start = 0;
    for (std::size_t nl; (nl = state.pending.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string_view line{state.pending.data() + start, nl - start};
      if (line.empty() || sd::parse_journal_header(line).has_value()) continue;
      const auto row = sd::parse_journal_line(line);
      tally.add(*expected_, row ? row->app : std::string{"?"}, line);
      latencies.push_back(t);
    }
    state.pending.erase(0, start);
  }

  void poll_all(double t) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec))
      poll_file(entry.path().filename().string(), t);
  }

  RowTally tally;
  std::vector<double> latencies;  ///< absolute arrival times

 private:
  struct FileState {
    std::size_t offset = 0;
    std::string pending;
  };
  std::string dir_;
  const std::map<std::string, Expected>* expected_;
  std::map<std::string, FileState> files_;
};

int cmd_run(const std::vector<std::string>& args) {
  std::string expected_path, watch, queue_name, check, log, out;
  std::vector<std::vector<std::string>> commands;
  std::size_t i = 0;
  for (; i < args.size() && args[i] != "--"; ++i) {
    const std::string& a = args[i];
    const std::string value = i + 1 < args.size() ? args[i + 1] : "";
    if (a == "--expected") expected_path = value;
    else if (a == "--watch") watch = value;
    else if (a == "--queue-name") queue_name = value;
    else if (a == "--check") check = value;
    else if (a == "--log") log = value;
    else if (a == "--out") out = value;
    else throw std::runtime_error("run: unknown option " + a);
    ++i;
  }
  commands.emplace_back();
  for (++i; i < args.size(); ++i) {
    if (args[i] == "--and") commands.emplace_back();
    else commands.back().push_back(args[i]);
  }
  if (commands.front().empty() || out.empty())
    throw std::runtime_error("run: no command or no --out");
  const auto expected = load_expected(expected_path);

  int inotify_fd = -1;
  if (!watch.empty()) {
    inotify_fd = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (inotify_fd < 0 ||
        inotify_add_watch(inotify_fd, watch.c_str(),
                          IN_MODIFY | IN_CREATE | IN_MOVED_TO) < 0)
      throw std::runtime_error("run: cannot watch " + watch);
  }
  JournalFollower follower{watch, expected};

  const double t0 = now_seconds();
  std::vector<pid_t> pids;
  for (const auto& cmd : commands) pids.push_back(spawn(cmd, log));
  std::vector<std::optional<Reaped>> reaped(pids.size());
  double queue_at = -1;
  const double deadline = t0 + 60.0;  // a hung leg is killed, not waited on
  std::size_t live = pids.size();
  alignas(inotify_event) char events[1 << 14];
  while (live > 0) {
    if (inotify_fd >= 0) {
      pollfd p{inotify_fd, POLLIN, 0};
      ::poll(&p, 1, 5);
      for (ssize_t n; (n = ::read(inotify_fd, events, sizeof events)) > 0;) {
        const double t = now_seconds();
        for (char* at = events; at < events + n;) {
          const auto* ev = reinterpret_cast<const inotify_event*>(at);
          if (ev->len > 0) {
            const std::string name = ev->name;
            if (queue_at < 0 && name == queue_name) queue_at = t;
            follower.poll_file(name, t);
          }
          at += sizeof(inotify_event) + ev->len;
        }
      }
    } else {
      ::usleep(2000);
    }
    for (std::size_t k = 0; k < pids.size(); ++k) {
      if (reaped[k]) continue;
      if ((reaped[k] = try_reap(pids[k], false))) --live;
    }
    if (live > 0 && now_seconds() > deadline) {
      for (std::size_t k = 0; k < pids.size(); ++k)
        if (!reaped[k]) ::kill(pids[k], SIGKILL);
      for (std::size_t k = 0; k < pids.size(); ++k)
        if (!reaped[k] && (reaped[k] = try_reap(pids[k], true))) --live;
    }
  }
  if (inotify_fd >= 0) {
    follower.poll_all(now_seconds());  // rows flushed just before exit
    ::close(inotify_fd);
  }

  RowTally checked;
  if (!check.empty()) {
    std::string text;
    try {
      text = read_text(check);
    } catch (const std::exception&) {
    }
    for (const auto& line : split(text, '\n')) {
      if (line.empty() || sd::parse_journal_header(line).has_value()) continue;
      const auto row = sd::parse_journal_line(line);
      checked.add(expected, row ? row->app : std::string{"?"}, line);
    }
  }

  std::vector<double> codes, rss, cpu, latencies;
  for (const auto& r : reaped) {
    codes.push_back(r->code);
    rss.push_back(r->maxrss_kb);
    cpu.push_back(r->cpu_s);
  }
  for (const double t : follower.latencies) latencies.push_back(t - t0);
  JsonOut json;
  json.num("wall_s", reaped.front()->at - t0)
      .num("queue_s", queue_at < 0 ? -1.0 : queue_at - t0)
      .nums("codes", codes)
      .nums("maxrss_kb", rss)
      .nums("cpu_s", cpu)
      .nums("row_s", latencies)
      .raw("rows", follower.tally.json())
      .raw("checked", checked.json());
  write_text(out, json.done() + "\n");
  return 0;
}

// ---------------------------------------------------------------------------
// serve-leg: one daemon lifetime, warm-up, then one schedule
// ---------------------------------------------------------------------------

int connect_socket(const std::string& path, double timeout) {
  const double until = now_seconds() + timeout;
  while (true) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    if (now_seconds() > until) return -1;
    ::usleep(500);
  }
}

/// Plays one schedule over an open connection and records every response.
class Player {
 public:
  Player(int fd, const std::map<std::string, Expected>& expected,
         std::string apps_dir)
      : fd_(fd), expected_(&expected), apps_dir_(std::move(apps_dir)) {}

  struct Outcome {
    std::vector<double> latency_ms;  ///< per request, schedule order; <0 = none
    std::vector<double> lateness_ms;
    std::map<std::string, long long> counts;
    double first_send = 0, last_recv = 0, span_due = 0;
  };

  /// window == 0: open loop by due time; otherwise at most `window`
  /// requests outstanding (closed loop, the saturation and warm-up mode).
  Outcome play(const std::vector<Scheduled>& schedule, int window,
               double drain_timeout) {
    Outcome o;
    const std::size_t n = schedule.size();
    due_.assign(n, 0);
    sent_.assign(n, -1);
    recv_.assign(n, -1);
    lines_.assign(n, std::string{});
    received_ = 0;
    ++play_;
    stop_ = false;
    std::thread reader([this, n] { read_loop(n); });
    const double start = now_seconds() + 0.005;
    for (std::size_t i = 0; i < n; ++i) {
      if (window > 0) {
        std::unique_lock lock{mutex_};
        cv_.wait(lock, [&] { return i - received_ < static_cast<std::size_t>(window); });
      } else {
        due_[i] = start + schedule[i].due;
        const double wait = due_[i] - now_seconds();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      sd::ServeRequest request;
      request.id = schedule[i].stem + "#" + std::to_string(play_) + ":" +
                   std::to_string(i);
      request.apk_path = apps_dir_ + "/" + schedule[i].stem + ".apk";
      const std::string line = sd::serve_request_line(request) + "\n";
      {
        const std::lock_guard lock{mutex_};
        sent_[i] = now_seconds();
        if (window > 0) due_[i] = sent_[i];
      }
      if (!write_all(line)) break;
    }
    {
      std::unique_lock lock{mutex_};
      cv_.wait_for(lock, std::chrono::duration<double>(drain_timeout),
                   [&] { return received_ == n; });
    }
    stop_ = true;
    reader.join();

    o.first_send = n ? sent_.front() : 0;
    o.span_due = n ? due_.back() - due_.front() : 0;
    for (std::size_t i = 0; i < n; ++i) {
      o.lateness_ms.push_back(sent_[i] < 0 ? -1 : 1e3 * (sent_[i] - due_[i]));
      if (recv_[i] < 0) {
        ++o.counts["timed_out"];
        o.latency_ms.push_back(-1);
        continue;
      }
      o.last_recv = std::max(o.last_recv, recv_[i]);
      const auto response = sd::parse_serve_response(lines_[i]);
      if (!response) {
        ++o.counts["malformed"];
        o.latency_ms.push_back(-1);
        continue;
      }
      if (response->status == sd::ServeStatus::kRejected) {
        ++o.counts[response->reason == "overloaded" ? "shed" : "rejected"];
        o.latency_ms.push_back(-1);
        continue;
      }
      if (response->cached) ++o.counts["cached"];
      // A resubmitted stem legitimately answers twice; count each response.
      ++o.counts[verdict_name(check_row(*expected_, schedule[i].stem, lines_[i]))];
      o.latency_ms.push_back(1e3 * (recv_[i] - due_[i]));
    }
    return o;
  }

 private:
  bool write_all(std::string_view data) {
    while (!data.empty()) {
      const ssize_t w = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (w <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(w));
    }
    return true;
  }

  /// Reads responses until all `n` of this play arrived or stop_ is set.
  /// Lines left over from an earlier play carry its number and are dropped.
  void read_loop(std::size_t n) {
    char chunk[1 << 16];
    std::size_t got = 0;
    while (got < n && !stop_) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
      if (r <= 0) return;
      const double t = now_seconds();
      buffer_.append(chunk, static_cast<std::size_t>(r));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const std::string line = buffer_.substr(start, nl - start);
        const std::size_t hash = line.find('#');
        if (hash == std::string::npos) continue;
        char* end = nullptr;
        const long play = std::strtol(line.c_str() + hash + 1, &end, 10);
        if (play != play_ || *end != ':') continue;
        const std::size_t index =
            static_cast<std::size_t>(std::strtoll(end + 1, nullptr, 10));
        const std::lock_guard lock{mutex_};
        if (index >= n || recv_[index] >= 0) continue;
        recv_[index] = t;
        lines_[index] = line;
        ++received_;
        ++got;
        cv_.notify_all();
      }
      buffer_.erase(0, start);
    }
  }

  int fd_;
  const std::map<std::string, Expected>* expected_;
  std::string apps_dir_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<double> due_, sent_, recv_;
  std::vector<std::string> lines_;
  std::size_t received_ = 0;
  std::string buffer_;  ///< partial response line carried across reads
  long play_ = 0;
  std::atomic<bool> stop_{false};
};

std::string counts_json(const std::map<std::string, long long>& counts) {
  JsonOut out;
  for (const auto& [k, v] : counts) out.integer(k, v);
  return out.done();
}

int cmd_serve_leg(const std::vector<std::string>& args) {
  std::string expected_path, apps, socket_path, setup_path, sched_path, log, out;
  int window = 0;
  std::size_t i = 0;
  for (; i < args.size() && args[i] != "--"; ++i) {
    const std::string& a = args[i];
    const std::string value = i + 1 < args.size() ? args[i + 1] : "";
    if (a == "--expected") expected_path = value;
    else if (a == "--apps") apps = value;
    else if (a == "--socket") socket_path = value;
    else if (a == "--setup") setup_path = value;
    else if (a == "--sched") sched_path = value;
    else if (a == "--window") window = std::stoi(value);
    else if (a == "--log") log = value;
    else if (a == "--out") out = value;
    else throw std::runtime_error("serve-leg: unknown option " + a);
    ++i;
  }
  const std::vector<std::string> daemon(args.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(i + 1, args.size())),
                                         args.end());
  if (daemon.empty() || out.empty())
    throw std::runtime_error("serve-leg: no daemon command or no --out");
  const auto expected = load_expected(expected_path);
  const auto setup = load_schedule(setup_path);
  const auto schedule = load_schedule(sched_path);

  const double t0 = now_seconds();
  const pid_t pid = spawn(daemon, log);
  const int fd = connect_socket(socket_path, 30.0);
  const double ready = now_seconds();
  JsonOut json;
  if (fd < 0) {
    ::kill(pid, SIGKILL);
    try_reap(pid, true);
    json.boolean("connected", false);
    write_text(out, json.done() + "\n");
    return 1;
  }
  Player player{fd, expected, apps};
  const Player::Outcome warm = player.play(setup, 8, 60.0);
  const double setup_done = now_seconds();
  const Player::Outcome leg = player.play(schedule, window, 20.0);
  ::close(fd);
  ::kill(pid, SIGTERM);
  const Reaped reaped = *try_reap(pid, true);

  json.boolean("connected", true)
      .num("ready_s", ready - t0)
      .num("setup_s", setup_done - t0)
      .raw("setup_counts", counts_json(warm.counts))
      .integer("requests", static_cast<long long>(schedule.size()))
      .raw("counts", counts_json(leg.counts))
      .nums("latency_ms", leg.latency_ms)
      .nums("lateness_ms", leg.lateness_ms)
      .num("first_send", leg.first_send - t0)
      .num("last_recv", leg.last_recv - t0)
      .num("span_due", leg.span_due)
      .integer("code", reaped.code)
      .num("maxrss_kb", reaped.maxrss_kb)
      .num("cpu_s", reaped.cpu_s);
  write_text(out, json.done() + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    if (command == "gen" && args.size() == 4)
      return cmd_gen(args[0], std::stoull(args[1]), args[2], args[3]);
    if (command == "run") return cmd_run(args);
    if (command == "serve-leg") return cmd_serve_leg(args);
    if (command == "env") {
      std::printf("%u\n", std::thread::hardware_concurrency());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdbench %s: %s\n", command.c_str(), e.what());
    return 3;
  }
  std::fprintf(stderr,
               "usage: sdbench gen <workload> <seed> <outdir> <refcache>\n"
               "       sdbench run [options] -- <cmd>... [--and <cmd>...]\n"
               "       sdbench serve-leg [options] -- <daemon cmd>...\n");
  return 2;
}
