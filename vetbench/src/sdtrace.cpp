// sdtrace — the traced replay behind `run.py --trace 1`.
//
//   sdtrace <workload> <inputs-dir> <work-dir> <metrics.json> <spans.json> <jobs>
//
// Replays one workload in process over the inputs `sdbench gen` wrote,
// calling each layer's public functions in the order the CLI does and
// recording a span around every call: name (the layer), start, end, parent
// span, thread and request id. The replay runs several times from the same
// state, with spans off and with spans on; the difference in wall time is
// the tracing overhead. Spans stay in memory and are written at exit as
// Chrome trace-event JSON (open in Perfetto or chrome://tracing).
//
// Two calls sit inside other layers and cannot be wrapped from outside:
// lazy CLVM class loads (inside Aum::model) are timed through a forwarding
// ClassProvider, and the harness's own journal appends are measured by
// appending the finished rows through JournalWriter after the suite.
// Inside the serve daemon's workers no call is visible, so the serve
// workloads replay their request sequence a second time through the traced
// analysis path (segment "analysis") after the VetService segment.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "adf/repository.hpp"
#include "clvm/clvm.hpp"
#include "common.hpp"
#include "core/amd.hpp"
#include "core/aum.hpp"
#include "core/incr_cache.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "serve/service.hpp"
#include "support/thread_pool.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace sd = saintdroid;
namespace fs = std::filesystem;
using namespace vetbench;

namespace {

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0, end = 0;
  long id = 0, parent = 0, request = -1;
  int thread = 0;
};

class Tracer {
 public:
  bool enabled = false;

  long open_id() { return enabled ? ++next_id_ : 0; }
  void add(Span span) {
    if (!enabled) return;
    span.thread = thread_index();
    const std::lock_guard lock{mutex_};
    spans_.push_back(std::move(span));
  }
  std::vector<Span> take() {
    const std::lock_guard lock{mutex_};
    return std::move(spans_);
  }

  static thread_local long current;   ///< innermost open span on this thread
  static thread_local long request;   ///< request id of work on this thread

 private:
  int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = ++next;
    return index;
  }
  std::atomic<long> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};
thread_local long Tracer::current = 0;
thread_local long Tracer::request = -1;

Tracer tracer;

/// RAII span under the thread's current span. Work handed to another thread
/// sets Tracer::current there first.
class Scope {
 public:
  explicit Scope(std::string name)
      : id_(tracer.open_id()), saved_(Tracer::current) {
    if (!tracer.enabled) return;
    span_.name = std::move(name);
    span_.id = id_;
    span_.parent = Tracer::current;
    span_.request = Tracer::request;
    span_.start = now_seconds();
    Tracer::current = id_;
  }
  ~Scope() {
    if (!tracer.enabled) return;
    span_.end = now_seconds();
    Tracer::current = saved_;
    tracer.add(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(std::string name) { span_.name = std::move(name); }
  long id() const { return id_; }

 private:
  long id_;
  long saved_;
  Span span_;
};

/// Counters gathered at the same boundaries as the spans.
struct Counters {
  std::atomic<long long> images{0}, substrates{0}, classes{0}, mismatches{0};
  std::atomic<long long> mc_hits{0}, mc_misses{0}, mc_bytes{0};
  std::atomic<long long> incr_attempted{0}, incr_hits{0}, incr_fallbacks{0};
  std::atomic<long long> parse_bytes{0}, journal_bytes{0};
  std::mutex mutex;
  std::vector<double> dirty_fractions;
  std::vector<double> clvm_load_s;  ///< lazy-load time, per analysis
  void reset() {
    for (auto* c : {&images, &substrates, &classes, &mismatches, &mc_hits,
                    &mc_misses, &mc_bytes, &incr_attempted, &incr_hits,
                    &incr_fallbacks, &parse_bytes, &journal_bytes})
      *c = 0;
    dirty_fractions.clear();
    clvm_load_s.clear();
  }
};
Counters counters;

// ---------------------------------------------------------------------------
// Traced analysis path: SaintDroid::analyze with a span around every layer
// ---------------------------------------------------------------------------

/// Forwards to the lazy CLVM and times every load the hierarchy and AUM ask
/// for, so lazy class loading is charged to clvm, not to core.aum.
class TimedProvider final : public sd::ClassProvider {
 public:
  explicit TimedProvider(std::unique_ptr<sd::ClassProvider> inner)
      : inner_(std::move(inner)) {}
  const sd::LoadedClass* load(const std::string& name) override {
    const double t = now_seconds();
    const auto* cls = inner_->load(name);
    seconds_ += now_seconds() - t;
    return cls;
  }
  const sd::LoadedClass* load_framework(const sd::LoadedClass* cls,
                                        std::uint32_t slot) override {
    const double t = now_seconds();
    const auto* loaded = inner_->load_framework(cls, slot);
    seconds_ += now_seconds() - t;
    return loaded;
  }
  std::uint64_t loaded_class_count() const override {
    return inner_->loaded_class_count();
  }
  const sd::MemoryMeter& memory() const override { return inner_->memory(); }
  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<sd::ClassProvider> inner_;
  double seconds_ = 0;
};

/// Emits `level`'s image and binds its substrate, spanned as emission and
/// as a cache rebind or a fresh build (whichever the repository did).
void warm_level(const sd::FrameworkRepository& repo, int level) {
  {
    Scope s{"adf.image_emit"};
    (void)repo.image(level);
  }
  const auto hits = repo.substrate_cache_hits();
  const auto builds = repo.substrate_build_count();
  Scope s{"clvm.substrate"};
  (void)repo.substrate(level);
  if (repo.substrate_cache_hits() != hits) {
    s.rename("clvm.substrate_rebind");
    ++counters.substrates;
    ++counters.mc_hits;
  } else if (repo.substrate_build_count() != builds) {
    s.rename("clvm.substrate_build");
    ++counters.substrates;
    if (!repo.model_cache_dir().empty()) ++counters.mc_misses;
  }
}

/// Warms `levels` on `repo`, counting each image the first time this
/// repository is asked for it (later calls find it emitted).
std::mutex emitted_mutex;
std::map<const sd::FrameworkRepository*, std::set<int>> emitted;

void warm_levels(const sd::FrameworkRepository& repo, const std::set<int>& levels) {
  for (const int level : levels) {
    warm_level(repo, level);
    const std::lock_guard lock{emitted_mutex};
    if (emitted[&repo].insert(level).second) ++counters.images;
  }
}

class TracedAnalyzer final : public sd::Analyzer {
 public:
  TracedAnalyzer(const sd::FrameworkRepository& repo,
                 std::shared_ptr<const sd::ApiDatabase> db,
                 std::shared_ptr<const sd::IncrCache> incr,
                 std::atomic<double>* busy = nullptr)
      : repo_(&repo), db_(std::move(db)), incr_(std::move(incr)), busy_(busy) {}

  std::string_view name() const override { return "SAINTDroid"; }
  bool detects(sd::MismatchKind) const override { return true; }

  sd::AnalysisResult analyze(const sd::Apk& apk) override {
    const double started = now_seconds();
    Scope app{"analysis"};
    sd::AnalysisResult result = analyze_at_level(
        apk, sd::FrameworkRepository::clamp_level(apk.manifest.target_sdk));
    counters.classes += static_cast<long long>(result.usage.loaded_classes);
    counters.mismatches += static_cast<long long>(result.mismatches.size());
    if (busy_ != nullptr) {
      double seen = busy_->load();
      const double add = now_seconds() - started;
      while (!busy_->compare_exchange_weak(seen, seen + add)) {
      }
    }
    return result;
  }

 private:
  /// The full and incremental paths of SaintDroid::analyze_at_level under
  /// default options, with spans.
  sd::AnalysisResult analyze_at_level(const sd::Apk& apk, int level) {
    sd::AnalysisResult result;
    const double started = now_seconds();
    const sd::DexFile* framework = &repo_->image(level);
    const auto substrate = repo_->substrate(level);
    const sd::SaintDroidOptions options;

    const auto make_provider = [&](sd::BudgetTracker& budget) {
      Scope s{"clvm.load"};
      return std::make_unique<TimedProvider>(std::make_unique<sd::ClassLoaderVm>(
          apk, *framework, true, nullptr, &budget, substrate));
    };
    const auto finish = [&](const sd::UsageModel& model,
                            const TimedProvider& provider) {
      {
        Scope s{"core.amd.detect"};
        sd::Amd amd{*db_, options.amd};
        result.mismatches = amd.detect(apk.manifest, model);
      }
      result.usage.seconds = now_seconds() - started;
      result.usage.peak_bytes = provider.memory().peak_bytes();
      result.usage.loaded_classes = provider.loaded_class_count();
      const std::lock_guard lock{counters.mutex};
      counters.clvm_load_s.push_back(provider.seconds());
    };

    sd::ApkFingerprints fingerprints;
    std::uint64_t manifest_fp = 0, options_fp = 0;
    if (incr_) {
      result.incremental.attempted = 1;
      ++counters.incr_attempted;
      std::optional<sd::IncrEntry> cached;
      {
        Scope s{"core.incr_cache.dirty"};
        fingerprints = sd::fingerprint_apk(apk);
        manifest_fp = sd::manifest_fingerprint(apk.manifest);
        options_fp = sd::aum_options_fingerprint(options.aum);
      }
      {
        Scope s{"core.incr_cache.load"};
        cached = incr_->try_load(*repo_, apk.name, level);
      }
      if (cached &&
          (cached->manifest_fp != manifest_fp || cached->options_fp != options_fp))
        cached.reset();
      if (cached) {
        std::optional<sd::DirtyDelta> delta;
        std::unordered_set<std::string> dirty_targets;
        std::vector<sd::Aum::CleanClass> clean;
        {
          Scope s{"core.incr_cache.dirty"};
          delta = sd::compute_dirty(*cached, fingerprints);
          dirty_targets = delta->dirty;
          for (bool grew = true; grew;) {
            grew = false;
            for (const auto& [name, fp] : fingerprints) {
              if (dirty_targets.count(name) != 0) continue;
              bool hit = !fp.super_name.empty() &&
                         dirty_targets.count(fp.super_name) != 0;
              for (const auto& iface : fp.interfaces)
                if (hit) break;
                else hit = dirty_targets.count(iface) != 0;
              if (hit) {
                dirty_targets.insert(name);
                grew = true;
              }
            }
          }
          clean.reserve(cached->classes.size());
          for (const auto& [name, record] : cached->classes) {
            if (delta->dirty.count(name) != 0) continue;
            sd::Aum::CleanClass cc;
            cc.name = &name;
            cc.trace = &record.trace;
            if (const auto it = fingerprints.find(name); it != fingerprints.end()) {
              cc.seed_candidate = false;
              for (const auto& ref : it->second.refs)
                if (dirty_targets.count(ref) != 0) {
                  cc.seed_candidate = true;
                  break;
                }
            }
            clean.push_back(cc);
          }
        }
        if (delta->fraction() <= options.max_dirty_fraction) {
          sd::BudgetTracker budget{options.budget};
          auto provider = make_provider(budget);
          sd::ClassHierarchy hierarchy{*provider, substrate.get()};
          sd::UsageModel model;
          sd::ExplorationTrace dirty_trace;
          bool usable = false;
          {
            Scope s{"core.aum.model"};
            sd::Aum aum{hierarchy, *db_, options.aum, &budget};
            sd::Aum::IncrementalScope scope;
            scope.dirty = &delta->dirty;
            scope.clean = clean;
            scope.dirty_targets = &dirty_targets;
            model = aum.model_incremental(apk, scope, &dirty_trace);
            usable = !aum.scope_violation() && !model.incomplete;
          }
          if (usable) {
            result.incremental.hits = 1;
            result.incremental.dirty_classes = delta->dirty.size();
            ++counters.incr_hits;
            {
              const std::lock_guard lock{counters.mutex};
              counters.dirty_fractions.push_back(delta->fraction());
            }
            std::optional<sd::IncrEntry> updated;
            {
              Scope s{"core.incr_cache.splice"};
              if (delta->fraction() >= options.refresh_dirty_fraction)
                updated = sd::update_incr_entry(*cached, delta->dirty,
                                                fingerprints, dirty_trace, model);
              sd::splice_clean_facts(*cached, delta->dirty, model);
            }
            finish(model, *provider);
            if (updated) {
              Scope s{"core.incr_cache.store"};
              try {
                incr_->store(*repo_, level, *updated);
              } catch (const sd::Error&) {
              }
            }
            return result;
          }
        }
      }
      result.incremental.fallbacks = 1;
      ++counters.incr_fallbacks;
    }

    sd::BudgetTracker budget{options.budget};
    auto provider = make_provider(budget);
    sd::ClassHierarchy hierarchy{*provider, substrate.get()};
    sd::UsageModel model;
    sd::ExplorationTrace trace;
    {
      Scope s{"core.aum.model"};
      sd::Aum aum{hierarchy, *db_, options.aum, &budget};
      model = aum.model(apk, incr_ ? &trace : nullptr);
    }
    finish(model, *provider);
    if (incr_ && !model.incomplete) {
      Scope s{"core.incr_cache.store"};
      try {
        incr_->store(*repo_, level,
                     sd::make_incr_entry(apk.name, manifest_fp, options_fp,
                                         fingerprints, trace, model));
      } catch (const sd::Error&) {
      }
    }
    return result;
  }

  const sd::FrameworkRepository* repo_;
  std::shared_ptr<const sd::ApiDatabase> db_;
  std::shared_ptr<const sd::IncrCache> incr_;
  std::atomic<double>* busy_;
};

/// A TracedAnalyzer run on a worker thread the harness or agent owns: its
/// spans hang under `parent`, the span of the call that handed the work out.
class ParentedAnalyzer final : public sd::Analyzer {
 public:
  ParentedAnalyzer(TracedAnalyzer inner, long parent)
      : inner_(std::move(inner)), parent_(parent) {}
  std::string_view name() const override { return inner_.name(); }
  bool detects(sd::MismatchKind kind) const override { return inner_.detects(kind); }
  sd::AnalysisResult analyze(const sd::Apk& apk) override {
    Tracer::current = parent_;
    return inner_.analyze(apk);
  }

 private:
  TracedAnalyzer inner_;
  long parent_;
};

// ---------------------------------------------------------------------------
// Replay passes
// ---------------------------------------------------------------------------

struct Inputs {
  std::string dir;
  std::vector<ManifestEntry> manifest;
  std::map<std::string, Expected> expected;
  std::string apk(const std::string& stem) const {
    return dir + "/apps/" + stem + ".apk";
  }
  std::vector<std::string> stems(const std::string& role) const {
    std::vector<std::string> out;
    for (const auto& e : manifest)
      if (e.role == role) out.push_back(e.stem);
    return out;
  }
  std::set<int> levels(const std::string& role) const {
    std::set<int> out;
    for (const auto& e : manifest)
      if (e.role == role) out.insert(e.level);
    return out;
  }
};

/// What one pass checked.
struct Tally {
  long long attempted = 0, failed = 0, known = 0;
  long long cached = 0, shed = 0, responses = 0;
  void row(const Inputs& in, const std::string& stem, std::string_view line) {
    Scope s{"bench.check"};
    verdict(check_row(in.expected, stem, line));
  }
  void verdict(RowVerdict v) {
    ++attempted;
    if (!accepted(v)) ++failed;
    if (v == RowVerdict::kKnown) ++known;
  }
};

sd::BenchApp parse_app(const std::string& path) {
  Scope s{"dex.parse"};
  const std::string bytes = read_text(path);
  counters.parse_bytes += static_cast<long long>(bytes.size());
  sd::BenchApp app;
  app.apk = sd::Apk::parse(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  return app;
}

/// A fresh repository, as a new process would construct; its image
/// bookkeeping is dropped with it.
std::shared_ptr<sd::FrameworkRepository> new_repository() {
  Scope s{"adf.spec"};
  return std::shared_ptr<sd::FrameworkRepository>(
      new sd::FrameworkRepository{sd::FrameworkConfig{}},
      [](sd::FrameworkRepository* repo) {
        {
          const std::lock_guard lock{emitted_mutex};
          emitted.erase(repo);
        }
        delete repo;
      });
}

/// Loads (or, on an empty cache, mines and stores) the API database.
std::shared_ptr<const sd::ApiDatabase> load_database(
    const sd::FrameworkRepository& repo, const std::string& dir, int jobs) {
  const sd::ModelCache cache{dir};
  cache.attach_substrate_cache(repo);
  bool hit = false;
  Scope s{"core.model_cache.load"};
  auto db = cache.api_database(repo, jobs, &hit);
  if (hit) {
    ++counters.mc_hits;
    std::error_code ec;
    for (const auto& path : {cache.api_database_path(repo),
                             cache.semantic_table_path(repo)})
      counters.mc_bytes += static_cast<long long>(fs::file_size(path, ec));
  } else {
    s.rename("core.arm.mine");
    ++counters.mc_misses;
  }
  return db;
}

/// The cold set-up every workload starts from: a process that emits the
/// images, mines the models and builds the warm-up levels' substrates into
/// an empty model cache.
void cold_fill(const Inputs& in, const std::string& cache, int jobs) {
  Scope s{"setup.cold"};
  const auto repo = new_repository();
  std::set<int> all;
  for (int level = sd::kMinApiLevel; level <= sd::kMaxApiLevel; ++level)
    all.insert(level);
  for (const int level : all) {
    Scope e{"adf.image_emit"};
    (void)repo->image(level);
    ++counters.images;
  }
  (void)load_database(*repo, cache, jobs);
  for (const int level : in.levels("warm")) warm_level(*repo, level);
}

void run_suite(const Inputs& in, Tally& tally, const sd::FrameworkRepository& repo,
               const std::shared_ptr<const sd::ApiDatabase>& db,
               const std::vector<std::string>& stems, int jobs,
               const std::string& journal, std::atomic<double>& busy,
               double& suite_s) {
  std::vector<sd::BenchApp> apps;
  std::set<int> levels;
  for (std::size_t i = 0; i < stems.size(); ++i) {
    Tracer::request = static_cast<long>(i);
    apps.push_back(parse_app(in.apk(stems[i])));
    levels.insert(sd::FrameworkRepository::clamp_level(apps.back().apk.manifest.target_sdk));
  }
  Tracer::request = -1;
  warm_levels(repo, levels);
  sd::SuiteRunOptions options;
  options.jobs = jobs;
  options.corpus_id = sd::corpus_fingerprint(apps);
  sd::SuiteResult suite;
  {
    Scope s{"workload.harness.suite"};
    const long parent = s.id();
    const double t = now_seconds();
    suite = sd::run_suite_parallel(
        [&] {
          return std::make_unique<ParentedAnalyzer>(
              TracedAnalyzer{repo, db, nullptr, &busy}, parent);
        },
        apps, options);
    suite_s += now_seconds() - t;
  }
  sd::JournalHeader header;
  header.corpus = options.corpus_id;
  sd::JournalWriter writer{journal, false, header};
  for (const auto& row : suite.rows) {
    {
      Scope s{"workload.journal.append"};
      writer.append(row);
    }
    tally.row(in, row.app, sd::journal_line(row));
  }
  std::error_code ec;
  counters.journal_bytes += static_cast<long long>(fs::file_size(journal, ec));
}

struct PassResult {
  double wall = 0;
  Tally tally;
  double suite_s = 0, busy_s = 0;
  int suite_jobs = 1;
  std::map<std::string, double> extra;
};

PassResult corpus_scan(const Inputs& in, const std::string& work, int jobs) {
  PassResult r;
  std::atomic<double> busy{0};
  const std::string cache = work + "/model-cache";
  cold_fill(in, cache, jobs);
  {
    // The cold command also analyzes its warm-up set.
    const auto repo = new_repository();
    const auto db = load_database(*repo, cache, jobs);
    std::atomic<double> ignored{0};
    double ignored_s = 0;
    run_suite(in, r.tally, *repo, db, in.stems("warm"), jobs,
              work + "/warm.jsonl", ignored, ignored_s);
  }
  Scope s{"setup.warm_batch"};
  const auto repo = new_repository();
  const auto db = load_database(*repo, cache, jobs);
  run_suite(in, r.tally, *repo, db, in.stems("app"), jobs, work + "/rows.jsonl",
            busy, r.suite_s);
  r.busy_s = busy.load();
  r.suite_jobs = jobs;
  return r;
}

/// The request sequence of a serve workload: set-up, then the nominal leg.
std::vector<Scheduled> serve_sequence(const Inputs& in, const char* leg) {
  return load_schedule(in.dir + "/sched-" + leg + ".tsv");
}

PassResult serve_replay(const Inputs& in, const std::string& work, int jobs,
                        bool incremental) {
  PassResult r;
  const std::string cache = work + "/filled";
  const int serve_jobs = std::max(1, jobs - 1);
  const auto setup = serve_sequence(in, "setup");
  const auto stream = serve_sequence(in, "nominal");

  // Segment "serve": a daemon restart (model cache filled, result cache
  // empty), the warm-up set, then the nominal schedule, open loop.
  {
    Scope seg{"segment.serve"};
    const std::string state = work + "/state";
    fs::create_directories(state);
    fs::copy(cache, state + "/model-cache", fs::copy_options::recursive);
    const auto repo = new_repository();
    const auto db = load_database(*repo, state + "/model-cache", serve_jobs);
    warm_levels(*repo, in.levels("warm"));
    sd::ServeOptions options;
    options.jobs = serve_jobs;
    options.queue_capacity = static_cast<std::size_t>(
        workload_spec(incremental ? "update-stream" : "serve-new").queue);
    options.database = db;
    options.repository = repo.get();
    if (incremental) options.incr_cache_dir = state + "/incr";
    std::unique_ptr<sd::VetService> service;
    {
      Scope s{"serve.start"};
      service = std::make_unique<sd::VetService>(state, options);
    }
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t answered = 0;
    const auto play = [&](const std::vector<Scheduled>& schedule, bool paced,
                          bool counted) {
      const double start = now_seconds() + 0.005;
      std::size_t sent = 0;
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (paced) {
          const double wait = start + schedule[i].due - now_seconds();
          if (wait > 0) {
            Scope idle{"client.idle"};
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
        } else {
          std::unique_lock lock{mutex};
          cv.wait(lock, [&] { return sent - answered < 8; });
        }
        sd::ServeRequest request;
        request.id = schedule[i].stem;
        request.apk_path = in.apk(schedule[i].stem);
        const std::string line = sd::serve_request_line(request);
        const double submitted = now_seconds();
        Tracer::request = static_cast<long>(i);
        const long parent = Tracer::current;
        const long id = tracer.open_id();
        Scope admit{"serve.admit"};
        ++sent;
        service->submit_line(line, [&, submitted, parent, id, counted,
                                    stem = schedule[i].stem,
                                    req = static_cast<long>(i)](
                                       const sd::ServeResponse& response) {
          Span span;
          span.name = "serve.request";
          span.start = submitted;
          span.end = now_seconds();
          span.id = id;
          span.parent = parent;
          span.request = req;
          tracer.add(span);
          const std::lock_guard lock{mutex};
          if (counted) {
            ++r.tally.responses;
            if (response.cached) ++r.tally.cached;
            if (response.status == sd::ServeStatus::kRejected &&
                response.reason == "overloaded")
              ++r.tally.shed;
            r.tally.verdict(response.row.has_value()
                                ? check_row(in.expected, stem,
                                            sd::journal_line(*response.row))
                                : RowVerdict::kFailed);
          }
          ++answered;
          cv.notify_all();
        });
      }
      Tracer::request = -1;
      std::unique_lock lock{mutex};
      cv.wait(lock, [&] { return answered == sent; });
      answered = 0;
    };
    play(setup, false, true);
    play(stream, true, true);
    {
      Scope s{"serve.stop"};
      service.reset();
    }
    std::error_code ec;
    for (const char* name : {"/requests.jsonl", "/results.jsonl"})
      counters.journal_bytes += static_cast<long long>(fs::file_size(state + name, ec));
  }

  // Segment "analysis": the same sequence through the traced analysis path
  // on serve_jobs workers, closed loop, so every layer under the daemon's
  // workers shows up.
  {
    Scope seg{"segment.analysis"};
    const auto repo = new_repository();
    const auto db = load_database(*repo, cache, serve_jobs);
    warm_levels(*repo, in.levels("warm"));
    std::shared_ptr<const sd::IncrCache> incr;
    if (incremental) {
      fs::create_directories(work + "/incr");
      incr = std::make_shared<const sd::IncrCache>(work + "/incr");
    }
    std::atomic<double> busy{0};
    std::vector<Scheduled> all = setup;
    all.insert(all.end(), stream.begin(), stream.end());
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    const long parent = seg.id();
    const double t = now_seconds();
    sd::ThreadPool pool{static_cast<std::size_t>(serve_jobs)};
    std::vector<std::future<void>> done;
    for (int w = 0; w < serve_jobs; ++w)
      done.push_back(pool.submit([&] {
        TracedAnalyzer tool{*repo, db, incr, &busy};
        for (std::size_t i = next++; i < all.size(); i = next++) {
          Tracer::current = parent;
          Tracer::request = static_cast<long>(i);
          const sd::BenchApp app = parse_app(in.apk(all[i].stem));
          const std::string line = sd::journal_line(sd::analyze_app_row(tool, app));
          const std::lock_guard lock{mutex};
          r.tally.row(in, all[i].stem, line);
        }
      }));
    for (auto& f : done) f.get();
    r.suite_s = now_seconds() - t;
    r.busy_s = busy.load();
    r.suite_jobs = serve_jobs;
  }
  return r;
}

PassResult fleet(const Inputs& in, const std::string& work, int jobs) {
  PassResult r;
  const std::string cache = work + "/filled";
  const auto stems = in.stems("app");
  std::vector<std::string> paths;
  for (const auto& stem : stems) paths.push_back(in.apk(stem));
  const sd::WorkDir dir{work + "/workdir"};
  sd::WorkQueue queue;
  {
    Scope s{"dist.publish"};
    std::vector<sd::BenchApp> apps;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      Tracer::request = static_cast<long>(i);
      apps.push_back(parse_app(paths[i]));
    }
    Tracer::request = -1;
    queue = sd::plan_work_queue(apps, paths);
    dir.publish(queue, sd::WorkDir::steady_seconds());
  }
  const int per_agent = std::max(1, jobs / 2);
  std::vector<double> agent_wall(2, 0.0);
  std::vector<std::atomic<double>> agent_busy(2);
  const long root = Tracer::current;
  std::vector<std::thread> agents;
  for (int a = 0; a < 2; ++a)
    agents.emplace_back([&, a] {
      Tracer::current = root;
      Scope agent{"dist.agent"};
      const double t = now_seconds();
      const auto repo = new_repository();
      const auto db = load_database(*repo, cache, per_agent);
      sd::AgentOptions options;
      options.worker = a == 0 ? "a" : "b";
      options.jobs = per_agent;
      const long parent = agent.id();
      options.resolve = [&, parent](const sd::WorkItem& item) {
        Tracer::current = parent;
        return parse_app(item.path);
      };
      options.factory = [&, a, parent] {
        return std::make_unique<ParentedAnalyzer>(
            TracedAnalyzer{*repo, db, nullptr, &agent_busy[static_cast<std::size_t>(a)]},
            parent);
      };
      options.model_cache_dir = cache;
      options.repository = repo.get();
      options.warmup = [&, parent](std::span<const sd::BenchApp> slice) {
        Tracer::current = parent;
        std::set<int> levels;
        for (const auto& app : slice)
          levels.insert(sd::FrameworkRepository::clamp_level(app.apk.manifest.target_sdk));
        warm_levels(*repo, levels);
      };
      (void)sd::run_agent(dir, options);
      agent_wall[static_cast<std::size_t>(a)] = now_seconds() - t;
    });
  {
    Scope s{"dist.supervise"};
    sd::SuperviseOptions options;
    (void)sd::supervise(dir, options);
  }
  for (auto& t : agents) t.join();
  {
    Scope s{"workload.journal.merge"};
    (void)sd::merge_journals(dir.worker_journals());
  }
  sd::CollectResult collected;
  {
    Scope s{"dist.collect"};
    collected = sd::collect(dir);
  }
  for (const auto& row : collected.suite.rows)
    r.tally.row(in, row.app, sd::journal_line(row));
  if (collected.suite.rows.size() != stems.size())
    r.tally.failed += static_cast<long long>(stems.size()) -
                      static_cast<long long>(collected.suite.rows.size());
  std::error_code ec;
  for (const auto& journal : dir.worker_journals())
    counters.journal_bytes += static_cast<long long>(fs::file_size(journal, ec));

  // Claim latency probe: the same plan republished, every lease claimed and
  // completed by one worker.
  const sd::WorkDir probe{work + "/claims"};
  probe.publish(queue, sd::WorkDir::steady_seconds());
  double claim_s = 0;
  int claims = 0;
  while (true) {
    const double t = now_seconds();
    std::optional<sd::ClaimedLease> claim;
    {
      Scope s{"dist.claim"};
      claim = probe.claim_next("probe", sd::WorkDir::steady_seconds());
    }
    if (!claim) break;
    claim_s += now_seconds() - t;
    ++claims;
    probe.complete(*claim);
  }
  double idle = 0, busy = 0;
  for (std::size_t a = 0; a < 2; ++a) {
    idle += agent_wall[a] - agent_busy[a].load() / per_agent;
    busy += agent_busy[a].load();
  }
  r.busy_s = busy;
  r.suite_jobs = 2 * per_agent;
  r.suite_s = *std::max_element(agent_wall.begin(), agent_wall.end());
  r.extra["dist.claim_ms"] = claims ? 1e3 * claim_s / claims : 0;
  r.extra["dist.leases_issued"] = static_cast<double>(collected.suite.leases_issued);
  r.extra["dist.leases_reclaimed"] =
      static_cast<double>(collected.suite.leases_reclaimed);
  r.extra["dist.worker_idle_s"] = idle;
  return r;
}

PassResult run_pass(const std::string& workload, const Inputs& in,
                    const std::string& work, int jobs) {
  fs::remove_all(work);
  fs::create_directories(work);
  if (workload != "corpus-scan") {
    // The filled model cache the daemon restarts on and the agents share:
    // prepared state, outside the measured pass.
    const bool traced = tracer.enabled;
    tracer.enabled = false;
    cold_fill(in, work + "/filled", jobs);
    tracer.enabled = traced;
  }
  counters.reset();
  Scope root{"run"};
  if (workload == "corpus-scan") return corpus_scan(in, work, jobs);
  if (workload == "serve-new") return serve_replay(in, work, jobs, false);
  if (workload == "update-stream") return serve_replay(in, work, jobs, true);
  if (workload == "fleet") return fleet(in, work, jobs);
  throw std::runtime_error("unknown workload " + workload);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Total length of the union of [start, end) intervals.
double covered(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0, lo = 0, hi = -1;
  for (const auto& [s, e] : intervals) {
    if (s > hi) {
      if (hi > lo) total += hi - lo;
      lo = s;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

bool is_layer(const std::string& name) {
  return name != "run" && name.rfind("segment.", 0) != 0 &&
         name.rfind("setup.", 0) != 0 && name != "analysis";
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 double origin) {
  std::ofstream out{path, std::ios::trunc};
  out << "{\"traceEvents\":[";
  char buffer[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::size_t dot = s.name.find('.');
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%ld,"
                  "\"parent\":%ld,\"request\":%ld}}",
                  i ? "," : "", s.name.c_str(),
                  s.name.substr(0, dot == std::string::npos ? s.name.size() : dot)
                      .c_str(),
                  1e6 * (s.start - origin), 1e6 * (s.end - s.start), s.thread,
                  s.id, s.parent, s.request);
    out << buffer;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

int cmd_trace(const std::string& workload, const std::string& inputs,
              const std::string& work, const std::string& out_path,
              const std::string& spans_path, int jobs) {
  Inputs in;
  in.dir = inputs;
  in.manifest = load_manifest(inputs);
  in.expected = load_expected(inputs + "/expected.tsv");

  // A discarded first pass takes the cold file-cache and allocator costs.
  // Then untraced and traced passes alternate twice; the overhead compares
  // the faster pass of each kind, the one host noise disturbed least, and
  // the metrics come from the last traced pass.
  tracer.enabled = false;
  (void)run_pass(workload, in, work + "/first", jobs);
  double plain_wall = 1e300, fastest_traced = 1e300, traced_wall = 0, t = 0;
  long long attempted_rows = 0, failed_rows = 0, known_rows = 0;
  PassResult traced;
  std::vector<Span> spans;
  for (int round = 0; round < 2; ++round) {
    double start = now_seconds();
    const PassResult plain = run_pass(workload, in, work + "/plain", jobs);
    plain_wall = std::min(plain_wall, now_seconds() - start);
    tracer.enabled = true;
    t = now_seconds();
    traced = run_pass(workload, in, work + "/traced", jobs);
    traced_wall = now_seconds() - t;
    tracer.enabled = false;
    fastest_traced = std::min(fastest_traced, traced_wall);
    spans = tracer.take();
    attempted_rows += plain.tally.attempted + traced.tally.attempted;
    failed_rows += plain.tally.failed + traced.tally.failed;
    known_rows += plain.tally.known + traced.tally.known;
  }
  write_spans(spans_path, spans, t);

  std::map<std::string, double> total;
  std::map<std::string, long long> count;
  std::vector<std::pair<double, double>> layer_intervals;
  double run_start = t, run_end = t + traced_wall;
  for (const auto& s : spans) {
    total[s.name] += s.end - s.start;
    ++count[s.name];
    if (s.name == "run") {
      run_start = s.start;
      run_end = s.end;
    }
    if (is_layer(s.name)) layer_intervals.emplace_back(s.start, s.end);
  }
  // Self time: a span minus the part of it its children cover.
  std::map<long, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) children[s.parent].emplace_back(s.start, s.end);
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    auto kids = children[s.id];
    for (auto& [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
    }
    self[s.name] += (s.end - s.start) - covered(kids);
  }
  const double wall = run_end - run_start;
  double clvm_lazy = 0;
  for (const double v : counters.clvm_load_s) clvm_lazy += v;
  double dirty = 0;
  for (const double v : counters.dirty_fractions) dirty += v;
  const auto get = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const double attempted = static_cast<double>(counters.incr_attempted.load());
  const double parse_s = get("dex.parse");

  std::vector<std::tuple<std::string, double, std::string>> metrics = {
      {"dex.parse_s", parse_s, "s"},
      {"dex.parse_mb_per_s",
       parse_s > 0 ? counters.parse_bytes.load() / 1e6 / parse_s : 0, "MB/s"},
      {"adf.image_emit_s", get("adf.image_emit"), "s"},
      {"adf.images_emitted", static_cast<double>(counters.images.load()), "count"},
      {"core.arm.mine_s", get("core.arm.mine"), "s"},
      {"core.model_cache.load_s", get("core.model_cache.load"), "s"},
      {"core.model_cache.hits", static_cast<double>(counters.mc_hits.load()), "count"},
      {"core.model_cache.misses", static_cast<double>(counters.mc_misses.load()), "count"},
      {"core.model_cache.bytes_read", static_cast<double>(counters.mc_bytes.load()), "B"},
      {"clvm.substrate_build_s", get("clvm.substrate_build"), "s"},
      {"clvm.substrate_rebind_s", get("clvm.substrate_rebind"), "s"},
      {"clvm.substrates", static_cast<double>(counters.substrates.load()), "count"},
      {"clvm.load_s", get("clvm.load") + clvm_lazy, "s"},
      {"clvm.classes_loaded", static_cast<double>(counters.classes.load()), "count"},
      {"core.aum.model_s", get("core.aum.model") - clvm_lazy, "s"},
      {"core.amd.detect_s", get("core.amd.detect"), "s"},
      {"core.amd.mismatches", static_cast<double>(counters.mismatches.load()), "count"},
      {"core.incr_cache.dirty_s", get("core.incr_cache.dirty"), "s"},
      {"core.incr_cache.hit_ratio",
       attempted > 0 ? counters.incr_hits.load() / attempted : 0, "ratio"},
      {"core.incr_cache.fallback_ratio",
       attempted > 0 ? counters.incr_fallbacks.load() / attempted : 0, "ratio"},
      {"core.incr_cache.dirty_fraction",
       counters.dirty_fractions.empty() ? 0 : dirty / counters.dirty_fractions.size(),
       "ratio"},
      {"workload.harness.suite_s", get("workload.harness.suite"), "s"},
      {"workload.harness.worker_busy_frac",
       traced.suite_s > 0 ? traced.busy_s / (traced.suite_jobs * traced.suite_s) : 0,
       "ratio"},
      {"workload.journal.append_s", get("workload.journal.append"), "s"},
      {"workload.journal.bytes", static_cast<double>(counters.journal_bytes.load()), "B"},
      {"workload.journal.merge_s", get("workload.journal.merge"), "s"},
      {"serve.admit_ms",
       count["serve.admit"] ? 1e3 * get("serve.admit") / count["serve.admit"] : 0, "ms"},
      {"serve.respond_ms",
       count["serve.request"] ? 1e3 * get("serve.request") / count["serve.request"] : 0,
       "ms"},
      {"serve.result_cache_hit_ratio",
       traced.tally.responses ? double(traced.tally.cached) / traced.tally.responses : 0,
       "ratio"},
      {"serve.shed_ratio",
       traced.tally.responses ? double(traced.tally.shed) / traced.tally.responses : 0,
       "ratio"},
  };
  for (const char* name : {"dist.claim_ms", "dist.leases_issued",
                           "dist.leases_reclaimed", "dist.worker_idle_s"}) {
    const auto it = traced.extra.find(name);
    const std::string n = name;
    metrics.emplace_back(n, it == traced.extra.end() ? 0.0 : it->second,
                         n == "dist.claim_ms" ? "ms"
                         : n == "dist.worker_idle_s" ? "s" : "count");
  }
  metrics.emplace_back("trace.overhead_frac", fastest_traced / plain_wall - 1.0,
                       "ratio");
  metrics.emplace_back("trace.unattributed_frac",
                       wall > 0 ? 1.0 - covered(layer_intervals) / wall : 0, "ratio");
  metrics.emplace_back("failed_frac",
                       attempted_rows ? double(failed_rows) / attempted_rows : 0,
                       "ratio");
  metrics.emplace_back("known_defect_frac",
                       attempted_rows ? double(known_rows) / attempted_rows : 0,
                       "ratio");

  std::string body;
  for (const auto& [name, value, unit] : metrics) {
    if (!body.empty()) body += ",";
    body += "\"" + name + "\":[" + json_number(value) + ",\"" + unit + "\"]";
  }
  JsonOut self_json;
  for (const auto& [name, value] : self) self_json.num(name, value);
  JsonOut out;
  out.integer("attempted", attempted_rows)
      .integer("failed", failed_rows)
      .integer("known_defects", known_rows)
      .raw("metrics", "{" + body + "}")
      .raw("self_s", self_json.done())
      .num("plain_wall_s", plain_wall)
      .num("traced_wall_s", traced_wall)
      .integer("spans", static_cast<long long>(spans.size()));
  write_text(out_path, out.done() + "\n");
  fs::remove_all(work);
  return failed_rows == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: sdtrace <workload> <inputs> <work> <metrics.json> "
                 "<spans.json> <jobs>\n");
    return 2;
  }
  try {
    // Wrong rows are reported through the metrics file, not the exit code.
    (void)cmd_trace(argv[1], argv[2], argv[3], argv[4], argv[5],
                    std::max(1, std::atoi(argv[6])));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdtrace: %s\n", e.what());
    return 3;
  }
}
