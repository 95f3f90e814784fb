// Robustness suite: fault injection, per-app isolation, analysis budgets,
// and the crash-safe suite journal.
//
// The load-bearing property is *fault isolation under determinism*: with K
// planned faults armed over a corpus run, exactly the K victim apps produce
// structured failure rows, every other app's row is identical to a clean
// run's, and the whole statement holds at any worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "adf/repository.hpp"
#include "core/outcome.hpp"
#include "core/saintdroid.hpp"
#include "support/budget.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

// --- fault plan matching -------------------------------------------------------

TEST(FaultPlan, MatchesPointAndContext) {
  FaultPlan plan;
  plan.faults.push_back({"clvm.materialize", "app-7", FaultSpec::Kind::kInjected});
  EXPECT_NE(plan.match("clvm.materialize", "app-7"), nullptr);
  EXPECT_EQ(plan.match("clvm.materialize", "app-8"), nullptr);
  EXPECT_EQ(plan.match("dex.parse", "app-7"), nullptr);
}

TEST(FaultPlan, EmptyContextMatchesAnyContext) {
  FaultPlan plan;
  plan.faults.push_back({"dex.parse", "", FaultSpec::Kind::kParse});
  EXPECT_NE(plan.match("dex.parse", "whatever"), nullptr);
  EXPECT_NE(plan.match("dex.parse", ""), nullptr);
}

TEST(FaultPoints, DisarmedHooksAreSilent) {
  EXPECT_FALSE(faults::armed());
  SD_FAULT_POINT("clvm.materialize");  // must be a no-op
}

TEST(FaultPoints, ArmedHookThrowsPlannedKind) {
  FaultPlan plan;
  plan.faults.push_back({"p.injected", "", FaultSpec::Kind::kInjected});
  plan.faults.push_back({"p.parse", "", FaultSpec::Kind::kParse});
  plan.faults.push_back({"p.resolve", "", FaultSpec::Kind::kResolve});
  const FaultScope scope{plan};
  EXPECT_THROW(SD_FAULT_POINT("p.injected"), InjectedFault);
  EXPECT_THROW(SD_FAULT_POINT("p.parse"), ParseError);
  EXPECT_THROW(SD_FAULT_POINT("p.resolve"), ResolveError);
  SD_FAULT_POINT("p.unplanned");  // armed but unmatched: silent
}

TEST(FaultPoints, ImageFaultFiresOnTheCachedPath) {
  // A warm repository parses its images from the model cache instead of
  // emitting them; the "adf.image" point must still fire there, and the
  // unsatisfied once-guard must retry (from the cache) once disarmed.
  FrameworkConfig cfg;
  cfg.bulk_classes = 30;
  cfg.bulk_packages = 4;
  const std::string dir = ::testing::TempDir() + "faults_image_cache";
  std::filesystem::remove_all(dir);
  const int level = 24;
  const FrameworkRepository cold{cfg};
  cold.set_model_cache_dir(dir);
  (void)cold.substrate(level);

  const FrameworkRepository warm{cfg};
  warm.set_model_cache_dir(dir);
  const std::uint64_t retries_before = framework_build_retries();
  {
    FaultPlan plan;
    plan.faults.push_back({"adf.image", "", FaultSpec::Kind::kInjected});
    const FaultScope scope{plan};
    EXPECT_THROW((void)warm.image(level), InjectedFault);
    EXPECT_THROW((void)warm.substrate(level), InjectedFault);
  }
  EXPECT_EQ(warm.image_cache_hits(), 0u);
  EXPECT_EQ(warm.image(level).serialize(), cold.image(level).serialize());
  EXPECT_EQ(warm.image_cache_hits(), 1u);
  EXPECT_EQ(framework_build_retries() - retries_before, 2u);
  std::filesystem::remove_all(dir);
}

TEST(FaultContextScope, NestsAndRestores) {
  EXPECT_EQ(faults::context(), "");
  {
    const FaultContextScope outer{"outer-app"};
    EXPECT_EQ(faults::context(), "outer-app");
    {
      const FaultContextScope inner{"inner-app"};
      EXPECT_EQ(faults::context(), "inner-app");
    }
    EXPECT_EQ(faults::context(), "outer-app");
  }
  EXPECT_EQ(faults::context(), "");
}

// --- failure taxonomy ----------------------------------------------------------

TEST(FailureKind, NamesRoundTrip) {
  for (const auto kind :
       {FailureKind::kParse, FailureKind::kResolve, FailureKind::kConfig,
        FailureKind::kInjected, FailureKind::kInternal}) {
    EXPECT_EQ(failure_kind_from_name(failure_kind_name(kind)), kind);
  }
  EXPECT_EQ(failure_kind_from_name("no-such-kind"), FailureKind::kInternal);
}

TEST(FailureKind, ClassifiesExceptionTypes) {
  EXPECT_EQ(classify_failure(ParseError{"x"}), FailureKind::kParse);
  EXPECT_EQ(classify_failure(ResolveError{"x"}), FailureKind::kResolve);
  EXPECT_EQ(classify_failure(ConfigError{"x"}), FailureKind::kConfig);
  EXPECT_EQ(classify_failure(InjectedFault{"p", "c"}), FailureKind::kInjected);
  EXPECT_EQ(classify_failure(std::runtime_error{"x"}), FailureKind::kInternal);
}

/// Analyzer stub that throws a caller-chosen exception.
class ThrowingAnalyzer final : public Analyzer {
 public:
  std::string_view name() const override { return "thrower"; }
  bool detects(MismatchKind) const override { return false; }
  AnalysisResult analyze(const Apk&) override {
    const PhaseScope phase{"model"};
    throw ParseError{"synthetic parse failure"};
  }
};

TEST(AnalyzeOutcome, ConvertsThrowToStructuredFailure) {
  ThrowingAnalyzer tool;
  Apk apk;
  apk.name = "doomed-app";
  const AppOutcome outcome = analyze_outcome(tool, apk);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.app, "doomed-app");
  EXPECT_EQ(outcome.failure->kind, FailureKind::kParse);
  EXPECT_EQ(outcome.failure->phase, "model");
  // ParseError prefixes its class name; the payload must survive intact.
  EXPECT_NE(outcome.failure->message.find("synthetic parse failure"),
            std::string::npos);
  EXPECT_FALSE(outcome.report.completed);
  EXPECT_EQ(outcome.report.failure_reason, outcome.failure->message);
}

// --- shared corpus fixture -----------------------------------------------------

constexpr int kCorpusSize = 200;

/// 200 small corpus apps plus one clean suite baseline, built once — the
/// expensive part of this file, shared by the isolation and journal tests.
class FaultSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;   // keep the fixture fast: small apps,
    config.size_spread = 1.5;   // same generative structure
    config.api_issue_mean = 6.0;
    corpus_ = new RealWorldCorpus{repo, config};
    apps_ = new std::vector<BenchApp>{corpus_->generate_range(
        0, kCorpusSize, 8)};
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    clean_ = new SuiteResult{run_suite_parallel(factory(), *apps_, 4)};
  }

  static void TearDownTestSuite() {
    delete clean_;
    delete db_;
    delete apps_;
    delete corpus_;
    clean_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    corpus_ = nullptr;
  }

  static AnalyzerFactory factory() {
    return [] {
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_);
    };
  }

  static void expect_rows_deterministically_equal(const SuiteAppRow& a,
                                                  const SuiteAppRow& b) {
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.incomplete, b.incomplete);
    EXPECT_EQ(a.failure_reason, b.failure_reason);
    EXPECT_EQ(a.failure.has_value(), b.failure.has_value());
    if (a.failure.has_value() && b.failure.has_value()) {
      EXPECT_EQ(a.failure->kind, b.failure->kind);
      EXPECT_EQ(a.failure->phase, b.failure->phase);
      EXPECT_EQ(a.failure->message, b.failure->message);
    }
    EXPECT_EQ(a.mismatch_count, b.mismatch_count);
    EXPECT_EQ(a.scores.api.tp, b.scores.api.tp);
    EXPECT_EQ(a.scores.api.fp, b.scores.api.fp);
    EXPECT_EQ(a.scores.api.fn, b.scores.api.fn);
    EXPECT_EQ(a.scores.apc.tp, b.scores.apc.tp);
    EXPECT_EQ(a.scores.apc.fn, b.scores.apc.fn);
    EXPECT_EQ(a.scores.prm.tp, b.scores.prm.tp);
    EXPECT_EQ(a.scores.prm.fn, b.scores.prm.fn);
    EXPECT_EQ(a.usage.peak_bytes, b.usage.peak_bytes);
    EXPECT_EQ(a.usage.loaded_classes, b.usage.loaded_classes);
  }

  static RealWorldCorpus* corpus_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static SuiteResult* clean_;
};

RealWorldCorpus* FaultSuite::corpus_ = nullptr;
std::vector<BenchApp>* FaultSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* FaultSuite::db_ = nullptr;
SuiteResult* FaultSuite::clean_ = nullptr;

// --- the isolation property ----------------------------------------------------

TEST_F(FaultSuite, InjectedFaultsAreIsolatedAndDeterministicAcrossJobs) {
  const std::vector<int> victims{3, 41, 99, 150, 199};
  FaultPlan plan;
  for (const int v : victims) {
    plan.faults.push_back({"clvm.materialize",
                           (*apps_)[static_cast<std::size_t>(v)].apk.name,
                           FaultSpec::Kind::kInjected});
  }
  const FaultScope scope{plan};

  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const SuiteResult faulted = run_suite_parallel(factory(), *apps_, jobs);
    ASSERT_EQ(faulted.rows.size(), clean_->rows.size());
    EXPECT_EQ(faulted.failures, static_cast<int>(victims.size()));

    std::size_t victim_cursor = 0;
    for (std::size_t i = 0; i < faulted.rows.size(); ++i) {
      SCOPED_TRACE("row " + std::to_string(i));
      const bool is_victim =
          victim_cursor < victims.size() &&
          static_cast<std::size_t>(victims[victim_cursor]) == i;
      const SuiteAppRow& row = faulted.rows[i];
      if (is_victim) {
        ++victim_cursor;
        EXPECT_FALSE(row.completed);
        ASSERT_TRUE(row.failure.has_value());
        EXPECT_EQ(row.failure->kind, FailureKind::kInjected);
        EXPECT_EQ(row.failure->phase, "model");
        // A failed run scores every real issue as a miss.
        const GroundTruth& truth = (*apps_)[i].truth;
        EXPECT_EQ(row.scores.api.fn,
                  truth.real_count(MismatchKind::kApiInvocation));
        EXPECT_EQ(row.scores.api.tp, 0u);
      } else {
        expect_rows_deterministically_equal(row, clean_->rows[i]);
      }
    }
    EXPECT_EQ(victim_cursor, victims.size());
  }
}

/// Forwards to a wrapped analyzer and counts analyze() calls per app name,
/// into a map shared by every worker's instance.
class CountingAnalyzer final : public Analyzer {
 public:
  struct Counts {
    std::mutex mutex;
    std::map<std::string, int> calls;
  };

  CountingAnalyzer(std::unique_ptr<Analyzer> inner, Counts& counts)
      : inner_{std::move(inner)}, counts_{counts} {}

  std::string_view name() const override { return inner_->name(); }
  bool detects(MismatchKind kind) const override {
    return inner_->detects(kind);
  }
  AnalysisResult analyze(const Apk& apk) override {
    {
      const std::lock_guard lock{counts_.mutex};
      ++counts_.calls[apk.name];
    }
    return inner_->analyze(apk);
  }

 private:
  std::unique_ptr<Analyzer> inner_;
  Counts& counts_;
};

TEST_F(FaultSuite, FaultedRunAnalyzesEveryAppExactlyOnce) {
  // No retry blowup: a faulted app costs one failed analysis, never a
  // retry, so a faulted run does no more work than a clean one.
  for (const double rate : {0.05, 0.20}) {
    const int planned = static_cast<int>(rate * kCorpusSize + 0.5);
    FaultPlan plan;
    for (int j = 0; j < planned; ++j)
      plan.faults.push_back(
          {"clvm.materialize",
           (*apps_)[static_cast<std::size_t>(j * kCorpusSize / planned)]
               .apk.name,
           FaultSpec::Kind::kInjected});
    const FaultScope scope{plan};
    for (const int jobs : {1, 8}) {
      SCOPED_TRACE("rate " + std::to_string(rate) + ", jobs " +
                   std::to_string(jobs));
      CountingAnalyzer::Counts counts;
      const AnalyzerFactory counted = [&counts] {
        return std::make_unique<CountingAnalyzer>(factory()(), counts);
      };
      const SuiteResult suite = run_suite_parallel(counted, *apps_, jobs);
      EXPECT_EQ(suite.failures, planned);
      ASSERT_EQ(counts.calls.size(), apps_->size());
      for (const BenchApp& app : *apps_)
        EXPECT_EQ(counts.calls[app.apk.name], 1) << app.apk.name;
    }
  }
}

TEST_F(FaultSuite, ParseFaultIsClassifiedAsParseFailure) {
  FaultPlan plan;
  plan.faults.push_back({"clvm.materialize", (*apps_)[0].apk.name,
                         FaultSpec::Kind::kParse});
  const FaultScope scope{plan};
  const SuiteResult faulted = run_suite_parallel(factory(), *apps_, 2);
  ASSERT_TRUE(faulted.rows[0].failure.has_value());
  EXPECT_EQ(faulted.rows[0].failure->kind, FailureKind::kParse);
  EXPECT_EQ(faulted.failures, 1);
}

// --- budgets -------------------------------------------------------------------

TEST(BudgetTracker, UnlimitedByDefault) {
  BudgetTracker tracker;
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(tracker.allow_step());
  EXPECT_TRUE(tracker.allow_class(1'000'000));
  EXPECT_FALSE(tracker.exhausted());
}

TEST(BudgetTracker, StepCapIsStickyAndNamed) {
  AnalysisBudget budget;
  budget.max_worklist_steps = 3;
  BudgetTracker tracker{budget};
  EXPECT_TRUE(tracker.allow_step());
  EXPECT_TRUE(tracker.allow_step());
  EXPECT_TRUE(tracker.allow_step());
  EXPECT_FALSE(tracker.allow_step());
  EXPECT_TRUE(tracker.exhausted());
  EXPECT_STREQ(tracker.reason(), "steps");
  // Sticky: once exhausted, everything is refused.
  EXPECT_FALSE(tracker.allow_step());
  EXPECT_FALSE(tracker.allow_class(0));
}

TEST(BudgetTracker, ClassCap) {
  AnalysisBudget budget;
  budget.max_loaded_classes = 2;
  BudgetTracker tracker{budget};
  EXPECT_TRUE(tracker.allow_class(0));
  EXPECT_TRUE(tracker.allow_class(1));
  EXPECT_FALSE(tracker.allow_class(2));
  EXPECT_STREQ(tracker.reason(), "classes");
}

TEST_F(FaultSuite, ExhaustedBudgetDegradesToPartialReportWithoutThrowing) {
  SaintDroidOptions options;
  options.budget.max_worklist_steps = 4;  // adversarially tight
  SaintDroid tool{FrameworkRepository::standard(), *db_, options};

  // Pick an app with real API issues so the flat-scan fallback has work.
  const BenchApp* subject = nullptr;
  for (const auto& app : *apps_) {
    if (app.truth.real_count(MismatchKind::kApiInvocation) > 0) {
      subject = &app;
      break;
    }
  }
  ASSERT_NE(subject, nullptr);

  AnalysisResult result;
  ASSERT_NO_THROW(result = tool.analyze(subject->apk));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.incomplete);
  EXPECT_EQ(result.incomplete_reason, "steps");
  // The fallback still surfaces unguarded API use the worklist never
  // reached: a partial report, not an empty one.
  EXPECT_FALSE(result.mismatches.empty());
  const std::string text = result.to_text(subject->apk.name);
  EXPECT_NE(text.find("incomplete"), std::string::npos);
}

TEST_F(FaultSuite, ClassBudgetDegradesGracefully) {
  SaintDroidOptions options;
  options.budget.max_loaded_classes = 1;
  SaintDroid tool{FrameworkRepository::standard(), *db_, options};
  AnalysisResult result;
  ASSERT_NO_THROW(result = tool.analyze((*apps_)[0].apk));
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.incomplete);
  EXPECT_EQ(result.incomplete_reason, "classes");
}

TEST_F(FaultSuite, UnlimitedBudgetMatchesDefaultRun) {
  // An explicitly unlimited budget must not perturb results.
  SaintDroidOptions options;
  SaintDroid tool{FrameworkRepository::standard(), *db_, options};
  const AnalysisResult result = tool.analyze((*apps_)[1].apk);
  EXPECT_FALSE(result.incomplete);
  EXPECT_EQ(result.mismatches.size(), clean_->rows[1].mismatch_count);
}

// --- journal -------------------------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Journal, RowRoundTripsThroughJsonl) {
  SuiteAppRow row;
  row.app = "fdroid-app-7 \"quoted\"\n";
  row.completed = false;
  row.incomplete = true;
  row.failure_reason = "boom";
  AnalysisFailure failure;
  failure.kind = FailureKind::kInjected;
  failure.phase = "load";
  failure.message = "injected fault at clvm.materialize";
  row.failure = failure;
  row.mismatch_count = 17;
  row.scores.api = {3, 1, 2};
  row.scores.apc = {0, 0, 5};
  row.scores.prm = {1, 0, 0};
  row.usage.seconds = 0.25;
  row.usage.peak_bytes = 123456;
  row.usage.loaded_classes = 42;

  const std::string line = journal_line(row);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one row, one line
  const auto parsed = parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->app, row.app);
  EXPECT_EQ(parsed->completed, row.completed);
  EXPECT_EQ(parsed->incomplete, row.incomplete);
  EXPECT_EQ(parsed->failure_reason, row.failure_reason);
  ASSERT_TRUE(parsed->failure.has_value());
  EXPECT_EQ(parsed->failure->kind, FailureKind::kInjected);
  EXPECT_EQ(parsed->failure->phase, "load");
  EXPECT_EQ(parsed->failure->message, failure.message);
  EXPECT_EQ(parsed->mismatch_count, 17u);
  EXPECT_EQ(parsed->scores.api.tp, 3u);
  EXPECT_EQ(parsed->scores.api.fn, 2u);
  EXPECT_EQ(parsed->scores.apc.fn, 5u);
  EXPECT_EQ(parsed->usage.peak_bytes, 123456u);
  EXPECT_EQ(parsed->usage.loaded_classes, 42u);
}

TEST(Journal, CorruptLinesAreSkippedNotFatal) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  {
    std::ofstream out{path, std::ios::trunc};
    SuiteAppRow good;
    good.app = "good-app";
    out << journal_line(good) << "\n";
    out << "{\"app\":\"half-written";  // truncated tail, no newline
  }
  const auto rows = load_journal(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].app, "good-app");
  std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_journal(temp_path("journal_never_written.jsonl")).empty());
}

TEST(Journal, AppendSealsPartialTrailingLine) {
  const std::string path = temp_path("journal_seal.jsonl");
  {
    std::ofstream out{path, std::ios::trunc};
    out << "{\"app\":\"killed-mid-write";  // no newline: death mid-append
  }
  {
    JournalWriter writer{path, /*append=*/true};
    SuiteAppRow row;
    row.app = "after-resume";
    writer.append(row);
  }
  const auto rows = load_journal(path);
  ASSERT_EQ(rows.size(), 1u);  // partial line skipped, sealed row intact
  EXPECT_EQ(rows[0].app, "after-resume");
  std::remove(path.c_str());
}

TEST_F(FaultSuite, KillAndResumeReproducesUninterruptedRun) {
  const std::string path = temp_path("journal_resume.jsonl");
  std::remove(path.c_str());
  const std::size_t first_leg = 100;

  // Leg 1: journal the first 100 apps, then "die".
  {
    SuiteRunOptions options;
    options.jobs = 2;
    options.journal_path = path;
    const std::vector<BenchApp> head{apps_->begin(),
                                     apps_->begin() + first_leg};
    (void)run_suite_parallel(factory(), head, options);
  }

  // Simulate a kill mid-append: truncate to the header plus 40 complete
  // rows plus one partial line.
  {
    std::vector<std::string> lines;
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), first_leg + 1);  // header row + journaled rows
    in.close();
    std::ofstream out{path, std::ios::trunc};
    for (std::size_t i = 0; i < 41; ++i) out << lines[i] << "\n";
    out << lines[41].substr(0, lines[41].size() / 2);  // torn row
  }

  // Leg 2: resume over the full corpus.
  SuiteRunOptions options;
  options.jobs = 4;
  options.journal_path = path;
  options.resume = true;
  const SuiteResult resumed = run_suite_parallel(factory(), *apps_, options);

  // The merged result equals the uninterrupted clean run, row for row
  // (wall-clock seconds aside).
  ASSERT_EQ(resumed.rows.size(), clean_->rows.size());
  EXPECT_EQ(resumed.failures, clean_->failures);
  for (std::size_t i = 0; i < resumed.rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    expect_rows_deterministically_equal(resumed.rows[i], clean_->rows[i]);
  }

  // And the journal now covers every app exactly once.
  const auto rows = load_journal(path);
  EXPECT_EQ(rows.size(), apps_->size());
  std::remove(path.c_str());
}

// --- corpus generate_range -----------------------------------------------------

TEST_F(FaultSuite, GenerateRangeIsJobsInvariant) {
  const auto serial = corpus_->generate_range(20, 28, 1);
  const auto parallel = corpus_->generate_range(20, 28, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].apk.name, parallel[i].apk.name);
    EXPECT_EQ(serial[i].apk.serialize(), parallel[i].apk.serialize());
    EXPECT_EQ(serial[i].truth.issues.size(), parallel[i].truth.issues.size());
  }
}

}  // namespace
}  // namespace saintdroid
