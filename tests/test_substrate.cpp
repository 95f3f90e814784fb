// Shared framework substrate suite.
//
// The load-bearing property: the substrate is a pure caching layer. Every
// reported field — rows, scores, mismatch counts, peak_bytes,
// loaded_classes — is byte-identical with the substrate on or off, at any
// worker count; the per-level cache builds exactly once under
// concurrent first requests; and a poisoned level fails only the analyses
// that need it, retrying (and succeeding) once the fault clears.
#include <gtest/gtest.h>

#include <future>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adf/repository.hpp"
#include "clvm/substrate.hpp"
#include "core/arm.hpp"
#include "core/saintdroid.hpp"
#include "support/faults.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

/// Canonical byte form of a suite: one journal line per row with the
/// wall-clock seconds zeroed (the only legitimately nondeterministic
/// field). Two suites are byte-identical iff these strings are equal.
std::string suite_bytes(const SuiteResult& suite) {
  std::string bytes;
  for (SuiteAppRow row : suite.rows) {
    row.usage.seconds = 0.0;
    bytes += journal_line(row);
    bytes += '\n';
  }
  return bytes;
}

/// Small framework config for tests that need a private repository (cache
/// stampede, poisoned level) — standard()'s substrate slots may already be
/// built by earlier tests in this process.
FrameworkConfig small_framework() {
  FrameworkConfig cfg;
  cfg.bulk_classes = 300;
  cfg.bulk_packages = 12;
  return cfg;
}

// --- substrate structure -------------------------------------------------------

// The table-rebinding constructor is selected by name only. A braced `{}`
// in the tables position once chose it silently, compiled, and threw
// ParseError at run time; now neither `{}` for the tables nor `{}` for the
// tag compiles. (Templates, so the requires-expressions are checked by
// substitution and can be false.)
template <typename Image>
constexpr bool kRebindsFromBracedTables =
    requires(const Image& image) { FrameworkSubstrate{image, 25, {}}; };
template <typename Image>
constexpr bool kRebindsFromBracedTag =
    requires(const Image& image, std::span<const std::uint8_t> tables) {
      FrameworkSubstrate{{}, image, 25, tables};
    };
template <typename Image>
constexpr bool kRebindsByName =
    requires(const Image& image, std::span<const std::uint8_t> tables) {
      FrameworkSubstrate{FrameworkSubstrate::kRebind, image, 25, tables};
    };
static_assert(!kRebindsFromBracedTables<DexFile>);
static_assert(!kRebindsFromBracedTag<DexFile>);
static_assert(kRebindsByName<DexFile>);

TEST(Substrate, MaterializesEveryImageClassOnce) {
  const auto& repo = FrameworkRepository::standard();
  const DexFile& image = repo.image(25);
  const FrameworkSubstrate sub{image, 25};
  EXPECT_EQ(sub.level(), 25);
  EXPECT_GT(sub.class_count(), 0u);
  EXPECT_GT(sub.total_footprint(), 0u);
  EXPECT_LE(sub.class_count(), image.classes().size());

  const std::string name = image.type_name(image.classes().front().type);
  const LoadedClass* cls = sub.find_class(name);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->name, name);
  EXPECT_TRUE(cls->from_framework);
  EXPECT_GT(cls->footprint, 0u);
  EXPECT_TRUE(sub.owns(*cls));
  EXPECT_EQ(sub.find_class("no/such/Class"), nullptr);
}

TEST(Substrate, MethodTablesMatchDeclarationsExactly) {
  const auto& repo = FrameworkRepository::standard();
  const DexFile& image = repo.image(25);
  const FrameworkSubstrate sub{image, 25};

  const std::string name = image.type_name(image.classes().front().type);
  const LoadedClass* cls = sub.find_class(name);
  ASSERT_NE(cls, nullptr);
  const FrameworkSubstrate::ClassEntry* entry = sub.entry_of(*cls);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(&entry->cls, cls);

  // The method table mirrors the declaration list one-to-one, with names
  // and descriptors prebuilt and invoke edges matching the instructions.
  ASSERT_EQ(entry->methods.size(), cls->def->methods.size());
  for (std::size_t i = 0; i < entry->methods.size(); ++i) {
    const MethodDef& def = cls->def->methods[i];
    const FrameworkSubstrate::MethodEntry& me = entry->methods[i];
    EXPECT_EQ(me.def, &def);
    EXPECT_EQ(me.name, image.string_at(def.name));
    EXPECT_EQ(me.descriptor, image.descriptor_of(def.proto));
    std::size_t invokes = 0;
    if (def.code) {
      for (const auto& insn : def.code->insns) {
        if (insn.op != Opcode::kInvoke) continue;
        ASSERT_LT(invokes, me.callees.size());
        const FrameworkSubstrate::CalleeEdge& edge = me.callees[invokes];
        ASSERT_NE(edge.id, nullptr);
        const MethodId expect = image.method_id_at(insn.index);
        EXPECT_EQ(edge.id->class_name, expect.class_name);
        EXPECT_EQ(edge.id->name, expect.name);
        EXPECT_EQ(edge.id->descriptor, expect.descriptor);
        if (edge.target != nullptr) {
          EXPECT_EQ(edge.target, sub.find_class(expect.class_name));
          EXPECT_EQ(sub.entry_of(*edge.target)->slot, edge.target_slot);
        }
        ++invokes;
      }
    }
    EXPECT_EQ(me.callees.size(), invokes);
  }

  // The super edge points at the substrate class the name resolves to.
  if (entry->super != nullptr) {
    EXPECT_EQ(&entry->super->cls, sub.find_class(cls->super_name));
  }

  // A private copy of the class is not owned by the substrate: identity
  // lookups must refuse (caller falls back to scanning), never answer for
  // a class they do not own.
  const LoadedClass copy = *cls;
  EXPECT_FALSE(sub.owns(copy));
  EXPECT_EQ(sub.entry_of(copy), nullptr);
}

// --- cache: one build per key, even under a stampede ---------------------------

TEST(SubstrateCache, ConcurrentFirstRequestsBuildOnce) {
  const FrameworkRepository repo{small_framework()};
  constexpr int kThreads = 8;

  std::vector<std::future<std::shared_ptr<const FrameworkSubstrate>>> reqs;
  reqs.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    reqs.push_back(std::async(std::launch::async,
                              [&repo] { return repo.substrate(17); }));
  }
  std::vector<std::shared_ptr<const FrameworkSubstrate>> handles;
  handles.reserve(kThreads);
  for (auto& r : reqs) handles.push_back(r.get());

  for (const auto& h : handles) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h.get(), handles.front().get());  // one object, shared
  }
  EXPECT_EQ(repo.substrate_build_count(), 1u);

  // A different level is a different slot: second build.
  const auto other = repo.substrate(18);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other.get(), handles.front().get());
  EXPECT_EQ(repo.substrate_build_count(), 2u);

  // The same level again: cache hit, no third build.
  EXPECT_EQ(repo.substrate(17).get(), handles.front().get());
  EXPECT_EQ(repo.substrate_build_count(), 2u);
}

// --- fault injection inside the build ------------------------------------------

TEST(SubstrateCache, PoisonedLevelFailsAloneAndRetries) {
  const FrameworkRepository repo{small_framework()};
  const std::uint64_t retries_before = framework_build_retries();

  {
    FaultPlan plan;
    plan.faults.push_back(
        {"adf.substrate", "substrate:level23", FaultSpec::Kind::kInjected});
    const FaultScope scope{plan};

    // The poisoned level throws; the sibling level builds fine.
    EXPECT_THROW((void)repo.substrate(23), InjectedFault);
    EXPECT_NO_THROW((void)repo.substrate(11));
    EXPECT_EQ(repo.substrate_build_count(), 1u);

    // A second request while still poisoned re-enters the build (the
    // failed attempt never satisfied the once-guard) and fails again.
    EXPECT_THROW((void)repo.substrate(23), InjectedFault);
  }

  // Fault cleared: the next request rebuilds and succeeds.
  std::shared_ptr<const FrameworkSubstrate> sub;
  ASSERT_NO_THROW(sub = repo.substrate(23));
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->level(), 23);
  EXPECT_EQ(repo.substrate_build_count(), 2u);

  // Every re-entry after the first attempt counts as a retry: two here
  // (second poisoned request + the post-disarm rebuild).
  EXPECT_EQ(framework_build_retries() - retries_before, 2u);
}

// --- parallel ARM mining -------------------------------------------------------

TEST(ParallelMining, DatabaseIsJobsInvariant) {
  const FrameworkRepository repo{small_framework()};
  const ApiDatabase serial = ApiDatabase::mine(repo, 1);
  const ApiDatabase parallel = ApiDatabase::mine(repo, 4);
  EXPECT_GT(serial.method_count(), 0u);
  EXPECT_EQ(serial.method_count(), parallel.method_count());
  EXPECT_EQ(serial.callback_count(), parallel.callback_count());
  EXPECT_EQ(serial.permission_mapping_count(),
            parallel.permission_mapping_count());
  // Byte-identical serialization: same insertion sequences, hence same
  // hash-map iteration order, hence the same bytes.
  EXPECT_EQ(serial.serialize(), parallel.serialize());
}

// --- shared suite fixture ------------------------------------------------------

constexpr int kCorpusSize = 96;

/// 96 small corpus apps, a pre-mined database, and a serial unshared
/// reference run — built once and reused by the determinism tests.
class SubstrateSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& repo = FrameworkRepository::standard();
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;
    config.size_spread = 1.5;
    config.api_issue_mean = 6.0;
    corpus_ = new RealWorldCorpus{repo, config};
    apps_ = new std::vector<BenchApp>{
        corpus_->generate_range(0, kCorpusSize, 8)};
    SaintDroid miner{repo};
    db_ = new std::shared_ptr<const ApiDatabase>{miner.shared_database()};
    reference_ = new SuiteResult{
        run_suite_parallel(factory(/*shared_substrate=*/false), *apps_, 1)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete apps_;
    delete corpus_;
    reference_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    corpus_ = nullptr;
  }

  static AnalyzerFactory factory(bool shared_substrate) {
    return [shared_substrate] {
      SaintDroidOptions options;
      options.shared_substrate = shared_substrate;
      return std::make_unique<SaintDroid>(FrameworkRepository::standard(),
                                          *db_, options);
    };
  }

  static RealWorldCorpus* corpus_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static SuiteResult* reference_;
};

RealWorldCorpus* SubstrateSuite::corpus_ = nullptr;
std::vector<BenchApp>* SubstrateSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* SubstrateSuite::db_ = nullptr;
SuiteResult* SubstrateSuite::reference_ = nullptr;

// --- the sharing-is-invisible property -----------------------------------------

TEST_F(SubstrateSuite, SharedAndUnsharedRowsAreByteIdenticalAcrossJobs) {
  const std::string expected = suite_bytes(*reference_);
  for (const bool shared : {false, true}) {
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("shared=" + std::to_string(shared) +
                   " jobs=" + std::to_string(jobs));
      const SuiteResult suite =
          run_suite_parallel(factory(shared), *apps_, jobs);
      EXPECT_EQ(suite_bytes(suite), expected);
    }
  }
}

TEST_F(SubstrateSuite, SingleAppReportIsIdenticalEitherWay) {
  SaintDroidOptions shared_options;
  SaintDroidOptions unshared_options;
  unshared_options.shared_substrate = false;
  SaintDroid with{FrameworkRepository::standard(), *db_, shared_options};
  SaintDroid without{FrameworkRepository::standard(), *db_, unshared_options};

  const Apk& apk = (*apps_)[1].apk;
  AnalysisResult a = with.analyze(apk);
  AnalysisResult b = without.analyze(apk);
  a.usage.seconds = 0.0;  // wall clock is the one nondeterministic field
  b.usage.seconds = 0.0;
  EXPECT_EQ(a.to_text(apk.name), b.to_text(apk.name));
  // Accounting parity: a shared framework class charges exactly the bytes
  // a private copy would, so memory telemetry is comparable across modes.
  EXPECT_EQ(a.usage.peak_bytes, b.usage.peak_bytes);
  EXPECT_EQ(a.usage.loaded_classes, b.usage.loaded_classes);
}

TEST_F(SubstrateSuite, WarmupHookRunsBeforeAnalysis) {
  bool warmed = false;
  SuiteRunOptions options;
  options.jobs = 2;
  options.warmup = [&warmed] { warmed = true; };
  const std::vector<BenchApp> head{apps_->begin(), apps_->begin() + 4};
  const SuiteResult suite =
      run_suite_parallel(factory(true), head, options);
  EXPECT_TRUE(warmed);
  EXPECT_EQ(suite.rows.size(), 4u);
}

// --- poisoned level under a full suite -----------------------------------------

TEST(SubstratePoisonedSuite, OnePoisonedLevelFailsOnlyItsApps) {
  // Private repository + corpus: the fault must hit a cold substrate slot,
  // and standard()'s slots are warm by now.
  const FrameworkRepository repo{small_framework()};
  CorpusConfig config;
  config.app_count = 48;
  config.size_base = 100.0;
  config.size_spread = 1.5;
  config.api_issue_mean = 4.0;
  const RealWorldCorpus corpus{repo, config};
  const std::vector<BenchApp> apps = corpus.generate_range(0, 48, 4);
  SaintDroid miner{repo};
  const auto db = miner.shared_database();

  const auto factory = [&repo, &db](bool shared_substrate) {
    return AnalyzerFactory{[&repo, &db, shared_substrate] {
      SaintDroidOptions options;
      options.shared_substrate = shared_substrate;
      return std::make_unique<SaintDroid>(repo, db, options);
    }};
  };

  // Reference run without the substrate, so no slot is built before the
  // fault is armed; results are identical either way by the sharing
  // contract, so the rows are comparable.
  const SuiteResult clean = run_suite_parallel(factory(false), apps, 4);

  // Poison the most-targeted level (guaranteed >= 2 victims).
  std::vector<int> per_level(static_cast<std::size_t>(kMaxApiLevel) + 1, 0);
  for (const auto& app : apps)
    ++per_level[static_cast<std::size_t>(
        FrameworkRepository::clamp_level(app.apk.manifest.target_sdk))];
  int poisoned = 0;
  for (int l = 0; l <= kMaxApiLevel; ++l)
    if (per_level[static_cast<std::size_t>(l)] >
        per_level[static_cast<std::size_t>(poisoned)])
      poisoned = l;
  const int victims = per_level[static_cast<std::size_t>(poisoned)];
  ASSERT_GE(victims, 2);

  FaultPlan plan;
  plan.faults.push_back({"adf.substrate",
                         "substrate:level" + std::to_string(poisoned),
                         FaultSpec::Kind::kInjected});

  {
    const FaultScope scope{plan};
    bool first_run = true;
    for (const int jobs : {1, 2, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      const SuiteResult faulted = run_suite_parallel(factory(true), apps,
                                                     jobs);
      ASSERT_EQ(faulted.rows.size(), apps.size());
      EXPECT_EQ(faulted.failures, victims);
      for (std::size_t i = 0; i < faulted.rows.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        const int level = FrameworkRepository::clamp_level(
            apps[i].apk.manifest.target_sdk);
        const SuiteAppRow& row = faulted.rows[i];
        if (level == poisoned) {
          EXPECT_FALSE(row.completed);
          ASSERT_TRUE(row.failure.has_value());
          EXPECT_EQ(row.failure->kind, FailureKind::kInjected);
          EXPECT_EQ(row.failure->phase, "framework");
        } else {
          // Untouched levels produce exactly the clean run's rows.
          SuiteAppRow expected = clean.rows[i];
          SuiteAppRow actual = row;
          expected.usage.seconds = 0.0;
          actual.usage.seconds = 0.0;
          EXPECT_EQ(journal_line(actual), journal_line(expected));
        }
      }
      // Each victim past the first re-enters the failed build; the exact
      // retry count is surfaced on the suite result (satellite telemetry).
      const auto expected_retries =
          static_cast<std::uint64_t>(first_run ? victims - 1 : victims);
      EXPECT_EQ(faulted.framework_retries, expected_retries);
      first_run = false;
    }
  }

  // Fault cleared: the poisoned level builds on the next suite run and the
  // whole corpus matches the clean reference again.
  const SuiteResult healed = run_suite_parallel(factory(true), apps, 4);
  EXPECT_EQ(healed.failures, clean.failures);
  EXPECT_EQ(suite_bytes(healed), suite_bytes(clean));
  EXPECT_GT(repo.substrate_build_count(), 0u);
}

}  // namespace
}  // namespace saintdroid
