// The incremental re-vetting layer (core/incr_cache): proof that
// cache-spliced analysis of an app update is *equivalent* to from-scratch
// analysis. The load-bearing property — incremental ≡ scratch — is a
// byte-identity over canonical journal rows, checked across 50 version
// chains × 4 versions (200 generated app versions spanning all five
// mismatch families), at jobs ∈ {1, 2, 8}, including a frontier-explosion
// chain whose final update must trip the loud full-analysis fallback, a
// killed-and-resumed batch, and two suites racing on one shared cache
// directory (the TSan leg of ci/sanitize.sh runs this binary for exactly
// that test). Around the differential sit unit checks of the dirty-set
// computation and the entry codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "core/incr_cache.hpp"
#include "core/saintdroid.hpp"
#include "support/errors.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

constexpr int kChains = 48;      ///< localized-edit chains
constexpr int kExplosions = 2;   ///< chains whose final bump edits the hub
constexpr int kVersions = 4;
constexpr int kApps = kChains + kExplosions;

/// Shared framework config: equal configs -> equal fingerprints, so every
/// repository instance in this file shares cache entries.
FrameworkConfig small_config() {
  FrameworkConfig cfg;
  cfg.bulk_classes = 400;
  cfg.bulk_packages = 12;
  return cfg;
}

std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "incr_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The byte-identity currency (same as the shard and model-cache
/// differentials): canonical journal lines, sorted. canonical_row_bytes
/// clears the incr counters, so a spliced row and a scratch row of the
/// same app must compare equal.
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

VersionChainConfig local_config() {
  VersionChainConfig cfg;
  cfg.versions = kVersions;
  return cfg;
}

VersionChainConfig explosion_config() {
  VersionChainConfig cfg = local_config();
  cfg.edit_main_activity = true;
  return cfg;
}

/// Explosion chains live at indices far from the localized ones so the
/// two configs can never collide on an app name (the cache key).
constexpr int kExplosionBase = 900;

/// The corpus (every version of every chain), one mined database, and the
/// per-version from-scratch reference rows — built once.
class ChainSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new FrameworkRepository{small_config()};
    versions_ = new std::vector<std::vector<BenchApp>>(kVersions);
    for (int v = 0; v < kVersions; ++v) {
      auto& apps = (*versions_)[static_cast<std::size_t>(v)];
      apps.reserve(kApps);
      for (int c = 0; c < kChains; ++c)
        apps.push_back(generate_chain_version(*repo_, local_config(), c, v));
      for (int e = 0; e < kExplosions; ++e)
        apps.push_back(generate_chain_version(*repo_, explosion_config(),
                                              kExplosionBase + e, v));
    }
    db_ = new std::shared_ptr<const ApiDatabase>{
        std::make_shared<const ApiDatabase>(ApiDatabase::mine(*repo_, 8))};
    scratch_ = new std::vector<std::string>(kVersions);
    for (int v = 0; v < kVersions; ++v)
      (*scratch_)[static_cast<std::size_t>(v)] = sorted_canonical(
          run_suite_parallel(
              [] { return std::make_unique<SaintDroid>(*repo_, *db_); },
              (*versions_)[static_cast<std::size_t>(v)], 4)
              .rows);
  }

  static void TearDownTestSuite() {
    delete scratch_;
    delete db_;
    delete versions_;
    delete repo_;
    scratch_ = nullptr;
    db_ = nullptr;
    versions_ = nullptr;
    repo_ = nullptr;
  }

  /// An analyzer factory whose facades share one incremental cache.
  static AnalyzerFactory incr_factory(
      const std::shared_ptr<const IncrCache>& cache) {
    return [cache] {
      SaintDroidOptions options;
      options.incr_cache = cache;
      return std::make_unique<SaintDroid>(*repo_, *db_, options);
    };
  }

  static const std::vector<BenchApp>& version(int v) {
    return (*versions_)[static_cast<std::size_t>(v)];
  }
  static const std::string& scratch(int v) {
    return (*scratch_)[static_cast<std::size_t>(v)];
  }

  static FrameworkRepository* repo_;
  static std::vector<std::vector<BenchApp>>* versions_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::vector<std::string>* scratch_;
};

FrameworkRepository* ChainSuite::repo_ = nullptr;
std::vector<std::vector<BenchApp>>* ChainSuite::versions_ = nullptr;
std::shared_ptr<const ApiDatabase>* ChainSuite::db_ = nullptr;
std::vector<std::string>* ChainSuite::scratch_ = nullptr;

// --- corpus shape ------------------------------------------------------------

TEST_F(ChainSuite, ConsecutiveVersionsDifferOnlyInEditedClasses) {
  const VersionChainConfig cfg = local_config();
  for (int v = 1; v < kVersions; ++v) {
    for (const int c : {0, 7, kChains - 1}) {
      SCOPED_TRACE("chain " + std::to_string(c) + " v" + std::to_string(v));
      const auto& prev = version(v - 1)[static_cast<std::size_t>(c)].apk;
      const auto& next = version(v)[static_cast<std::size_t>(c)].apk;
      ASSERT_EQ(prev.name, next.name);  // one cache key per chain

      const ApkFingerprints before = fingerprint_apk(prev);
      const ApkFingerprints after = fingerprint_apk(next);
      std::set<std::string> differing;
      for (const auto& [name, fp] : after) {
        const auto it = before.find(name);
        if (it == before.end() || !(it->second == fp)) differing.insert(name);
      }
      for (const auto& [name, fp] : before)
        if (after.find(name) == after.end()) differing.insert(name);

      // A bump touches its edited slots plus the dead-churn swap (old
      // class out, new class in) — and nothing else. In particular the
      // hub (MainActivity) must be byte-stable, or every bump would dirty
      // the whole app.
      EXPECT_LE(differing.size(),
                static_cast<std::size_t>(cfg.edits_per_version +
                                         2 * cfg.dead_churn));
      EXPECT_GE(differing.size(), static_cast<std::size_t>(2 * cfg.dead_churn));
      for (const auto& name : differing)
        EXPECT_NE(name.find("/chain/"), std::string::npos) << name;
    }
  }
}

TEST_F(ChainSuite, ChainsSpanAllFiveFamilies) {
  // The round-robin slot layout plus consecutive edit selection must
  // exercise every detector family somewhere in the corpus ledger.
  std::set<MismatchKind> kinds;
  for (const auto& app : version(0))
    for (const auto& issue : app.truth.issues) kinds.insert(issue.kind);
  EXPECT_TRUE(kinds.count(MismatchKind::kApiInvocation));
  EXPECT_TRUE(kinds.count(MismatchKind::kApiCallback));
  EXPECT_TRUE(kinds.count(MismatchKind::kPermissionRequest));
  EXPECT_TRUE(kinds.count(MismatchKind::kSemanticChange));
  EXPECT_TRUE(kinds.count(MismatchKind::kSdkDeclaration));
}

// --- dirty-set unit checks ---------------------------------------------------

TEST(IncrDirtySet, IdenticalFingerprintsAreFullyClean) {
  const FrameworkRepository repo{small_config()};
  const BenchApp app = generate_chain_version(repo, local_config(), 0, 0);
  const ApkFingerprints fps = fingerprint_apk(app.apk);

  IncrEntry entry;
  entry.app = app.apk.name;
  for (const auto& [name, fp] : fps) entry.classes[name].fingerprint = fp;

  const DirtyDelta delta = compute_dirty(entry, fps);
  EXPECT_TRUE(delta.dirty.empty());
  EXPECT_EQ(delta.total_classes, fps.size());
  EXPECT_DOUBLE_EQ(delta.fraction(), 0.0);
}

TEST(IncrDirtySet, LocalizedEditStaysUnderFallbackThreshold) {
  const FrameworkRepository repo{small_config()};
  const BenchApp v0 = generate_chain_version(repo, local_config(), 3, 0);
  const BenchApp v1 = generate_chain_version(repo, local_config(), 3, 1);

  IncrEntry entry;
  entry.app = v0.apk.name;
  for (const auto& [name, fp] : fingerprint_apk(v0.apk))
    entry.classes[name].fingerprint = fp;

  const DirtyDelta delta = compute_dirty(entry, fingerprint_apk(v1.apk));
  EXPECT_FALSE(delta.dirty.empty());
  for (const auto& name : delta.dirty)
    EXPECT_NE(name.find("/chain/"), std::string::npos) << name;
  EXPECT_LE(delta.fraction(), SaintDroidOptions{}.max_dirty_fraction);
}

TEST(IncrDirtySet, HubEditExplodesPastFallbackThreshold) {
  // The explosion chain's final bump edits MainActivity; onCreate
  // references every slot, so the forward closure engulfs the app and the
  // fraction must exceed the engine's default budget — the case the loud
  // fallback exists for.
  const FrameworkRepository repo{small_config()};
  const VersionChainConfig cfg = explosion_config();
  const BenchApp prev = generate_chain_version(repo, cfg, 0, kVersions - 2);
  const BenchApp last = generate_chain_version(repo, cfg, 0, kVersions - 1);

  IncrEntry entry;
  entry.app = prev.apk.name;
  for (const auto& [name, fp] : fingerprint_apk(prev.apk))
    entry.classes[name].fingerprint = fp;

  const DirtyDelta delta = compute_dirty(entry, fingerprint_apk(last.apk));
  EXPECT_GT(delta.fraction(), SaintDroidOptions{}.max_dirty_fraction);
}

TEST(IncrEntryCodec, RoundTripIsByteStable) {
  const FrameworkRepository repo{small_config()};
  const BenchApp app = generate_chain_version(repo, local_config(), 5, 2);

  IncrEntry entry;
  entry.app = app.apk.name;
  entry.manifest_fp = manifest_fingerprint(app.apk.manifest);
  entry.options_fp = aum_options_fingerprint(AumOptions{});
  for (const auto& [name, fp] : fingerprint_apk(app.apk))
    entry.classes[name].fingerprint = fp;

  const auto bytes = serialize_incr_entry(entry);
  const IncrEntry parsed = parse_incr_entry(bytes);
  EXPECT_EQ(parsed.app, entry.app);
  EXPECT_EQ(parsed.manifest_fp, entry.manifest_fp);
  EXPECT_EQ(parsed.options_fp, entry.options_fp);
  EXPECT_EQ(parsed.classes.size(), entry.classes.size());
  EXPECT_EQ(serialize_incr_entry(parsed), bytes);
}

// --- the differential --------------------------------------------------------

TEST_F(ChainSuite, IncrementalEqualsScratchAcrossVersionsAndJobs) {
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto cache = std::make_shared<const IncrCache>(
        fresh_cache_dir("equiv_j" + std::to_string(jobs)));
    for (int v = 0; v < kVersions; ++v) {
      SCOPED_TRACE("version " + std::to_string(v));
      const SuiteResult suite =
          run_suite_parallel(incr_factory(cache), version(v), jobs);

      // The proof: spliced rows are byte-identical to from-scratch rows.
      EXPECT_EQ(sorted_canonical(suite.rows), scratch(v));

      // The counters tell the story the bytes cannot: v0 is all cold
      // misses; every localized bump is served from the cache; the
      // explosion chains' final bump takes the loud fallback.
      EXPECT_EQ(suite.incremental.attempted,
                static_cast<std::uint64_t>(kApps));
      if (v == 0) {
        EXPECT_EQ(suite.incremental.hits, 0u);
        EXPECT_EQ(suite.incremental.fallbacks,
                  static_cast<std::uint64_t>(kApps));
      } else if (v < kVersions - 1) {
        EXPECT_EQ(suite.incremental.hits, static_cast<std::uint64_t>(kApps));
        EXPECT_EQ(suite.incremental.fallbacks, 0u);
        EXPECT_GT(suite.incremental.dirty_classes, 0u);
      } else {
        EXPECT_EQ(suite.incremental.hits,
                  static_cast<std::uint64_t>(kChains));
        EXPECT_EQ(suite.incremental.fallbacks,
                  static_cast<std::uint64_t>(kExplosions));
      }
    }
  }
}

TEST_F(ChainSuite, KilledBatchResumesToScratchRows) {
  // Warm the cache with the initial publish, then vet the first update in
  // a batch that "dies" partway (the harness's graceful stop, which a real
  // kill degenerates to thanks to the journal's append-and-seal
  // discipline). The resumed run must merge the dead run's journaled rows
  // verbatim, finish the rest through the same shared cache, and land on
  // the from-scratch bytes.
  const auto cache =
      std::make_shared<const IncrCache>(fresh_cache_dir("resume"));
  run_suite_parallel(incr_factory(cache), version(0), 4);

  const std::string journal =
      ::testing::TempDir() + "incr_resume_journal.jsonl";
  std::filesystem::remove(journal);

  SuiteRunOptions killed;
  killed.jobs = 2;
  killed.journal_path = journal;
  std::atomic<int> polls{0};  // the stop poll races across workers
  killed.stop = [&polls] { return ++polls > kApps / 3; };
  const SuiteResult partial =
      run_suite_parallel(incr_factory(cache), version(1), killed);
  ASSERT_LT(partial.rows.size(), static_cast<std::size_t>(kApps));
  ASSERT_GT(partial.skipped_rows, 0u);

  SuiteRunOptions resumed;
  resumed.jobs = 4;
  resumed.journal_path = journal;
  resumed.resume = true;
  const SuiteResult finished =
      run_suite_parallel(incr_factory(cache), version(1), resumed);
  ASSERT_EQ(finished.rows.size(), static_cast<std::size_t>(kApps));
  EXPECT_EQ(finished.resumed_rows, partial.rows.size());
  EXPECT_EQ(sorted_canonical(finished.rows), scratch(1));

  std::filesystem::remove(journal);
}

TEST_F(ChainSuite, ConcurrentSuitesShareOneCacheDirectory) {
  // Two whole batch runs racing on one cache directory — the shard
  // topology, and the TSan leg's subject. Stores are rename-atomic and
  // loads swallow every defect, so both runs must produce scratch bytes
  // whatever the interleaving; hit counts may differ (either run may get
  // to an entry first), correctness may not.
  const auto cache =
      std::make_shared<const IncrCache>(fresh_cache_dir("race"));
  run_suite_parallel(incr_factory(cache), version(0), 4);

  std::string left_bytes;
  std::string right_bytes;
  std::thread left([&] {
    left_bytes = sorted_canonical(
        run_suite_parallel(incr_factory(cache), version(1), 4).rows);
  });
  std::thread right([&] {
    right_bytes = sorted_canonical(
        run_suite_parallel(incr_factory(cache), version(2), 4).rows);
  });
  left.join();
  right.join();
  EXPECT_EQ(left_bytes, scratch(1));
  EXPECT_EQ(right_bytes, scratch(2));
}

}  // namespace
}  // namespace saintdroid
