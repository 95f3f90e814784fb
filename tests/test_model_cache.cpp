// The on-disk model cache (.sdmc): correctness of the container round
// trips, the repository's substrate store/hit path, and — the load-bearing
// property — *warm ≡ cold*: a process that starts from a populated cache
// (ApiDatabase loaded, substrates rebound from persisted tables) produces
// byte-identical canonical journal rows to a process that mines everything
// from scratch, over a 200-app corpus, at jobs ∈ {1, 2, 8}. Around that
// sit stale-version eviction (an old-format entry is re-mined and
// overwritten, never trusted) and concurrent shard writers racing on one
// shared cache directory (the TSan leg of ci/sanitize.sh runs this binary
// for exactly that test), plus the framework images a warm process parses
// from the substrate entries instead of emitting, and parallel warm-ups
// racing one repository's per-level once-guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "adf/repository.hpp"
#include "core/model_cache.hpp"
#include "core/saintdroid.hpp"
#include "core/semantics.hpp"
#include "dist/agent.hpp"
#include "dist/coordinator.hpp"
#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "support/sdmc.hpp"
#include "workload/corpus.hpp"
#include "workload/harness.hpp"
#include "workload/journal.hpp"

namespace saintdroid {
namespace {

/// One framework config shared by every repository instance in this file:
/// equal configs -> equal specs -> equal fingerprints, so instances
/// interchangeably share cache entries. Smaller than the standard config
/// because the tests construct many fresh repositories.
FrameworkConfig small_config() {
  FrameworkConfig cfg;
  cfg.bulk_classes = 400;
  cfg.bulk_packages = 12;
  return cfg;
}

/// A fresh, empty cache directory under the test temp root.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "model_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The byte-identity currency (same as the shard differential): canonical
/// journal lines (seconds zeroed), sorted.
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

TEST(ModelCacheDb, MissMinesStoresThenServesByteIdentical) {
  const FrameworkRepository repo{small_config()};
  const ModelCache cache{fresh_cache_dir("apidb")};

  bool served = true;
  const auto mined = cache.api_database(repo, 2, &served);
  EXPECT_FALSE(served);  // empty directory: this run paid the mining pass
  EXPECT_TRUE(
      std::filesystem::exists(cache.api_database_path(repo)));

  const auto loaded = cache.api_database(repo, 2, &served);
  EXPECT_TRUE(served);  // second process skips mining entirely
  EXPECT_EQ(mined->method_count(), loaded->method_count());
  EXPECT_EQ(mined->callback_count(), loaded->callback_count());
  EXPECT_EQ(mined->permission_mapping_count(),
            loaded->permission_mapping_count());
  // serialize(parse(b)) == b: the cached database is the mined one,
  // byte-for-byte in its canonical form.
  EXPECT_EQ(mined->serialize(), loaded->serialize());
}

TEST(ModelCacheDb, ForeignFingerprintMissesAndRemines) {
  // A cache populated by one framework must never serve another: the entry
  // is keyed by fingerprint, so a different config re-mines.
  const std::string dir = fresh_cache_dir("foreign");
  const ModelCache cache{dir};
  const FrameworkRepository repo{small_config()};
  (void)cache.api_database(repo);

  FrameworkConfig other_cfg = small_config();
  other_cfg.seed ^= 1;
  const FrameworkRepository other{other_cfg};
  ASSERT_NE(repo.fingerprint(), other.fingerprint());
  EXPECT_FALSE(cache.try_load_api_database(other).has_value());
  bool served = true;
  (void)cache.api_database(other, 1, &served);
  EXPECT_FALSE(served);
  // Both entries now coexist (distinct file names).
  EXPECT_TRUE(cache.try_load_api_database(repo).has_value());
  EXPECT_TRUE(cache.try_load_api_database(other).has_value());
}

TEST(ModelCacheDb, PrePrVersionEntriesRefusedThenReminedAndRestored) {
  // The shape an upgrade leaves behind: apidb and semtab entries written
  // by a build with a different container version. Both must be refused
  // cleanly — miss, re-mine/re-derive, overwrite — never loaded.
  const std::string dir = fresh_cache_dir("version_bump");
  const ModelCache cache{dir};
  const FrameworkRepository repo{small_config()};
  const auto fresh = cache.api_database(repo, 2);
  const auto db_reference = fresh->serialize();
  ASSERT_NE(fresh->semantics(), nullptr);
  const auto sem_reference = fresh->semantics()->serialize();

  const auto corrupt_version = [](const std::string& path) {
    auto blob = read_file_bytes(path);
    ASSERT_TRUE(blob.has_value()) << path;
    (*blob)[4] ^= 0x20;  // version is the u32 at bytes 4..7
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(blob->data()),
              static_cast<std::streamsize>(blob->size()));
  };
  corrupt_version(cache.api_database_path(repo));
  corrupt_version(cache.semantic_table_path(repo));

  EXPECT_FALSE(cache.try_load_api_database(repo).has_value());
  bool served = true;
  const auto remined = cache.api_database(repo, 2, &served);
  EXPECT_FALSE(served);  // the stale entry cost this run the mining pass
  EXPECT_EQ(remined->serialize(), db_reference);
  ASSERT_NE(remined->semantics(), nullptr);
  EXPECT_EQ(remined->semantics()->serialize(), sem_reference);

  // Both entries were overwritten in place: the next process is warm
  // again, semantic table included.
  const auto healthy = cache.api_database(repo, 2, &served);
  EXPECT_TRUE(served);
  EXPECT_EQ(healthy->serialize(), db_reference);
  ASSERT_NE(healthy->semantics(), nullptr);
  EXPECT_EQ(healthy->semantics()->serialize(), sem_reference);
}

TEST(ModelCacheSubstrate, RebindMatchesFullBuildExactly) {
  const FrameworkRepository repo{small_config()};
  const int level = 23;
  const auto built = repo.substrate(level);
  const auto tables = built->serialize_tables();

  const FrameworkSubstrate rebound{FrameworkSubstrate::kRebind,
                                   repo.image(level), level, tables};
  EXPECT_EQ(rebound.class_count(), built->class_count());
  EXPECT_EQ(rebound.method_count(), built->method_count());
  EXPECT_EQ(rebound.total_footprint(), built->total_footprint());
  // Structural identity down to the last edge: re-serializing the rebound
  // substrate reproduces the exact table bytes.
  EXPECT_EQ(rebound.serialize_tables(), tables);

  const LoadedClass* cls = rebound.find_class("android/app/Activity");
  ASSERT_NE(cls, nullptr);
  EXPECT_NE(FrameworkSubstrate::entry_of(*cls), nullptr);
}

TEST(ModelCacheSubstrate, RepositoryStoresThenLaterInstanceHits) {
  const std::string dir = fresh_cache_dir("repo_hit");

  const FrameworkRepository writer{small_config()};
  writer.set_model_cache_dir(dir);
  const auto built = writer.substrate(23);
  EXPECT_EQ(writer.substrate_cache_hits(), 0u);
  EXPECT_EQ(writer.substrate_cache_stores(), 1u);
  EXPECT_EQ(writer.substrate_build_count(), 1u);

  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  const auto rebound = reader.substrate(23);
  EXPECT_EQ(reader.substrate_cache_hits(), 1u);
  EXPECT_EQ(reader.substrate_cache_stores(), 0u);
  EXPECT_EQ(rebound->serialize_tables(), built->serialize_tables());
}

TEST(ModelCacheSubstrate, StaleVersionEntryIsEvictedAndOverwritten) {
  const std::string dir = fresh_cache_dir("stale");
  const FrameworkRepository writer{small_config()};
  writer.set_model_cache_dir(dir);
  const auto original = writer.substrate(23)->serialize_tables();

  // Corrupt the stored container's version field in place — the shape a
  // leftover cache from an older build has after a format bump.
  const std::string entry =
      dir + "/substrate-" + writer.fingerprint() + "-L23-m1.sdmc";
  auto blob = read_file_bytes(entry);
  ASSERT_TRUE(blob.has_value());
  (*blob)[4] ^= 0x20;  // version is the u32 at bytes 4..7
  std::ofstream out{entry, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(blob->data()),
            static_cast<std::streamsize>(blob->size()));
  out.close();

  // The stale entry must not load: the next instance re-mines and
  // overwrites it...
  const FrameworkRepository evictor{small_config()};
  evictor.set_model_cache_dir(dir);
  const auto rebuilt = evictor.substrate(23);
  EXPECT_EQ(evictor.substrate_cache_hits(), 0u);
  EXPECT_EQ(evictor.substrate_cache_stores(), 1u);
  EXPECT_EQ(rebuilt->serialize_tables(), original);

  // ...after which the directory is healthy again.
  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  (void)reader.substrate(23);
  EXPECT_EQ(reader.substrate_cache_hits(), 1u);
}

TEST(ModelCacheSubstrate, ConcurrentWritersShareOneDirectorySafely) {
  // N fresh repositories (as N shard processes would be) race on one empty
  // cache directory across several levels. Rename-atomic publication means
  // every writer either rebinds a complete entry or builds and publishes
  // its own identical copy — never reads a torn file. This is the test the
  // TSan leg pins.
  const std::string dir = fresh_cache_dir("race");
  constexpr int kWriters = 4;
  const int levels[] = {21, 23, 25};

  std::vector<std::vector<std::vector<std::uint8_t>>> tables(kWriters);
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const FrameworkRepository repo{small_config()};
      repo.set_model_cache_dir(dir);
      for (const int level : levels)
        tables[static_cast<std::size_t>(w)].push_back(
            repo.substrate(level)->serialize_tables());
    });
  }
  for (auto& t : threads) t.join();

  for (int w = 1; w < kWriters; ++w)
    EXPECT_EQ(tables[static_cast<std::size_t>(w)], tables[0]) << "w=" << w;

  // The settled directory serves a late reader from cache at every level.
  const FrameworkRepository reader{small_config()};
  reader.set_model_cache_dir(dir);
  for (const int level : levels) (void)reader.substrate(level);
  EXPECT_EQ(reader.substrate_cache_hits(), 3u);
}

// --- framework images served from the substrate entries ----------------------

/// The level's substrate entry, which carries its image.
std::string substrate_entry(const std::string& dir,
                            const FrameworkRepository& repo, int level) {
  return dir + "/substrate-" + repo.fingerprint() + "-L" +
         std::to_string(level) + "-m1.sdmc";
}

TEST(ModelCacheImage, WarmRepositoryParsesEveryLevelWithoutEmitting) {
  const std::string dir = fresh_cache_dir("image_levels");
  const FrameworkRepository cold{small_config()};
  cold.set_model_cache_dir(dir);
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level)
    (void)cold.substrate(level);
  EXPECT_EQ(cold.image_cache_hits(), 0u);  // empty directory: all emitted

  const FrameworkRepository warm{small_config()};
  warm.set_model_cache_dir(dir);
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    SCOPED_TRACE("level=" + std::to_string(level));
    EXPECT_EQ(warm.image(level).serialize(), cold.image(level).serialize());
    EXPECT_EQ(warm.substrate(level)->serialize_tables(),
              cold.substrate(level)->serialize_tables());
  }
  // Nothing was emitted or re-derived: every image was parsed from its
  // level's entry and every substrate rebound from it.
  const auto levels =
      static_cast<std::uint64_t>(kMaxApiLevel - kMinApiLevel + 1);
  EXPECT_EQ(warm.image_cache_hits(), levels);
  EXPECT_EQ(warm.substrate_cache_hits(), levels);
  EXPECT_EQ(warm.substrate_cache_stores(), 0u);
}

TEST(ModelCacheImage, DamagedImageSectionFallsBackAndRewritesEntry) {
  const std::string dir = fresh_cache_dir("image_damage");
  const int level = 23;
  const FrameworkRepository cold{small_config()};
  cold.set_model_cache_dir(dir);
  const auto tables = cold.substrate(level)->serialize_tables();
  const auto image = cold.image(level).serialize();
  const std::string entry = substrate_entry(dir, cold, level);
  const auto healthy = read_file_bytes(entry);
  ASSERT_TRUE(healthy.has_value());

  SdmcKey key;
  key.kind = SdmcKind::kSubstrateTables;
  key.fingerprint = cold.fingerprint();
  key.level = level;
  key.options = 1;

  // Raw flips and cuts of the image section fail the checksum (swept in
  // test_fuzz). Here the entry is resealed with a valid checksum around an
  // image section that is cut short or garbled: only the image parse can
  // refuse it, and the substrate build must then not rebind from it.
  const auto resealed = [&](std::size_t keep, bool garble) {
    std::vector<std::uint8_t> bytes(image.begin(),
                                    image.begin() + static_cast<long>(keep));
    if (garble) bytes[0] ^= 0xFF;  // SDEX magic
    ByteWriter w;
    w.uleb(bytes.size());
    w.bytes(bytes);
    w.bytes(tables);
    return sdmc_seal(key, w.data());
  };
  const std::pair<std::string, std::vector<std::uint8_t>> damages[] = {
      {"resealed cut", resealed(image.size() / 2, false)},
      {"resealed garble", resealed(image.size(), true)},
  };

  for (const auto& [name, blob] : damages) {
    SCOPED_TRACE(name);
    write_file_atomic(entry, blob);
    const FrameworkRepository repo{small_config()};
    repo.set_model_cache_dir(dir);
    EXPECT_EQ(repo.image(level).serialize(), image);
    EXPECT_EQ(repo.image_cache_hits(), 0u);  // emitted, not trusted
    EXPECT_EQ(repo.substrate(level)->serialize_tables(), tables);
    EXPECT_EQ(repo.substrate_cache_hits(), 0u);
    EXPECT_EQ(repo.substrate_cache_stores(), 1u);
    // The entry was rewritten whole: the next process is warm again.
    EXPECT_EQ(read_file_bytes(entry), healthy);
    const FrameworkRepository next{small_config()};
    next.set_model_cache_dir(dir);
    EXPECT_EQ(next.image(level).serialize(), image);
    EXPECT_EQ(next.image_cache_hits(), 1u);
  }
}

TEST(ModelCacheImage, VersionTwoEntryIsEvicted) {
  // A leftover entry from container version 2 (tables only, no image) must
  // neither serve an image nor rebind: it is rebuilt and overwritten.
  const std::string dir = fresh_cache_dir("image_v2");
  const int level = 21;
  const FrameworkRepository cold{small_config()};
  cold.set_model_cache_dir(dir);
  const auto tables = cold.substrate(level)->serialize_tables();
  const std::string entry = substrate_entry(dir, cold, level);
  const auto healthy = read_file_bytes(entry);
  ASSERT_TRUE(healthy.has_value());
  auto old = *healthy;
  ASSERT_EQ(old[4], kSdmcFormatVersion);  // version is the u32 at 4..7
  old[4] = 2;
  write_file_atomic(entry, old);

  const FrameworkRepository repo{small_config()};
  repo.set_model_cache_dir(dir);
  EXPECT_EQ(repo.image(level).serialize(), cold.image(level).serialize());
  EXPECT_EQ(repo.substrate(level)->serialize_tables(), tables);
  EXPECT_EQ(repo.image_cache_hits(), 0u);
  EXPECT_EQ(repo.substrate_cache_hits(), 0u);
  EXPECT_EQ(repo.substrate_cache_stores(), 1u);
  EXPECT_EQ(read_file_bytes(entry), healthy);
}

TEST(ModelCacheImage, ConcurrentWarmUpsRaceOneRepository) {
  // Parallel warm-ups (and direct image/substrate requests) race the
  // per-level once-guards of one repository over a filled cache: each
  // level is loaded exactly once, and every caller sees the same objects.
  // The TSan leg of ci/sanitize.sh runs this.
  const std::string dir = fresh_cache_dir("image_race");
  std::vector<int> levels;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; level += 3)
    levels.push_back(level);
  {
    const FrameworkRepository cold{small_config()};
    cold.set_model_cache_dir(dir);
    (void)warm_target_levels(cold, levels, 4);
  }

  const FrameworkRepository repo{small_config()};
  repo.set_model_cache_dir(dir);
  std::vector<WarmupStats> stats(3);
  std::vector<const DexFile*> images(3);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < stats.size(); ++t)
    threads.emplace_back([&, t] {
      stats[t] = warm_target_levels(repo, levels, 4);
      images[t] = &repo.image(levels.back());
    });
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 0; t < stats.size(); ++t) {
    EXPECT_EQ(stats[t].levels, levels.size());
    EXPECT_EQ(images[t], images[0]);
  }
  EXPECT_EQ(repo.image_cache_hits(), levels.size());
  EXPECT_EQ(repo.substrate_cache_hits(), levels.size());
  EXPECT_EQ(repo.substrate_build_count(), levels.size());
}

// --- the warm ≡ cold differential ----------------------------------------------

constexpr int kCorpusSize = 200;

/// 200 corpus apps and the cold-start reference rows (fresh repository,
/// mined database, no cache anywhere), built once.
class WarmColdSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new FrameworkRepository{small_config()};
    CorpusConfig config;
    config.app_count = kCorpusSize;
    config.size_base = 120.0;  // small apps, same generative structure
    config.size_spread = 1.5;
    config.api_issue_mean = 6.0;
    // SEM/SDC strata on: warm ≡ cold must hold with the semantic table
    // riding in the cache and the newer detector families firing.
    config.semantic_app_fraction = 0.4;
    config.declaration_issue_fraction = 0.3;
    config.helper_guard_fraction = 0.5;
    const RealWorldCorpus corpus{*repo_, config};
    apps_ = new std::vector<BenchApp>{
        corpus.generate_range(0, kCorpusSize, 8)};
    db_ = new std::shared_ptr<const ApiDatabase>{
        std::make_shared<const ApiDatabase>(ApiDatabase::mine(*repo_, 8))};
    reference_ = new std::string{sorted_canonical(
        run_suite_parallel(
            [] { return std::make_unique<SaintDroid>(*repo_, *db_); },
            *apps_, 4)
            .rows)};
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete db_;
    delete apps_;
    delete repo_;
    reference_ = nullptr;
    db_ = nullptr;
    apps_ = nullptr;
    repo_ = nullptr;
  }

  static FrameworkRepository* repo_;
  static std::vector<BenchApp>* apps_;
  static std::shared_ptr<const ApiDatabase>* db_;
  static std::string* reference_;
};

FrameworkRepository* WarmColdSuite::repo_ = nullptr;
std::vector<BenchApp>* WarmColdSuite::apps_ = nullptr;
std::shared_ptr<const ApiDatabase>* WarmColdSuite::db_ = nullptr;
std::string* WarmColdSuite::reference_ = nullptr;

TEST_F(WarmColdSuite, CachedRunsEqualMinedRunsAcrossJobs) {
  // One shared cache directory across every jobs value, exactly as shard
  // processes share one. The first run populates it (mining once); every
  // later run is fully warm — database served from cache, substrates
  // rebound — and every run's canonical rows must equal the cold
  // reference byte-for-byte.
  const std::string dir = fresh_cache_dir("differential");
  bool first = true;
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const FrameworkRepository repo{small_config()};
    const ModelCache cache{dir};
    cache.attach_substrate_cache(repo);

    bool served = false;
    const auto db = cache.api_database(repo, jobs, &served);
    EXPECT_EQ(served, !first);
    EXPECT_EQ(db->serialize(), (*db_)->serialize());

    const SuiteResult suite = run_suite_parallel(
        [&] { return std::make_unique<SaintDroid>(repo, db); }, *apps_,
        jobs);
    EXPECT_EQ(sorted_canonical(suite.rows), *reference_);
    if (!first) {
      // A warm process re-derives nothing: every substrate it touched was
      // rebound from the cache, none stored anew.
      EXPECT_GT(repo.substrate_cache_hits(), 0u);
      EXPECT_EQ(repo.substrate_cache_stores(), 0u);
    }
    first = false;
  }
}

TEST_F(WarmColdSuite, AgentAttachesTheCacheBeforeWarmup) {
  // The AgentOptions knob is what in-process agents ride: setting
  // (model_cache_dir, repository) must attach the cache before the first
  // lease's warmup, so the warmed substrates populate (round 0) or hit
  // (round 1) it — and rows stay identical.
  const std::string dir = fresh_cache_dir("agent_knob");
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    const FrameworkRepository repo{small_config()};
    const auto db = ModelCache{dir}.api_database(repo, 2);
    const std::string root = dir + "-work" + std::to_string(round);
    std::filesystem::remove_all(root);
    const WorkDir work{root};
    work.publish(plan_work_queue(*apps_, {}, {}), WorkDir::now_seconds());

    AgentOptions options;
    options.worker = "w";
    options.jobs = 2;
    options.resolve = [](const WorkItem& item) {
      for (const auto& app : *apps_)
        if (app.apk.name == item.name) return app;
      throw Error("unknown app " + item.name);
    };
    options.factory = [&] { return std::make_unique<SaintDroid>(repo, db); };
    options.model_cache_dir = dir;
    options.repository = &repo;
    bool cache_attached = false;
    options.warmup = [&](std::span<const BenchApp> slice) {
      cache_attached = repo.model_cache_dir() == dir;
      for (const auto& app : slice)
        (void)repo.substrate(
            FrameworkRepository::clamp_level(app.apk.manifest.target_sdk));
    };
    (void)run_agent(work, options);
    EXPECT_TRUE(cache_attached);
    EXPECT_EQ(sorted_canonical(collect(work).suite.rows), *reference_);
    if (round == 0) {
      EXPECT_GT(repo.substrate_cache_stores(), 0u);
    } else {
      EXPECT_GT(repo.substrate_cache_hits(), 0u);
    }
    std::filesystem::remove_all(root);
  }
}

}  // namespace
}  // namespace saintdroid
