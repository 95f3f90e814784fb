#include "core/model_cache.hpp"

#include <utility>

#include "core/semantics.hpp"
#include "support/errors.hpp"
#include "support/sdmc.hpp"
#include "support/thread_pool.hpp"

namespace saintdroid {

namespace {

SdmcKey api_database_key(const FrameworkRepository& repo) {
  SdmcKey key;
  key.kind = SdmcKind::kApiDatabase;
  key.fingerprint = repo.fingerprint();
  return key;
}

SdmcKey semantic_table_key(const FrameworkRepository& repo) {
  SdmcKey key;
  key.kind = SdmcKind::kSemanticTable;
  key.fingerprint = repo.fingerprint();
  return key;
}

}  // namespace

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {
  ensure_directory(dir_);
}

std::string ModelCache::api_database_path(
    const FrameworkRepository& repo) const {
  return dir_ + "/apidb-" + repo.fingerprint() + ".sdmc";
}

std::optional<ApiDatabase> ModelCache::try_load_api_database(
    const FrameworkRepository& repo) const {
  try {
    const auto blob = read_file_bytes(api_database_path(repo));
    if (!blob) return std::nullopt;
    return ApiDatabase::parse(sdmc_open(*blob, api_database_key(repo)));
  } catch (const Error&) {
    return std::nullopt;  // stale/foreign/corrupt entry: caller re-mines
  }
}

void ModelCache::store_api_database(const FrameworkRepository& repo,
                                    const ApiDatabase& db) const {
  write_file_atomic(api_database_path(repo),
                    sdmc_seal(api_database_key(repo), db.serialize()));
}

std::string ModelCache::semantic_table_path(
    const FrameworkRepository& repo) const {
  return dir_ + "/semtab-" + repo.fingerprint() + ".sdmc";
}

std::shared_ptr<const ApiDatabase> ModelCache::api_database(
    const FrameworkRepository& repo, int jobs,
    bool* served_from_cache) const {
  // Ensures the returned database carries the semantic table: cached entry
  // when valid, else re-derived from the spec (no mining pass) and stored
  // for the next process.
  const auto attach_semantics = [this, &repo](ApiDatabase& db) {
    try {
      if (const auto blob = read_file_bytes(semantic_table_path(repo))) {
        db.attach_semantics(std::make_shared<const SemanticTable>(
            SemanticTable::parse(sdmc_open(*blob, semantic_table_key(repo)))));
        return;
      }
    } catch (const Error&) {
      // Stale/foreign/corrupt entry: fall through and re-derive.
    }
    auto table =
        std::make_shared<const SemanticTable>(mine_semantic_table(repo.spec()));
    db.attach_semantics(table);
    try {
      write_file_atomic(semantic_table_path(repo),
                        sdmc_seal(semantic_table_key(repo),
                                  table->serialize()));
    } catch (const Error&) {
      // A read-only or full cache directory costs only the next warm start.
    }
  };

  if (auto cached = try_load_api_database(repo)) {
    if (served_from_cache != nullptr) *served_from_cache = true;
    attach_semantics(*cached);
    return std::make_shared<const ApiDatabase>(*std::move(cached));
  }
  if (served_from_cache != nullptr) *served_from_cache = false;
  auto mined = ApiDatabase::mine(repo, jobs);
  attach_semantics(mined);  // replaces the mined table with the cached one
  auto db = std::make_shared<const ApiDatabase>(std::move(mined));
  try {
    store_api_database(repo, *db);
  } catch (const Error&) {
    // A read-only or full cache directory costs only the next warm start.
  }
  return db;
}

AnalysisModel load_model(const FrameworkRepository& repo, int jobs,
                         const std::string& model_cache_dir,
                         std::shared_ptr<const ApiDatabase> database,
                         const std::string& incr_cache_dir) {
  if (jobs <= 0) jobs = static_cast<int>(ThreadPool::default_workers());
  std::optional<ModelCache> cache;
  if (!model_cache_dir.empty()) {
    cache.emplace(model_cache_dir);
    cache->attach_substrate_cache(repo);
  }
  bool from_cache = false;
  if (database == nullptr)
    database = cache ? cache->api_database(repo, jobs, &from_cache)
                     : std::make_shared<const ApiDatabase>(
                           ApiDatabase::mine(repo, jobs));
  AnalysisModel model{repo, jobs, std::move(database), from_cache, {}};
  if (!incr_cache_dir.empty())
    model.options.incr_cache = std::make_shared<const IncrCache>(incr_cache_dir);
  return model;
}

}  // namespace saintdroid
