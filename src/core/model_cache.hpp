// ModelCache — zero-cold-start persistence for the mined models.
//
// Mining the ApiDatabase and materializing each FrameworkSubstrate are
// pure functions of (framework, level), yet every process redid
// them at startup — a tax on every `--shard i/N` worker, every short CLI
// invocation, and fatally on a long-lived vetting daemon. The model cache
// is a directory of `.sdmc` entries (support/sdmc.hpp) keyed by
// (container version, framework fingerprint, level, option bits):
//
//   apidb-<fingerprint>.sdmc              ApiDatabase::serialize payload
//   semtab-<fingerprint>.sdmc             SemanticTable::serialize payload
//   substrate-<fingerprint>-L<l>-m1.sdmc   level image + substrate tables
//
// Loads are validate-then-bulk-read; any mismatch or corruption falls
// back to mining (and the fresh result overwrites the bad entry), so the
// cache can never change an analysis result — only its startup cost.
// Writes are rename-atomic, so concurrent shard processes safely share
// one directory. The warm≡cold byte-identity contract, and that a warm
// start mines and builds nothing, are enforced by
// tests/test_model_cache.cpp; cold-vs-warm startup time is vetbench's
// `setup_s` (vetbench/README.md).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "adf/repository.hpp"
#include "core/arm.hpp"
#include "core/saintdroid.hpp"

namespace saintdroid {

class ModelCache {
 public:
  /// Opens `dir` as a cache directory, creating it if needed. Throws
  /// ConfigError when the directory cannot be created.
  explicit ModelCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Path of the ApiDatabase entry for `repo`'s framework.
  std::string api_database_path(const FrameworkRepository& repo) const;

  /// Path of the SemanticTable entry for `repo`'s framework.
  std::string semantic_table_path(const FrameworkRepository& repo) const;

  /// Loads the cached ApiDatabase for `repo`, or nullopt when the entry
  /// is missing, keyed to a different framework or format version, or
  /// corrupt — the caller re-mines. (Parse-level defects throw inside and
  /// are swallowed here; fuzzers exercise sdmc_open/ApiDatabase::parse
  /// directly to assert the ParseError.)
  std::optional<ApiDatabase> try_load_api_database(
      const FrameworkRepository& repo) const;

  /// Stores `db` under `repo`'s key, rename-atomically.
  void store_api_database(const FrameworkRepository& repo,
                          const ApiDatabase& db) const;

  /// The warm-start entry point: loads the cached database, or mines it
  /// (fanning out over `jobs` workers, see ApiDatabase::mine) and stores
  /// the result for the next process. Either way the returned database
  /// carries the semantic-change table for `repo`'s framework: loaded from
  /// its own semtab-<fp>.sdmc entry when valid, else re-derived from the
  /// spec (cheap — no mining pass) and re-stored. `served_from_cache`,
  /// when non-null, reports whether the mining pass was skipped.
  std::shared_ptr<const ApiDatabase> api_database(
      const FrameworkRepository& repo, int jobs = 0,
      bool* served_from_cache = nullptr) const;

  /// Points `repo`'s substrate materialization at this directory (see
  /// FrameworkRepository::set_model_cache_dir): warm substrate loads
  /// become bulk rebinds of the persisted structural tables.
  void attach_substrate_cache(const FrameworkRepository& repo) const {
    repo.set_model_cache_dir(dir_);
  }

 private:
  std::string dir_;
};

/// The analysis model the analyzing commands (`analyze`, `batch`, `work`,
/// `serve`) share: the repository, the worker count, the ARM database and
/// the facade options every worker's SaintDroid is built with.
struct AnalysisModel {
  const FrameworkRepository& repo;
  int jobs = 1;
  std::shared_ptr<const ApiDatabase> db;
  /// The database was loaded from the model cache (no mining pass ran).
  bool db_from_cache = false;
  SaintDroidOptions options;
};

/// The one model setup: `jobs` <= 0 resolves to the host's hardware
/// concurrency; a non-empty `model_cache_dir` is attached to `repo` first,
/// so framework images and substrates load from it too; the database is
/// `database` when given, else loaded from the model cache (mined and
/// stored there on a miss), else mined on `jobs` workers; a non-empty
/// `incr_cache_dir` becomes the incremental fact cache every facade shares
/// (its stores are rename-atomic, so concurrent workers and processes
/// pointed at one directory race benignly). Throws ConfigError when a
/// cache directory cannot be created.
AnalysisModel load_model(const FrameworkRepository& repo, int jobs,
                         const std::string& model_cache_dir,
                         std::shared_ptr<const ApiDatabase> database,
                         const std::string& incr_cache_dir);

}  // namespace saintdroid
