// FrameworkRepository: builds and caches the per-level framework images.
//
// This is the artifact the paper's ARM constructs "once for a given
// framework ... as a reusable model upon which the compatibility analysis
// of all apps relies" (§III-B). Images are built lazily per level and
// cached for the repository's lifetime; standard() provides a process-wide
// immutable default so tests and benches share one build.
//
// Besides the raw images and their class-name indexes, the repository
// caches one FrameworkSubstrate per level — the shared, immutable,
// eagerly-materialized framework layer of the class hierarchy that
// per-app analyses point into instead of re-materializing (see
// clvm/substrate.hpp and docs/ARCHITECTURE.md). Each level's substrate is
// built once under its own exception-safe once-guard and handed out as
// shared_ptr<const>.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "adf/image.hpp"
#include "adf/synthetic.hpp"
#include "clvm/substrate.hpp"
#include "support/once.hpp"
#include "support/sdmc.hpp"

namespace saintdroid {

/// Name -> definition lookup over one framework image; built once per
/// level and shared by every analysis against that level.
using FrameworkClassIndex =
    std::unordered_map<std::string, const ClassDef*>;

class FrameworkRepository {
 public:
  explicit FrameworkRepository(FrameworkConfig cfg = {});

  const FrameworkSpec& spec() const { return spec_; }
  const FrameworkConfig& config() const { return cfg_; }

  /// The framework image at `level`, built on first request. Thread-safe:
  /// the first access at each level builds under an exception-safe once-guard,
  /// every later access reads the immutable cached image without locking —
  /// one repository safely serves N analysis workers. With a model cache
  /// attached, the first access parses the image serialized in the level's
  /// substrate entry instead of emitting it from the spec (a missing,
  /// stale or corrupt entry falls back to emission); the bytes are equal
  /// either way.
  const DexFile& image(int level) const;

  /// Class-name index over image(level); built once and cached alongside
  /// the image, so per-app loaders need not rescan the framework's class
  /// table. Same concurrency contract as image().
  const FrameworkClassIndex& class_index(int level) const;

  /// The shared framework substrate for `level`, built on first request
  /// under a per-level once-guard and immutable afterwards. The
  /// returned handle stays valid past the call (workers hold it across an
  /// analysis), but the repository must outlive every handle — substrate
  /// classes point into the repository's image. A build failure (e.g. an
  /// injected "adf.substrate" fault, fired under the level-scoped context
  /// "substrate:level<L>") propagates without satisfying the guard, so
  /// the next caller retries — one poisoned level never sinks the others.
  std::shared_ptr<const FrameworkSubstrate> substrate(int level) const;

  /// Completed substrate builds over this repository's lifetime — lets the
  /// stampede test assert that N concurrent first requests build once.
  std::uint64_t substrate_build_count() const {
    return substrate_builds_.load(std::memory_order_relaxed);
  }

  /// Stable 16-hex-digit fingerprint of this repository's framework spec
  /// (framework_fingerprint), computed once at construction. The key
  /// component that binds on-disk model-cache entries to this framework.
  const std::string& fingerprint() const { return fingerprint_; }

  /// Points image and substrate materialization at an on-disk model
  /// cache: every image or substrate slot built after this call first
  /// tries the level's entry in `dir` (`substrate-<fingerprint>-L<level>
  /// -m1.sdmc`, which holds the serialized image and the substrate's
  /// structural tables) — parsing the image instead of emitting it, and
  /// rebinding the tables instead of re-deriving them from instruction
  /// streams; a miss builds normally and publishes the entry
  /// rename-atomically, so concurrent shard processes can share one
  /// directory. A stale or corrupt entry falls back to a full build (and
  /// is overwritten); cache I/O failures never fail an analysis. Empty
  /// disables caching. Thread-safe; already-built slots are unaffected.
  void set_model_cache_dir(std::string dir) const;
  std::string model_cache_dir() const;

  /// Substrate slots served by rebinding cached tables / table files
  /// written, over this repository's lifetime. Operational telemetry for
  /// tests and the cold-start bench.
  std::uint64_t substrate_cache_hits() const {
    return substrate_cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t substrate_cache_stores() const {
    return substrate_cache_stores_.load(std::memory_order_relaxed);
  }
  /// Images parsed from a cached substrate entry instead of emitted.
  std::uint64_t image_cache_hits() const {
    return image_cache_hits_.load(std::memory_order_relaxed);
  }

  /// Clamps an arbitrary requested level into the modelled range — apps may
  /// declare targets outside it.
  static int clamp_level(int level);

  /// Process-wide repository with the default configuration; built on first
  /// use, immutable afterwards, and never destroyed.
  static const FrameworkRepository& standard();

 private:
  /// image(lvl) from the cached substrate entry, or nullopt on a miss; an
  /// unusable entry also marks the level stale.
  std::optional<DexFile> load_cached_image(int lvl) const;
  std::string substrate_entry_path(const std::string& cache_dir,
                                   int lvl) const;
  SdmcKey substrate_entry_key(int lvl) const;

  FrameworkConfig cfg_;
  FrameworkSpec spec_;
  std::string fingerprint_;
  // Model-cache wiring: the directory is snapshotted under its own mutex
  // at each substrate build; counters are telemetry only.
  mutable std::mutex cache_dir_mutex_;
  mutable std::string model_cache_dir_;
  mutable std::atomic<std::uint64_t> substrate_cache_hits_{0};
  mutable std::atomic<std::uint64_t> substrate_cache_stores_{0};
  mutable std::atomic<std::uint64_t> image_cache_hits_{0};
  // Levels whose entry image() could not use: their substrate build
  // ignores the entry and overwrites it.
  mutable std::array<std::atomic<bool>, kMaxApiLevel + 1> stale_entries_{};
  // Lazily built per level. The RetryOnce arrays serialize only the first
  // build of each slot (and, unlike std::call_once, stay retryable under
  // sanitizers when a build throws — see support/once.hpp); after the
  // guarded build returns, the slot is immutable and read lock-free on
  // the analysis hot path.
  mutable std::array<std::optional<DexFile>, kMaxApiLevel + 1> images_;
  mutable std::array<RetryOnce, kMaxApiLevel + 1> image_once_;
  mutable std::array<std::atomic<std::uint32_t>, kMaxApiLevel + 1>
      image_attempts_{};
  mutable std::array<std::optional<FrameworkClassIndex>, kMaxApiLevel + 1>
      indexes_;
  mutable std::array<RetryOnce, kMaxApiLevel + 1> index_once_;
  mutable std::array<std::shared_ptr<const FrameworkSubstrate>,
                     kMaxApiLevel + 1>
      substrates_;
  mutable std::array<RetryOnce, kMaxApiLevel + 1> substrate_once_;
  mutable std::array<std::atomic<std::uint32_t>, kMaxApiLevel + 1>
      substrate_attempts_{};
  mutable std::atomic<std::uint64_t> substrate_builds_{0};
};

/// Process-wide count of framework build *retries*: re-entries of a
/// per-level image or substrate once-guard after an earlier attempt threw
/// (transient-by-design failures; the build is simply re-run by the next
/// analysis that needs it). The suite harness snapshots this around a run
/// and surfaces the delta in SuiteResult::framework_retries so
/// flaky-framework hosts are visible in batch summaries.
std::uint64_t framework_build_retries();

}  // namespace saintdroid
