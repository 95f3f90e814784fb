// SDMC — the on-disk model-cache container.
//
// A `.sdmc` file wraps one serialized model artifact (a mined ApiDatabase,
// a level's framework image with its substrate's structural tables) behind
// a versioned, keyed, checksummed header so a persistent cache directory
// can be shared by many processes:
//
//   * the key (kind, framework fingerprint, level, option bits) binds the
//     payload to exactly the (framework, level, options) it was computed
//     from — a stale or foreign entry is refused at open time and the
//     caller falls back to mining;
//   * the FNV-1a payload checksum turns any accidental corruption — a
//     torn write, a flipped bit — into a loud ParseError instead of a
//     silently wrong model (the inner payload decoders bound-check their
//     own indices, but some mutations parse cleanly; the checksum closes
//     that hole);
//   * writes are rename-atomic (temp file + std::rename), so concurrent
//     shard processes racing on one cache directory either see a complete
//     entry or none — never a half-written one.
//
// sdmc_open throws ParseError on *every* defect — wrong magic, wrong
// container version, mismatched key, bad checksum, truncation, trailing
// bytes. Cache layers catch ParseError and re-mine; fuzzers call it
// directly and assert the throw.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace saintdroid {

inline constexpr std::uint32_t kSdmcMagic = 0x434D4453;  // "SDMC"

/// Container format version. Bumped on any incompatible change to the
/// header or to a payload encoding; an old entry then fails to open and is
/// simply re-mined and overwritten (stale-version eviction). Version 2
/// added the semantic-table kind; version 3 put the level's serialized
/// framework image in front of the substrate tables (docs/FORMAT.md).
inline constexpr std::uint32_t kSdmcFormatVersion = 3;

/// What a cache entry holds.
enum class SdmcKind : std::uint8_t {
  kApiDatabase = 1,       ///< ApiDatabase::serialize payload
  kSubstrateTables = 2,   ///< level image + FrameworkSubstrate tables
                          ///< (docs/FORMAT.md)
  kSemanticTable = 3,     ///< SemanticTable::serialize payload
  kIncrementalFacts = 4,  ///< per-app incremental analysis facts
                          ///< (core/incr_cache.hpp)
};

/// Full cache key of one entry. Payloads are pure functions of their key:
/// two processes agreeing on a key may share the entry byte-for-byte.
struct SdmcKey {
  SdmcKind kind = SdmcKind::kApiDatabase;
  /// framework_fingerprint() of the spec the model was computed from.
  std::string fingerprint;
  /// API level for level-keyed artifacts (substrate tables); 0 otherwise.
  int level = 0;
  /// Option bits (substrate tables: always 1, method-indexed); 0 otherwise.
  std::uint32_t options = 0;
};

/// FNV-1a 64 over `bytes` — the container's corruption detector (also
/// reusable as a generic content hash).
std::uint64_t sdmc_checksum(std::span<const std::uint8_t> bytes);

/// Wraps `payload` in a container carrying `key` and the payload checksum.
std::vector<std::uint8_t> sdmc_seal(const SdmcKey& key,
                                    std::span<const std::uint8_t> payload);

/// Unwraps a container and returns the payload. Throws ParseError when the
/// blob is not a current-version SDMC container, its key differs from
/// `expected` in any field, the checksum does not match, or any byte is
/// missing or left over. Never loads silently: every defect is a throw.
std::vector<std::uint8_t> sdmc_open(std::span<const std::uint8_t> blob,
                                    const SdmcKey& expected);

/// Creates `dir` (and parents) if missing. Throws ConfigError on failure.
void ensure_directory(const std::string& dir);

/// Writes `bytes` to `path` rename-atomically: the data lands in a
/// process-unique temp file in the same directory, then one std::rename
/// publishes it. Concurrent writers race benignly (last rename wins; with
/// identical content the race is invisible). Throws ConfigError on I/O
/// failure.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Reads a whole file with one sized read; nullopt when it does not
/// exist. Throws ConfigError on a file that exists but cannot be read.
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path);

}  // namespace saintdroid
