#include "adf/repository.hpp"

#include <algorithm>

#include "support/bytes.hpp"
#include "support/errors.hpp"
#include "support/faults.hpp"
#include "support/sdmc.hpp"

namespace saintdroid {

namespace {

std::atomic<std::uint64_t> g_framework_retries{0};

/// First attempt is not a retry; every re-entry after a failed build is.
void count_attempt(std::atomic<std::uint32_t>& attempts) {
  if (attempts.fetch_add(1, std::memory_order_relaxed) > 0)
    g_framework_retries.fetch_add(1, std::memory_order_relaxed);
}

/// Kind-2 entry payload (container version 3): ULEB image length, the
/// level's serialized framework image, then the substrate's structural
/// tables. The image rides along so a warm process parses it instead of
/// re-emitting it from the spec.
std::vector<std::uint8_t> substrate_entry_payload(
    const DexFile& image, std::span<const std::uint8_t> tables) {
  const std::vector<std::uint8_t> image_bytes = image.serialize();
  ByteWriter w;
  w.uleb(image_bytes.size());
  w.bytes(image_bytes);
  w.bytes(tables);
  return w.take();
}

/// Option bits of every kind-2 key, and the `-m1` file-name suffix: the
/// format's record that substrates index their methods (docs/FORMAT.md).
constexpr std::uint32_t kSubstrateEntryOptions = 1;

struct SubstrateEntry {
  std::span<const std::uint8_t> image;
  std::span<const std::uint8_t> tables;
};

/// Splits a kind-2 payload; throws ParseError when the image section
/// overruns it.
SubstrateEntry split_substrate_entry(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  SubstrateEntry entry;
  entry.image = r.bytes(r.uleb());
  entry.tables = payload.subspan(r.offset());
  return entry;
}

}  // namespace

std::uint64_t framework_build_retries() {
  return g_framework_retries.load(std::memory_order_relaxed);
}

FrameworkRepository::FrameworkRepository(FrameworkConfig cfg)
    : cfg_(cfg),
      spec_(build_framework_spec(cfg_)),
      fingerprint_(framework_fingerprint(spec_)) {}

void FrameworkRepository::set_model_cache_dir(std::string dir) const {
  if (!dir.empty()) ensure_directory(dir);
  const std::lock_guard<std::mutex> lock{cache_dir_mutex_};
  model_cache_dir_ = std::move(dir);
}

std::string FrameworkRepository::model_cache_dir() const {
  const std::lock_guard<std::mutex> lock{cache_dir_mutex_};
  return model_cache_dir_;
}

const DexFile& FrameworkRepository::image(int level) const {
  const std::size_t slot_idx =
      static_cast<std::size_t>(clamp_level(level));
  auto& slot = images_[slot_idx];
  image_once_[slot_idx].call([&] {
    count_attempt(image_attempts_[slot_idx]);
    // A fault here propagates without satisfying the once-guard, so the
    // next caller retries the build — an injected repository failure
    // poisons one analysis, not the level, matching real transient I/O.
    SD_FAULT_POINT("adf.image");
    const int lvl = static_cast<int>(slot_idx);
    slot = load_cached_image(lvl);
    if (!slot) slot = emit_framework_image(spec_, lvl);
  });
  return *slot;
}

std::optional<DexFile> FrameworkRepository::load_cached_image(int lvl) const {
  const std::string cache_dir = model_cache_dir();
  if (cache_dir.empty()) return std::nullopt;
  try {
    const auto blob = read_file_bytes(substrate_entry_path(cache_dir, lvl));
    if (!blob) return std::nullopt;
    const std::vector<std::uint8_t> payload =
        sdmc_open(*blob, substrate_entry_key(lvl));
    DexFile img = DexFile::parse(split_substrate_entry(payload).image);
    image_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return img;
  } catch (const Error&) {
    // A stale or corrupt entry: emit instead, and have the substrate
    // build overwrite the entry rather than rebind from it.
    stale_entries_[static_cast<std::size_t>(lvl)].store(
        true, std::memory_order_relaxed);
    return std::nullopt;
  }
}

std::string FrameworkRepository::substrate_entry_path(
    const std::string& cache_dir, int lvl) const {
  return cache_dir + "/substrate-" + fingerprint_ + "-L" +
         std::to_string(lvl) + "-m1.sdmc";
}

SdmcKey FrameworkRepository::substrate_entry_key(int lvl) const {
  SdmcKey key;
  key.kind = SdmcKind::kSubstrateTables;
  key.fingerprint = fingerprint_;
  key.level = lvl;
  key.options = kSubstrateEntryOptions;
  return key;
}

const FrameworkClassIndex& FrameworkRepository::class_index(int level) const {
  const std::size_t slot_idx =
      static_cast<std::size_t>(clamp_level(level));
  auto& slot = indexes_[slot_idx];
  index_once_[slot_idx].call([&] {
    const DexFile& dex = image(static_cast<int>(slot_idx));
    FrameworkClassIndex index;
    index.reserve(dex.classes().size());
    for (const auto& cls : dex.classes())
      index.emplace(dex.type_name(cls.type), &cls);
    slot = std::move(index);
  });
  return *slot;
}

std::shared_ptr<const FrameworkSubstrate> FrameworkRepository::substrate(
    int level) const {
  const int lvl = clamp_level(level);
  const auto slot_idx = static_cast<std::size_t>(lvl);
  auto& slot = substrates_[slot_idx];
  // Build the image before entering the substrate's fault context so an
  // "adf.image" fault keeps its own (app-scoped) attribution.
  const DexFile& img = image(lvl);
  substrate_once_[slot_idx].call([&] {
    count_attempt(substrate_attempts_[slot_idx]);
    // The substrate is a shared artifact with no single app owner, so its
    // fault point fires under a level-scoped context: a plan can poison
    // exactly one level's substrate and every analysis against that level
    // (and only that level) fails until the plan is disarmed — then the
    // unsatisfied once-guard simply rebuilds.
    const FaultContextScope scope{"substrate:level" + std::to_string(lvl)};
    SD_FAULT_POINT("adf.substrate");

    // Model cache: try rebinding persisted structural tables before paying
    // the full per-method instruction re-decode. A stale, foreign or
    // corrupt entry throws ParseError inside sdmc_open / the rebind
    // constructor (or image() already found it unusable) and falls through
    // to a full build, whose entry — image and tables — is then published
    // rename-atomically, overwriting the bad one. Cache I/O never fails
    // the build itself.
    const std::string cache_dir = model_cache_dir();
    std::string cache_path;
    const SdmcKey key = substrate_entry_key(lvl);
    if (!cache_dir.empty()) {
      cache_path = substrate_entry_path(cache_dir, lvl);
      const bool stale =
          stale_entries_[slot_idx].load(std::memory_order_relaxed);
      try {
        const auto blob = stale ? std::nullopt : read_file_bytes(cache_path);
        if (blob) {
          const std::vector<std::uint8_t> payload = sdmc_open(*blob, key);
          slot = std::make_shared<const FrameworkSubstrate>(
              FrameworkSubstrate::kRebind, img, lvl,
              split_substrate_entry(payload).tables);
          substrate_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const Error&) {
        slot = nullptr;  // stale/corrupt entry: fall back to mining
      }
    }
    if (!slot) {
      slot = std::make_shared<const FrameworkSubstrate>(img, lvl);
      if (!cache_path.empty()) {
        try {
          write_file_atomic(
              cache_path,
              sdmc_seal(key, substrate_entry_payload(
                                 img, slot->serialize_tables())));
          substrate_cache_stores_.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
          // A read-only or full cache directory costs only the warm start.
        }
      }
    }
    substrate_builds_.fetch_add(1, std::memory_order_relaxed);
  });
  return slot;
}

int FrameworkRepository::clamp_level(int level) {
  return std::clamp(level, kMinApiLevel, kMaxApiLevel);
}

const FrameworkRepository& FrameworkRepository::standard() {
  static const FrameworkRepository repo{FrameworkConfig{}};
  return repo;
}

}  // namespace saintdroid
