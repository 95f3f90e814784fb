// FrameworkSubstrate: the shared, immutable framework layer of the class
// hierarchy.
//
// Every analysis at level L sees the same framework classes — the same
// names, the same superclass edges, the same method tables — yet the
// per-analysis ClassLoaderVm used to re-materialize each framework class it
// touched (string building plus a full instruction walk for the footprint)
// for every app in a batch. The substrate hoists that work out of the
// per-app loop: it eagerly materializes every framework class of one
// level's image into stable LoadedClass objects exactly once, and
// per-app loaders hand out pointers into it, charging the precomputed
// footprint so memory accounting stays byte-identical to private
// materialization. FrameworkRepository caches one substrate per level
// under an exception-safe once-guard and shares it as shared_ptr<const>
// across workers.
//
// Beyond the classes themselves, the substrate precomputes everything the
// hot hierarchy queries would otherwise redo per app:
//   - per-class method tables in declaration order, with the method name
//     (a view into the image string pool) and the descriptor already built,
//     so find_method_in degrades to a short scan with no string building;
//   - the superclass edge as a direct pointer (plus slot index), so chain
//     walks over framework ancestors skip the name lookup;
//   - per-method invoke edges: the callee MethodId (built once) and, when
//     the callee class lives in the substrate, a direct pointer to it —
//     the framework walk replays these instead of re-decoding instructions
//     and rebuilding MethodId strings for every app.
// Lookups key on the LoadedClass address (pointer hash), which is exact:
// a privately materialized copy of the same framework class never matches.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "clvm/class_provider.hpp"

namespace saintdroid {

class FrameworkSubstrate {
 public:
  struct MethodEntry;

  /// One precomputed invoke edge of a framework method body.
  struct CalleeEdge {
    /// The callee identity the instruction resolves to; stable for the
    /// substrate's lifetime (equal in value to dex.method_id_at on the
    /// same instruction).
    const MethodId* id = nullptr;
    /// The substrate class named id->class_name, when it exists — lets a
    /// loader take the pointer fast path instead of a name lookup. The
    /// slot is the target's index (see ClassEntry::slot).
    const LoadedClass* target = nullptr;
    std::uint32_t target_slot = 0;
    /// The entry of `target`'s own method table matching id->name plus
    /// id->descriptor (what find_method_in would return for the callee),
    /// or nullptr — absent target, or the named class does not declare
    /// the method. Lets the framework walk recurse by pointer.
    const MethodEntry* resolved = nullptr;
  };

  /// One method of a framework class, in declaration order.
  struct MethodEntry {
    const MethodDef* def = nullptr;
    std::string_view name;   ///< view into the image string pool
    std::string descriptor;  ///< prebuilt, so lookups never call descriptor_of
    /// Dense index in [0, method_count()), unique across the whole
    /// substrate — a per-analysis walk can memoize visited methods in a
    /// flat bitmap instead of a hash map keyed by MethodId strings.
    std::uint32_t slot = 0;
    std::vector<CalleeEdge> callees;  ///< kInvoke edges in instruction order
  };

  /// One framework class plus its precomputed lookup structure.
  struct ClassEntry {
    LoadedClass cls;
    /// Dense index in [0, class_count()): per-analysis loaders use it to
    /// flag "already loaded" without hashing the class name again.
    std::uint32_t slot = 0;
    /// The substrate class cls.super_name resolves to, or nullptr (root
    /// class, or super not in the image).
    const ClassEntry* super = nullptr;
    /// Declaration-order method table.
    std::vector<MethodEntry> methods;
  };

  /// Selects the rebinding constructor below. Its default constructor is
  /// explicit (like std::in_place_t), so a braced `{}` cannot stand in for
  /// it and `FrameworkSubstrate{image, level, {}}` does not compile: the
  /// rebind path is always asked for by name, as
  /// `FrameworkSubstrate{FrameworkSubstrate::kRebind, image, level, tables}`.
  struct Rebind {
    explicit Rebind() = default;
  };
  static constexpr Rebind kRebind{};

  /// Materializes every class of `image`. `image` must outlive the
  /// substrate (the repository owns both and keeps them together).
  FrameworkSubstrate(const DexFile& image, int level);

  /// Rebinds a substrate from previously serialized structural tables
  /// instead of re-deriving them from the image's instruction streams: the
  /// class pass still materializes LoadedClass objects (they carry strings
  /// and footprints the tables do not duplicate), but the expensive second
  /// and third passes — per-method instruction decoding, callee MethodId
  /// string building, descriptor construction and declaration-order
  /// resolution scans — become a bounds-checked bulk read of `tables`,
  /// with every stored slot and index rebound to a pointer into this
  /// substrate. `tables` must be the serialize_tables() output of a
  /// substrate built from an identical image — the model cache
  /// guarantees this via its (fingerprint, level) key —
  /// and the resulting substrate is structurally identical to a full
  /// build (serialize_tables round-trips byte-for-byte). Throws ParseError
  /// on any truncation, count mismatch against the image, or out-of-range
  /// slot.
  FrameworkSubstrate(Rebind, const DexFile& image, int level,
                     std::span<const std::uint8_t> tables);

  /// Serializes the structural tables — per-entry method-table layouts
  /// (prebuilt descriptors), the deduplicated callee-edge pool with dense
  /// target slots and resolved method indices, and per-method edge lists —
  /// as the payload the rebinding constructor consumes. Pointer-free:
  /// every cross-reference is a dense slot or pool index, so the payload
  /// is position-independent and two substrates with equal structure
  /// serialize byte-identically.
  std::vector<std::uint8_t> serialize_tables() const;

  FrameworkSubstrate(const FrameworkSubstrate&) = delete;
  FrameworkSubstrate& operator=(const FrameworkSubstrate&) = delete;

  int level() const { return level_; }
  std::size_t class_count() const { return entries_.size(); }
  /// Methods indexed across all classes.
  std::size_t method_count() const { return method_count_; }
  std::uint64_t total_footprint() const { return total_footprint_; }

  /// The framework class named `name`, or nullptr. The pointer is stable
  /// for the substrate's lifetime and shared by every analysis.
  const LoadedClass* find_class(const std::string& name) const;

  /// The entry `cls` is embedded in when `cls` is a substrate-owned
  /// LoadedClass (pointer identity — a privately materialized copy of the
  /// same framework class does not match), else nullptr. Constant time:
  /// the class carries its entry back-pointer, verified by address.
  static const ClassEntry* entry_of(const LoadedClass& cls) {
    const auto* entry =
        static_cast<const ClassEntry*>(cls.substrate_entry);
    return (entry != nullptr && &entry->cls == &cls) ? entry : nullptr;
  }

  /// True when `cls` is a substrate-owned LoadedClass object.
  static bool owns(const LoadedClass& cls) { return entry_of(cls) != nullptr; }

 private:
  /// Pass 1 shared by both constructors: materialize every image class
  /// (first definition of a name wins), assign dense slots, and bind the
  /// superclass edges. No instruction stream is touched.
  void materialize_classes(const DexFile& image);

  int level_;
  std::uint64_t total_footprint_ = 0;
  std::size_t method_count_ = 0;
  std::deque<ClassEntry> entries_;  // deque: stable addresses, no realloc
  // Keys view into each entry's cls.name (stable once inserted).
  std::unordered_map<std::string_view, const ClassEntry*> by_name_;
  // Deduplicated callee identities referenced by CalleeEdge::id.
  std::deque<MethodId> callee_pool_;
};

}  // namespace saintdroid
