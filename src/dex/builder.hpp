// Fluent authoring API for SDEX containers.
//
// The framework generator (src/adf) and the app synthesizer (src/workload)
// construct bytecode through this builder: pool entries are interned on
// demand, forward branches use Label handles that are resolved when the
// container is finalized, and build() returns a fully validated DexFile.
//
//   DexBuilder b;
//   auto& cls = b.add_class("com/example/Main", "android/app/Activity");
//   auto& m = cls.add_method("onCreate", "V", {"android/os/Bundle"});
//   m.sget_sdk_int(0);
//   Label skip = m.new_label();
//   m.if_lit(CmpOp::kLt, 0, 23, skip);              // if (SDK_INT < 23) skip
//   m.invoke_virtual("android/content/Context", "getColorStateList", "...");
//   m.bind(skip);
//   m.return_void();
//   DexFile dex = b.build();
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "dex/dexfile.hpp"
#include "support/interner.hpp"

namespace saintdroid {

class DexBuilder;
class ClassBuilder;

/// Handle for a not-yet-bound branch target inside one method body.
struct Label {
  std::uint32_t id = 0;
};

/// Emits the body of one method. Obtained from ClassBuilder::add_method.
class MethodBuilder {
 public:
  /// Number of instructions emitted so far (== index of the next one).
  std::uint32_t next_index() const {
    return static_cast<std::uint32_t>(insns_.size());
  }

  /// Creates a fresh unbound label.
  Label new_label();

  /// Binds `label` to the next emitted instruction.
  MethodBuilder& bind(Label label);

  MethodBuilder& registers(std::uint16_t count);

  // -- raw emission ----------------------------------------------------------
  MethodBuilder& emit(Instruction insn);

  // -- conveniences ----------------------------------------------------------
  MethodBuilder& const_int(std::uint16_t reg, std::int32_t value);
  MethodBuilder& const_string(std::uint16_t reg, std::string_view value);
  MethodBuilder& move(std::uint16_t dst, std::uint16_t src);
  /// sget of an arbitrary static field.
  MethodBuilder& sget(std::uint16_t reg, std::string_view cls,
                      std::string_view field, std::string_view type);
  /// sget of android/os/Build$VERSION.SDK_INT — the guard source.
  MethodBuilder& sget_sdk_int(std::uint16_t reg);
  /// iget of an instance field of `cls`.
  MethodBuilder& iget(std::uint16_t reg, std::uint16_t object_reg,
                      std::string_view cls, std::string_view field,
                      std::string_view type);
  /// iput into an instance field of `cls`.
  MethodBuilder& iput(std::uint16_t reg, std::uint16_t object_reg,
                      std::string_view cls, std::string_view field,
                      std::string_view type);
  /// Conditional branch comparing a register against a literal.
  MethodBuilder& if_lit(CmpOp cmp, std::uint16_t reg, std::int32_t literal,
                        Label target);
  /// Conditional branch comparing two registers.
  MethodBuilder& if_reg(CmpOp cmp, std::uint16_t reg_a, std::uint16_t reg_b,
                        Label target);
  MethodBuilder& goto_(Label target);
  MethodBuilder& invoke(InvokeKind kind, std::string_view cls,
                        std::string_view name, std::string_view return_type,
                        const std::vector<std::string>& param_types = {},
                        std::vector<std::uint16_t> arg_regs = {});
  MethodBuilder& invoke_virtual(
      std::string_view cls, std::string_view name,
      std::string_view return_type = "V",
      const std::vector<std::string>& param_types = {},
      std::vector<std::uint16_t> arg_regs = {});
  MethodBuilder& invoke_static(std::string_view cls, std::string_view name,
                               std::string_view return_type = "V",
                               const std::vector<std::string>& param_types = {},
                               std::vector<std::uint16_t> arg_regs = {});
  MethodBuilder& invoke_super(std::string_view cls, std::string_view name,
                              std::string_view return_type = "V",
                              const std::vector<std::string>& param_types = {});
  MethodBuilder& move_result(std::uint16_t reg);
  MethodBuilder& new_instance(std::uint16_t reg, std::string_view type);
  /// Models dynamic loading of a statically-known class name (late binding).
  MethodBuilder& load_class(std::uint16_t reg, std::string_view type);
  MethodBuilder& throw_(std::uint16_t reg);
  MethodBuilder& return_void();
  MethodBuilder& return_reg(std::uint16_t reg);

 private:
  friend class ClassBuilder;
  friend class DexBuilder;

  MethodBuilder(DexBuilder& dex, std::uint32_t name, std::uint32_t proto,
                std::uint32_t access_flags)
      : dex_(&dex), name_(name), proto_(proto), access_flags_(access_flags) {}

  DexBuilder* dex_;
  std::uint32_t name_;
  std::uint32_t proto_;
  std::uint32_t access_flags_;
  std::uint16_t register_count_ = 8;
  std::vector<Instruction> insns_;
  // label id -> bound instruction index (kNoIndex while unbound)
  std::vector<std::uint32_t> label_targets_;
  // instruction index -> label id, for branches awaiting resolution
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fixups_;
};

/// Accumulates the methods of one class definition.
class ClassBuilder {
 public:
  /// Adds a concrete method and returns its body builder (stable reference).
  MethodBuilder& add_method(std::string_view name,
                            std::string_view return_type = "V",
                            const std::vector<std::string>& param_types = {},
                            std::uint32_t access_flags = kAccPublic);

  /// Adds a bodyless (abstract or native) method.
  ClassBuilder& add_abstract_method(
      std::string_view name, std::string_view return_type = "V",
      const std::vector<std::string>& param_types = {},
      std::uint32_t access_flags = kAccPublic | kAccAbstract);

  /// Internal slashed name of the class being built.
  const std::string& name() const { return name_; }

 private:
  friend class DexBuilder;

  ClassBuilder(DexBuilder& dex, std::string name, std::uint32_t type,
               std::uint32_t super_type, std::vector<std::uint32_t> interfaces,
               std::uint32_t access_flags)
      : dex_(&dex),
        name_(std::move(name)),
        type_(type),
        super_type_(super_type),
        interfaces_(std::move(interfaces)),
        access_flags_(access_flags) {}

  DexBuilder* dex_;
  std::string name_;
  std::uint32_t type_;
  std::uint32_t super_type_;
  std::vector<std::uint32_t> interfaces_;
  std::uint32_t access_flags_;
  std::deque<MethodBuilder> methods_;
  std::vector<MethodDef> abstract_methods_;
};

/// Authors one SDEX container.
class DexBuilder {
 public:
  /// Pre-sizes the string/type pools and their interning tables; emitters
  /// that know their class count up front (the ADF image loader) use this
  /// to avoid rehashing while authoring thousands of classes.
  void reserve_pools(std::size_t expected_strings, std::size_t expected_types);

  // -- pool interning --------------------------------------------------------
  std::uint32_t intern_string(std::string_view s);
  std::uint32_t intern_type(std::string_view internal_name);
  std::uint32_t intern_proto(std::string_view return_type,
                             const std::vector<std::string>& param_types);
  std::uint32_t intern_method(std::string_view cls, std::string_view name,
                              std::string_view return_type,
                              const std::vector<std::string>& param_types);
  std::uint32_t intern_field(std::string_view cls, std::string_view name,
                             std::string_view type);

  /// Pool index of android/os/Build$VERSION.SDK_INT.
  std::uint32_t sdk_int_field();

  /// Starts a class definition; the returned reference stays valid for the
  /// builder's lifetime. `super` of "" means a root class (no superclass).
  ClassBuilder& add_class(std::string_view name,
                          std::string_view super = "java/lang/Object",
                          std::vector<std::string> interfaces = {},
                          std::uint32_t access_flags = kAccPublic);

  /// Resolves labels, assembles all classes, validates and returns the
  /// immutable container. The builder may not be reused afterwards.
  DexFile build();

 private:
  friend class ClassBuilder;
  friend class MethodBuilder;

  DexFile dex_;
  std::deque<ClassBuilder> classes_;
  // Interning tables. Strings and types use StringInterner — its dense
  // insertion-order ids are exactly the pool indices, and lookup is
  // allocation-free — while the composite-key pools keep plain maps
  // probed through the reused key buffers below.
  StringInterner string_ids_;
  StringInterner type_ids_;
  std::unordered_map<std::string, std::uint32_t> proto_ids_;
  std::unordered_map<std::string, std::uint32_t> method_ids_;
  std::unordered_map<std::string, std::uint32_t> field_ids_;
  // Reused probe keys for the composite pools (protos get their own:
  // intern_method interns its proto while its own key is still live), so
  // a hit allocates nothing.
  std::string proto_key_;
  std::string ref_key_;
  bool built_ = false;
};

}  // namespace saintdroid
