#include "dex/builder.hpp"

#include <unordered_map>

#include "support/errors.hpp"

namespace saintdroid {

// ---------------------------------------------------------------------------
// MethodBuilder

Label MethodBuilder::new_label() {
  const Label label{static_cast<std::uint32_t>(label_targets_.size())};
  label_targets_.push_back(kNoIndex);
  return label;
}

MethodBuilder& MethodBuilder::bind(Label label) {
  SD_EXPECTS(label.id < label_targets_.size());
  SD_EXPECTS(label_targets_[label.id] == kNoIndex);  // bind once
  label_targets_[label.id] = next_index();
  return *this;
}

MethodBuilder& MethodBuilder::registers(std::uint16_t count) {
  register_count_ = count;
  return *this;
}

MethodBuilder& MethodBuilder::emit(Instruction insn) {
  insns_.push_back(std::move(insn));
  return *this;
}

MethodBuilder& MethodBuilder::const_int(std::uint16_t reg,
                                        std::int32_t value) {
  return emit(Instruction::const_int(reg, value));
}

MethodBuilder& MethodBuilder::const_string(std::uint16_t reg,
                                           std::string_view value) {
  return emit(Instruction::const_string(reg, dex_->intern_string(value)));
}

MethodBuilder& MethodBuilder::move(std::uint16_t dst, std::uint16_t src) {
  return emit(Instruction::move(dst, src));
}

MethodBuilder& MethodBuilder::sget(std::uint16_t reg, std::string_view cls,
                                   std::string_view field,
                                   std::string_view type) {
  return emit(Instruction::sget(reg, dex_->intern_field(cls, field, type)));
}

MethodBuilder& MethodBuilder::sget_sdk_int(std::uint16_t reg) {
  return emit(Instruction::sget(reg, dex_->sdk_int_field()));
}

MethodBuilder& MethodBuilder::iget(std::uint16_t reg,
                                   std::uint16_t object_reg,
                                   std::string_view cls,
                                   std::string_view field,
                                   std::string_view type) {
  return emit(Instruction::iget(reg, object_reg,
                                dex_->intern_field(cls, field, type)));
}

MethodBuilder& MethodBuilder::iput(std::uint16_t reg,
                                   std::uint16_t object_reg,
                                   std::string_view cls,
                                   std::string_view field,
                                   std::string_view type) {
  return emit(Instruction::iput(reg, object_reg,
                                dex_->intern_field(cls, field, type)));
}

MethodBuilder& MethodBuilder::if_lit(CmpOp cmp, std::uint16_t reg,
                                     std::int32_t literal, Label target) {
  fixups_.emplace_back(next_index(), target.id);
  return emit(Instruction::if_cmp_lit(cmp, reg, literal, 0));
}

MethodBuilder& MethodBuilder::if_reg(CmpOp cmp, std::uint16_t reg_a,
                                     std::uint16_t reg_b, Label target) {
  fixups_.emplace_back(next_index(), target.id);
  return emit(Instruction::if_cmp_reg(cmp, reg_a, reg_b, 0));
}

MethodBuilder& MethodBuilder::goto_(Label target) {
  fixups_.emplace_back(next_index(), target.id);
  return emit(Instruction::goto_(0));
}

MethodBuilder& MethodBuilder::invoke(
    InvokeKind kind, std::string_view cls, std::string_view name,
    std::string_view return_type, const std::vector<std::string>& param_types,
    std::vector<std::uint16_t> arg_regs) {
  const auto idx = dex_->intern_method(cls, name, return_type, param_types);
  return emit(Instruction::invoke(kind, idx, std::move(arg_regs)));
}

MethodBuilder& MethodBuilder::invoke_virtual(
    std::string_view cls, std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types,
    std::vector<std::uint16_t> arg_regs) {
  return invoke(InvokeKind::kVirtual, cls, name, return_type,
                param_types, std::move(arg_regs));
}

MethodBuilder& MethodBuilder::invoke_static(
    std::string_view cls, std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types,
    std::vector<std::uint16_t> arg_regs) {
  return invoke(InvokeKind::kStatic, cls, name, return_type,
                param_types, std::move(arg_regs));
}

MethodBuilder& MethodBuilder::invoke_super(
    std::string_view cls, std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types) {
  return invoke(InvokeKind::kSuper, cls, name, return_type,
                param_types, {});
}

MethodBuilder& MethodBuilder::move_result(std::uint16_t reg) {
  return emit(Instruction::move_result(reg));
}

MethodBuilder& MethodBuilder::new_instance(std::uint16_t reg,
                                           std::string_view type) {
  return emit(Instruction::new_instance(reg, dex_->intern_type(type)));
}

MethodBuilder& MethodBuilder::load_class(std::uint16_t reg,
                                         std::string_view type) {
  return emit(Instruction::load_class(reg, dex_->intern_type(type)));
}

MethodBuilder& MethodBuilder::throw_(std::uint16_t reg) {
  return emit(Instruction::throw_(reg));
}

MethodBuilder& MethodBuilder::return_void() {
  return emit(Instruction::return_void());
}

MethodBuilder& MethodBuilder::return_reg(std::uint16_t reg) {
  return emit(Instruction::return_reg(reg));
}

// ---------------------------------------------------------------------------
// ClassBuilder

MethodBuilder& ClassBuilder::add_method(
    std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types, std::uint32_t access_flags) {
  const auto name_idx = dex_->intern_string(name);
  const auto proto_idx = dex_->intern_proto(return_type, param_types);
  methods_.push_back(MethodBuilder{*dex_, name_idx, proto_idx, access_flags});
  return methods_.back();
}

ClassBuilder& ClassBuilder::add_abstract_method(
    std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types, std::uint32_t access_flags) {
  MethodDef def;
  def.name = dex_->intern_string(name);
  def.proto = dex_->intern_proto(return_type, param_types);
  def.access_flags = access_flags;
  abstract_methods_.push_back(def);
  return *this;
}

// ---------------------------------------------------------------------------
// DexBuilder

void DexBuilder::reserve_pools(std::size_t expected_strings,
                               std::size_t expected_types) {
  string_ids_.reserve(expected_strings);
  dex_.strings_.reserve(expected_strings);
  type_ids_.reserve(expected_types);
  dex_.types_.reserve(expected_types);
}

std::uint32_t DexBuilder::intern_string(std::string_view s) {
  // The interner assigns dense insertion-order ids, so its id *is* the
  // string-pool index; probing never allocates.
  const Symbol id = string_ids_.intern(s);
  if (id == dex_.strings_.size()) dex_.strings_.emplace_back(s);
  return id;
}

std::uint32_t DexBuilder::intern_type(std::string_view internal_name) {
  const Symbol id = type_ids_.intern(internal_name);
  if (id == dex_.types_.size()) dex_.types_.push_back(intern_string(internal_name));
  return id;
}

std::uint32_t DexBuilder::intern_proto(
    std::string_view return_type, const std::vector<std::string>& param_types) {
  // Probe with the reused key buffer; only a genuine first sight copies
  // it into the map.
  std::string& key = proto_key_;
  key.assign(return_type);
  for (const auto& p : param_types) key.append("|").append(p);
  if (const auto it = proto_ids_.find(key); it != proto_ids_.end())
    return it->second;
  Proto proto;
  proto.return_type = intern_type(return_type);
  proto.param_types.reserve(param_types.size());
  for (const auto& p : param_types)
    proto.param_types.push_back(intern_type(p));
  const auto idx = static_cast<std::uint32_t>(dex_.protos_.size());
  dex_.protos_.push_back(std::move(proto));
  proto_ids_.emplace(key, idx);
  return idx;
}

std::uint32_t DexBuilder::intern_method(
    std::string_view cls, std::string_view name, std::string_view return_type,
    const std::vector<std::string>& param_types) {
  std::string& key = ref_key_;
  key.assign(cls).append(".").append(name).append(":").append(return_type);
  for (const auto& p : param_types) key.append("|").append(p);
  if (const auto it = method_ids_.find(key); it != method_ids_.end())
    return it->second;
  MethodRef ref;
  ref.class_type = intern_type(cls);
  ref.name = intern_string(name);
  ref.proto = intern_proto(return_type, param_types);
  const auto idx = static_cast<std::uint32_t>(dex_.method_refs_.size());
  dex_.method_refs_.push_back(ref);
  method_ids_.emplace(key, idx);
  return idx;
}

std::uint32_t DexBuilder::intern_field(std::string_view cls,
                                       std::string_view name,
                                       std::string_view type) {
  std::string& key = ref_key_;
  key.assign(cls).append(".").append(name).append(":").append(type);
  if (const auto it = field_ids_.find(key); it != field_ids_.end())
    return it->second;
  FieldRef ref;
  ref.class_type = intern_type(cls);
  ref.name = intern_string(name);
  ref.type = intern_type(type);
  const auto idx = static_cast<std::uint32_t>(dex_.field_refs_.size());
  dex_.field_refs_.push_back(ref);
  field_ids_.emplace(key, idx);
  return idx;
}

std::uint32_t DexBuilder::sdk_int_field() {
  return intern_field(kSdkIntField.class_name, kSdkIntField.name,
                      kSdkIntField.type);
}

ClassBuilder& DexBuilder::add_class(std::string_view name,
                                    std::string_view super,
                                    std::vector<std::string> interfaces,
                                    std::uint32_t access_flags) {
  SD_EXPECTS(!built_);
  const auto type_idx = intern_type(name);
  const auto super_idx = super.empty() ? kNoIndex : intern_type(super);
  std::vector<std::uint32_t> iface_idxs;
  iface_idxs.reserve(interfaces.size());
  for (const auto& iface : interfaces)
    iface_idxs.push_back(intern_type(iface));
  classes_.push_back(ClassBuilder{*this, std::string{name}, type_idx,
                                  super_idx, std::move(iface_idxs),
                                  access_flags});
  return classes_.back();
}

DexFile DexBuilder::build() {
  SD_EXPECTS(!built_);
  built_ = true;

  for (auto& cls : classes_) {
    ClassDef def;
    def.type = cls.type_;
    def.super_type = cls.super_type_;
    def.interfaces = std::move(cls.interfaces_);
    def.access_flags = cls.access_flags_;

    for (auto& mb : cls.methods_) {
      // Resolve label fixups into concrete instruction indices.
      for (const auto& [insn_idx, label_id] : mb.fixups_) {
        SD_EXPECTS(label_id < mb.label_targets_.size());
        const auto bound = mb.label_targets_[label_id];
        SD_EXPECTS(bound != kNoIndex);  // every used label must be bound
        mb.insns_[insn_idx].target = bound;
      }
      MethodDef def_m;
      def_m.name = mb.name_;
      def_m.proto = mb.proto_;
      def_m.access_flags = mb.access_flags_;
      MethodCode code;
      code.register_count = mb.register_count_;
      code.insns = std::move(mb.insns_);
      def_m.code = std::move(code);
      def.methods.push_back(std::move(def_m));
    }
    for (auto& abs : cls.abstract_methods_)
      def.methods.push_back(std::move(abs));

    dex_.class_defs_.push_back(std::move(def));
  }

  dex_.validate();
  return std::move(dex_);
}

}  // namespace saintdroid
