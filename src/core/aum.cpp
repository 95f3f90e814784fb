#include "core/aum.hpp"

#include <algorithm>
#include <deque>

#include "adf/spec.hpp"
#include "support/errors.hpp"

namespace saintdroid {

namespace {

bool interval_covers(ApiInterval outer, ApiInterval inner) {
  if (inner.empty()) return true;
  if (outer.empty()) return false;
  return outer.lo() <= inner.lo() && inner.hi() <= outer.hi();
}

/// Numeric call-site identity: the defining MethodDef is unique per method
/// for the analysis' lifetime, so pointer + instruction index identify a
/// site without string building.
std::uint64_t site_key(const MethodDef* def, std::uint32_t insn_index) {
  return reinterpret_cast<std::uintptr_t>(def) * 1000003ULL + insn_index;
}

/// Concretely evaluates a candidate SDK-check helper body at one device
/// level; nullopt when the body is not a trivial straight-line/branching
/// computation over constants and SDK_INT (the only shape we summarize).
std::optional<bool> run_predicate_at(const DexFile& dex,
                                     const MethodCode& code, int level) {
  const auto& insns = code.insns;
  std::vector<std::optional<std::int32_t>> regs(code.register_count);
  std::uint32_t pc = 0;
  for (int steps = 0; steps < 64; ++steps) {
    if (pc >= insns.size()) return std::nullopt;
    const Instruction& insn = insns[pc];
    switch (insn.op) {
      case Opcode::kNop:
        ++pc;
        break;
      case Opcode::kConst:
        if (insn.reg_a >= regs.size()) return std::nullopt;
        regs[insn.reg_a] = insn.literal;
        ++pc;
        break;
      case Opcode::kMove:
        if (insn.reg_a >= regs.size() || insn.reg_b >= regs.size())
          return std::nullopt;
        regs[insn.reg_a] = regs[insn.reg_b];
        ++pc;
        break;
      case Opcode::kSget:
        if (insn.reg_a >= regs.size()) return std::nullopt;
        if (!(dex.field_id_at(insn.index) == kSdkIntField))
          return std::nullopt;
        regs[insn.reg_a] = level;
        ++pc;
        break;
      case Opcode::kIfCmp: {
        if (insn.reg_a >= regs.size() || !regs[insn.reg_a])
          return std::nullopt;
        std::int32_t rhs;
        if (insn.cmp_with_literal) {
          rhs = insn.literal;
        } else {
          if (insn.reg_b >= regs.size() || !regs[insn.reg_b])
            return std::nullopt;
          rhs = *regs[insn.reg_b];
        }
        pc = eval_cmp(insn.cmp, *regs[insn.reg_a], rhs) ? insn.target : pc + 1;
        break;
      }
      case Opcode::kGoto:
        pc = insn.target;
        break;
      case Opcode::kReturn:
        if (insn.reg_a >= regs.size() || !regs[insn.reg_a])
          return std::nullopt;
        return *regs[insn.reg_a] != 0;
      default:
        return std::nullopt;  // anything else disqualifies the helper
    }
  }
  return std::nullopt;  // step cap: not a trivial helper
}

/// Summarizes a helper body as the contiguous interval of levels at which
/// it returns true; nullopt when any level fails to evaluate or the true
/// set is empty or non-contiguous.
std::optional<ApiInterval> evaluate_sdk_predicate(const DexFile& dex,
                                                  const MethodCode& code) {
  int lo = -1;
  int hi = -1;
  for (int level = kMinApiLevel; level <= kMaxApiLevel; ++level) {
    const auto outcome = run_predicate_at(dex, code, level);
    if (!outcome) return std::nullopt;
    if (*outcome) {
      if (lo < 0) lo = level;
      else if (hi != level - 1) return std::nullopt;  // non-contiguous
      hi = level;
    }
  }
  if (lo < 0) return std::nullopt;
  return ApiInterval{lo, hi};
}

}  // namespace

void ClassTrace::add_resolve(const MethodId& id) {
  if (resolve_seen_.insert(id).second) resolves.push_back(id);
}

void ClassTrace::add_walk_root(const MethodId& id) {
  if (walk_seen_.insert(id).second) walk_roots.push_back(id);
}

void ClassTrace::add_latebind(const std::string& type, int depth) {
  if (const auto [it, inserted] = latebind_index_.emplace(type, latebinds.size());
      inserted) {
    latebinds.push_back(TraceLatebind{type, depth});
  } else {
    auto& entry = latebinds[it->second];
    entry.depth = std::min(entry.depth, depth);
  }
}

void ClassTrace::add_edge(const MethodId& callee, ApiInterval context,
                          int depth) {
  if (const auto [it, inserted] = edge_index_.emplace(callee, edges.size());
      inserted) {
    edges.push_back(TraceEdge{callee, context, depth});
  } else {
    auto& entry = edges[it->second];
    entry.context = entry.context.hull(context);
    entry.depth = std::min(entry.depth, depth);
  }
}

Aum::Aum(ClassHierarchy& hierarchy, const ApiDatabase& db, AumOptions options,
         BudgetTracker* budget)
    : hierarchy_(&hierarchy), db_(&db), options_(options), budget_(budget) {}

const Cfg& Aum::cfg_for(const MethodDef& def) {
  auto& slot = cfg_cache_[&def];
  if (!slot) slot = std::make_unique<Cfg>(Cfg::build(*def.code));
  return *slot;
}

const Aum::RefResolution& Aum::resolve_ref(const DexFile& dex,
                                           std::uint32_t ref_idx) {
  auto& per_dex = ref_cache_[&dex];
  if (per_dex.empty()) per_dex.resize(dex.method_ref_count());
  auto& slot = per_dex[ref_idx];
  if (!slot) {
    slot = std::make_unique<RefResolution>();
    slot->declared = dex.method_id_at(ref_idx);
    slot->resolution = hierarchy_->resolve(
        slot->declared.class_name, slot->declared.name,
        slot->declared.descriptor);
  }
  // Recorded on every call, memo hits included: the trace must credit each
  // *class* with every resolution its methods perform, not only the one
  // that first populated the shared per-dex slot.
  if (trace_cls_ != nullptr) trace_cls_->add_resolve(slot->declared);
  return *slot;
}

std::optional<ApiInterval> Aum::predicate_for(const DexFile& dex,
                                              std::uint32_t ref_idx) {
  resolve_ref(dex, ref_idx);  // populate the slot
  RefResolution& slot = *ref_cache_[&dex][ref_idx];
  if (slot.predicate_computed) return slot.predicate;
  slot.predicate_computed = true;
  const auto& res = slot.resolution;
  if (!res || res->declaring_class->from_framework) return std::nullopt;
  const MethodDef* method = res->method;
  if (method == nullptr || !method->code) return std::nullopt;
  // Only no-argument static boolean helpers have a context-free summary.
  if ((method->access_flags & kAccStatic) == 0) return std::nullopt;
  if (slot.declared.descriptor != "()Z" && slot.declared.descriptor != "()I")
    return std::nullopt;
  slot.predicate =
      evaluate_sdk_predicate(*res->declaring_class->dex, *method->code);
  return slot.predicate;
}

void Aum::walk_framework(const MethodId& api, int depth) {
  if (depth >= options_.framework_walk_depth) return;
  if (auto [it, inserted] = framework_walked_.emplace(api, true); !inserted)
    return;
  const LoadedClass* cls = hierarchy_->load(api.class_name);
  if (!cls || !cls->from_framework) return;
  const MethodDef* method =
      hierarchy_->find_method_in(*cls, api.name, api.descriptor);
  if (!method || !method->code) return;
  for (const auto& insn : method->code->insns) {
    if (insn.op != Opcode::kInvoke) continue;
    const MethodId callee = cls->dex->method_id_at(insn.index);
    hierarchy_->load(callee.class_name);  // materialize what the ADF touches
    walk_framework(callee, depth + 1);
  }
}

// The two fast-path methods replay walk_framework over the substrate's
// precomputed graph. Load-for-load equivalence with the string path:
//   - the per-edge class load happens for every edge arrival in both paths
//     (walk_framework loads callee.class_name before recursing);
//   - walk_framework's load at recursion entry is always a cache hit — the
//     parent loop (or, for roots, resolve_ref) just loaded the same class —
//     except for callees the substrate does not own, where the first
//     arrival takes the full miss path (budget check, fault point). Those
//     keep walk_framework's exact bookkeeping: a framework_walked_ entry
//     plus the one extra load on first arrival.
void Aum::walk_root_fast(const MethodResolution& res) {
  if (options_.framework_walk_depth <= 0) return;
  const auto* entry = FrameworkSubstrate::entry_of(*res.declaring_class);
  if (entry == nullptr) {
    // Not substrate-owned (possible only if a provider mixes private
    // framework copies in): take the string path, which handles anything.
    walk_framework(res.id, 0);
    return;
  }
  // res.method points into the declaring class's definition, so the
  // parallel method table gives the MethodEntry by index.
  const auto& me = entry->methods[static_cast<std::size_t>(
      res.method - entry->cls.def->methods.data())];
  if (walked_fast_[me.slot]) return;
  walked_fast_[me.slot] = 1;
  walk_edges_fast(me, 0);
}

void Aum::walk_edges_fast(const FrameworkSubstrate::MethodEntry& me,
                          int depth) {
  for (const auto& edge : me.callees) {
    if (edge.target != nullptr)
      hierarchy_->load_framework(edge.target, edge.target_slot);
    else
      hierarchy_->load(edge.id->class_name);
    const int child_depth = depth + 1;
    if (child_depth >= options_.framework_walk_depth) continue;
    if (edge.target == nullptr) {
      // Outside the substrate: mirror walk_framework exactly — memoize the
      // identity and retry the load once (the recursion-entry load, a full
      // miss every time for a class that never materializes).
      if (framework_walked_.emplace(*edge.id, true).second)
        hierarchy_->load(edge.id->class_name);
      continue;
    }
    if (edge.resolved == nullptr) continue;  // target declares no such method
    if (walked_fast_[edge.resolved->slot]) continue;
    walked_fast_[edge.resolved->slot] = 1;
    walk_edges_fast(*edge.resolved, child_depth);
  }
}

void Aum::explore_method(const MethodWork& work, UsageModel& model) {
  // Incremental scope check: the dirty set is a forward closure over the
  // reference graph, so a scoped run can never legitimately reach a class
  // outside it. Arriving here anyway means the closure (or the cached
  // traces that seeded us) is stale — flag it so the caller discards the
  // run instead of serving facts computed from a broken premise.
  if (scope_ != nullptr && scope_->count(work.cls->name) == 0) {
    scope_violation_ = true;
    return;
  }
  const MethodDef& def = *work.def;
  if (!def.code || def.code->insns.empty()) return;

  // Memoize on the widest context analyzed so far.
  if (const auto it = analyzed_.find(&def); it != analyzed_.end()) {
    if (interval_covers(it->second, work.context)) return;
    it->second = it->second.hull(work.context);
  } else {
    analyzed_.emplace(&def, work.context);
    model.reachable_methods.push_back(
        work.cls->dex->method_id(*work.cls->def, def));
  }

  const DexFile& dex = *work.cls->dex;
  const MethodId caller = dex.method_id(*work.cls->def, def);
  // Route every recording below (including resolve_ref calls made from
  // inside the guard fixpoint's predicate lookups) to this class's trace.
  trace_cls_ =
      record_ != nullptr ? &record_->classes[caller.class_name] : nullptr;
  const Cfg& cfg = cfg_for(def);
  SdkPredicateLookup predicate_lookup;
  const SdkPredicateLookup* predicates = nullptr;
  if (options_.helper_predicates && options_.guards.enabled &&
      options_.guards.track_registers) {
    predicate_lookup = [this, &dex](std::uint32_t ref_idx) {
      return predicate_for(dex, ref_idx);
    };
    predicates = &predicate_lookup;
  }
  const GuardResult guards = analyze_guards(dex, *def.code, cfg,
                                            work.context, options_.guards,
                                            budget_, predicates);

  // Record recognized direct SDK_INT comparisons for the SDC lint,
  // deduplicated per site (context re-analysis replays the same branches).
  // A helper predicate's comparison is its *return value*, not a guard
  // over any action — `return SDK_INT >= N` is definitionally one-sided
  // over narrow app ranges, so collecting it would trip the vacuous-guard
  // lint on every helper-guarded app. Same shape test as predicate_for.
  const bool predicate_body =
      !guards.checks.empty() && (def.access_flags & kAccStatic) != 0 &&
      (caller.descriptor == "()Z" || caller.descriptor == "()I") &&
      evaluate_sdk_predicate(dex, *def.code).has_value();
  if (!predicate_body) {
    for (const auto& check : guards.checks) {
      if (guard_check_sites_.insert(site_key(&def, check.insn_index)).second)
        model.guard_checks.push_back(
            GuardCheck{caller, check.insn_index, check.cmp, check.literal});
    }
  }

  // Linear pre-pass tracking string constants per register, for
  // reflection-based late binding (Class.forName with a statically-known
  // name). Flow-insensitive within the method — conservative in the
  // direction the paper takes for dynamically-bound code.
  const auto& insns = def.code->insns;
  std::unordered_map<std::uint16_t, std::uint32_t> string_regs;  // reg -> string idx
  std::vector<std::uint32_t> string_at(insns.size(), kNoIndex);
  for (std::uint32_t i = 0; i < insns.size(); ++i) {
    const Instruction& insn = insns[i];
    if (insn.op == Opcode::kConstString) {
      string_regs[insn.reg_a] = insn.index;
    } else if (insn.op == Opcode::kInvoke && !insn.args.empty()) {
      if (const auto it = string_regs.find(insn.args.front());
          it != string_regs.end())
        string_at[i] = it->second;
    }
  }
  for (std::uint32_t i = 0; i < insns.size(); ++i) {
    const Instruction& insn = insns[i];
    const ApiInterval interval = guards.at(cfg, i);
    if (interval.empty()) continue;  // path-sensitively dead under context

    if (insn.op == Opcode::kLoadClass && options_.follow_late_binding) {
      // Late binding: conservatively analyze every method of the
      // statically-named class (paper §III-A).
      const std::string type = dex.type_name(insn.index);
      if (trace_cls_ != nullptr) trace_cls_->add_latebind(type, work.depth + 1);
      const LoadedClass* loaded = hierarchy_->load(type);
      if (loaded && !loaded->from_framework) {
        for (const auto& m : loaded->def->methods)
          worklist_.push_back(MethodWork{loaded, &m,
                                         ApiInterval::full(), work.depth + 1});
      }
      continue;
    }

    if (insn.op != Opcode::kInvoke) continue;
    const RefResolution& ref = resolve_ref(dex, insn.index);
    const MethodId& declared = ref.declared;
    const auto& resolution = ref.resolution;

    // Reflection-based late binding: Class.forName on a statically-known
    // name pulls the named class into the analysis, just like kLoadClass.
    if (options_.follow_late_binding &&
        declared.class_name == "java/lang/Class" &&
        declared.name == "forName" && string_at[i] != kNoIndex) {
      std::string type = dex.string_at(string_at[i]);
      std::replace(type.begin(), type.end(), '.', '/');
      if (trace_cls_ != nullptr) trace_cls_->add_latebind(type, work.depth + 1);
      const LoadedClass* loaded = hierarchy_->load(type);
      if (loaded && !loaded->from_framework) {
        for (const auto& m : loaded->def->methods)
          worklist_.push_back(
              MethodWork{loaded, &m, ApiInterval::full(), work.depth + 1});
      }
      continue;
    }

    if (resolution && resolution->declaring_class->from_framework) {
      // A framework API call (possibly reached via inheritance).
      const MethodId& api = resolution->id;
      if (api.name == "requestPermissions") {
        model.requests_runtime_permissions = true;
        if (trace_cls_ != nullptr)
          trace_cls_->requests_runtime_permissions = true;
      }

      const std::uint64_t key = site_key(&def, i);
      if (const auto it = api_site_index_.find(key);
          it != api_site_index_.end()) {
        auto& site = model.api_calls[it->second];
        site.guard = site.guard.hull(interval);
      } else {
        api_site_index_.emplace(key, model.api_calls.size());
        model.api_calls.push_back(
            ApiCallSite{caller, i, declared, api, interval});
      }

      for (const auto& permission : db_->permissions_for(api)) {
        auto& entries = perm_site_index_[key];
        bool found = false;
        for (auto& [perm, index] : entries) {
          if (perm != permission) continue;
          auto& use = model.permission_uses[index];
          use.guard = use.guard.hull(interval);
          found = true;
          break;
        }
        if (!found) {
          entries.emplace_back(permission, model.permission_uses.size());
          model.permission_uses.push_back(
              PermissionUse{caller, i, api, permission, interval});
        }
      }

      if (trace_cls_ != nullptr) trace_cls_->add_walk_root(declared);
      if (use_fast_walk_)
        walk_root_fast(*resolution);
      else
        walk_framework(api, 0);
      continue;
    }

    if (resolution) {
      // App-internal call: recurse under the site's guard context
      // (Algorithm 2 lines 8-9).
      if (work.depth >= options_.max_call_depth) continue;
      const ApiInterval child_context = options_.interprocedural_guards
                                            ? interval
                                            : work.context;
      if (trace_cls_ != nullptr)
        trace_cls_->add_edge(declared, child_context, work.depth + 1);
      worklist_.push_back(MethodWork{resolution->declaring_class,
                                     resolution->method, child_context,
                                     work.depth + 1});
      continue;
    }

    // Unresolved. If the declared receiver is a framework class, the
    // method may simply not exist in the image we analyze against (e.g.
    // introduced at a later level); the database still knows it.
    if (is_framework_class_name(declared.class_name) &&
        db_->defined_levels(declared)) {
      const std::uint64_t key = site_key(&def, i);
      if (const auto it = api_site_index_.find(key);
          it != api_site_index_.end()) {
        auto& site = model.api_calls[it->second];
        site.guard = site.guard.hull(interval);
      } else {
        api_site_index_.emplace(key, model.api_calls.size());
        model.api_calls.push_back(
            ApiCallSite{caller, i, declared, declared, interval});
      }
      for (const auto& permission : db_->permissions_for(declared)) {
        auto& entries = perm_site_index_[key];
        bool found = false;
        for (const auto& [perm, index] : entries)
          if (perm == permission) {
            found = true;
            break;
          }
        if (!found) {
          entries.emplace_back(permission, model.permission_uses.size());
          model.permission_uses.push_back(
              PermissionUse{caller, i, declared, permission, interval});
        }
      }
    }
    // Otherwise: statically-unknown target (e.g. code generated only at
    // runtime) — conservatively skipped, as the paper's tool does (§VI).
  }
}

void Aum::scan_entry_points(const Apk& apk, UsageModel& model,
                            const std::unordered_set<std::string>* dirty) {
  cfg_cache_.clear();
  analyzed_.clear();
  api_site_index_.clear();
  perm_site_index_.clear();
  guard_check_sites_.clear();
  framework_walked_.clear();
  ref_cache_.clear();
  worklist_.clear();
  trace_cls_ = nullptr;
  scope_violation_ = false;

  const FrameworkSubstrate* substrate = hierarchy_->substrate();
  use_fast_walk_ = substrate != nullptr;
  walked_fast_.assign(use_fast_walk_ ? substrate->method_count() : 0, 0);

  const ApiInterval app_range =
      apk.manifest.supported_range().intersect(ApiInterval::full());

  // Enumerate the installed (main-dex) classes: detect overrides of
  // framework methods and collect the framework-invoked entry points.
  // An incremental run performs this scan in full — every load, every
  // override probe — so overrides/handles_permission_results are always
  // complete and the scan's class-loading footprint matches a full run;
  // only the *root pushes* are restricted to the dirty set.
  const DexFile& main_dex = apk.dexes.front();
  for (const auto& cls_def : main_dex.classes()) {
    const LoadedClass* cls = hierarchy_->load(main_dex.type_name(cls_def.type));
    if (!cls || cls->from_framework) continue;
    const bool in_scope = dirty == nullptr || dirty->count(cls->name) != 0;
    for (const auto& m : cls->def->methods) {
      std::optional<MethodId> overridden_id;
      if (const auto res = hierarchy_->overridden_framework_method(*cls, m)) {
        overridden_id = res->id;
      } else {
        // The declaration may not exist in the analysis-level image at all
        // (a callback introduced at a later level than the app targets);
        // Algorithm 3 consults the revision database across *all* levels,
        // so walk the ancestor chain and ask the database directly. The
        // descriptor is built lazily — only when an ancestor declares a
        // method of the same name at some level.
        const std::string& name = cls->dex->string_at(m.name);
        std::string descriptor;
        const LoadedClass* ancestor =
            cls->super_name.empty() ? nullptr
                                    : hierarchy_->load(cls->super_name);
        while (ancestor) {
          if (db_->class_has_method_named(ancestor->name, name)) {
            if (descriptor.empty())
              descriptor = cls->dex->descriptor_of(m.proto);
            const MethodId candidate{ancestor->name, name, descriptor};
            if (db_->defined_levels(candidate)) {
              overridden_id = candidate;
              break;
            }
          }
          if (ancestor->super_name.empty()) break;
          ancestor = hierarchy_->load(ancestor->super_name);
        }
      }
      if (!overridden_id) continue;
      const MethodId app_method = cls->dex->method_id(*cls->def, m);
      model.overrides.push_back(CallbackOverride{app_method, *overridden_id});
      if (overridden_id->name == "onRequestPermissionsResult")
        model.handles_permission_results = true;
      // Framework-invoked methods are exploration roots.
      if (in_scope) worklist_.push_back(MethodWork{cls, &m, app_range, 0});
    }
  }

  // Component classes: the framework instantiates them and drives their
  // lifecycle, so all their methods are roots.
  for (const auto& component : apk.manifest.components) {
    const LoadedClass* cls = hierarchy_->load(component.class_name);
    if (!cls || cls->from_framework) continue;
    if (dirty != nullptr && dirty->count(cls->name) == 0) continue;
    for (const auto& m : cls->def->methods)
      worklist_.push_back(MethodWork{cls, &m, app_range, 0});
  }
}

UsageModel Aum::model(const Apk& apk, ExplorationTrace* record) {
  record_ = record;
  scope_ = nullptr;

  UsageModel model;
  scan_entry_points(apk, model, nullptr);

  while (!worklist_.empty()) {
    if (budget_ && !budget_->allow_step()) break;
    const MethodWork work = worklist_.back();
    worklist_.pop_back();
    explore_method(work, model);
  }

  // Exhaustion anywhere — worklist steps, guard fixpoints, or the CLVM
  // class cap — leaves a truncated (still sound per-fact) model.
  if (budget_ && budget_->exhausted()) model.incomplete = true;

  record_ = nullptr;
  trace_cls_ = nullptr;
  return model;
}

UsageModel Aum::model_incremental(const Apk& apk,
                                  const IncrementalScope& scope,
                                  ExplorationTrace* record) {
  record_ = record;
  scope_ = scope.dirty;

  UsageModel model;
  scan_entry_points(apk, model, scope.dirty);

  // Re-seed the clean->dirty boundary from the prior run's traces: every
  // app-internal call edge and late-binding a clean class pushed into a
  // now-dirty class is pushed again, under the recorded (hulled) guard
  // context. The dirty set is a forward closure, so dirty classes can only
  // call dirty classes — these seeds plus the dirty roots reproduce every
  // worklist entry the full run would create inside the dirty region.
  for (const CleanClass& cc : scope.clean) {
    if (!cc.seed_candidate) continue;
    const ClassTrace& trace = *cc.trace;
    for (const auto& edge : trace.edges) {
      // Virtual resolution walks the callee's super/interface chain; when
      // that whole chain is clean it resolves exactly as the prior run did
      // (never into the dirty set, never into a new violation), so the
      // resolve is skipped here and its load side effects are reproduced
      // by the replay pass below. Removed callees are always dirty (their
      // referrers' fingerprints changed), so violations are never masked.
      if (scope.dirty_targets != nullptr &&
          scope.dirty_targets->count(edge.callee.class_name) == 0)
        continue;
      const auto res =
          hierarchy_->resolve(edge.callee.class_name, edge.callee.name,
                              edge.callee.descriptor);
      if (!res || res->declaring_class->from_framework) {
        // A clean caller's callee vanished without dirtying the caller:
        // the fingerprint diff missed an interface change. Unusable.
        scope_violation_ = true;
        continue;
      }
      if (scope.dirty->count(res->declaring_class->name) == 0) continue;
      worklist_.push_back(MethodWork{res->declaring_class, res->method,
                                     edge.context, edge.depth});
    }
    for (const auto& lb : trace.latebinds) {
      if (scope.dirty->count(lb.type) == 0) continue;
      const LoadedClass* loaded = hierarchy_->load(lb.type);
      if (!loaded || loaded->from_framework) continue;
      for (const auto& m : loaded->def->methods)
        worklist_.push_back(
            MethodWork{loaded, &m, ApiInterval::full(), lb.depth});
    }
  }

  while (!worklist_.empty()) {
    if (budget_ && !budget_->allow_step()) break;
    const MethodWork work = worklist_.back();
    worklist_.pop_back();
    explore_method(work, model);
  }

  // Replay the clean classes' load side effects. CLVM loads are memoized
  // and never released, so memory/budget accounting is a function of the
  // loaded *set*, not the load order: replaying each clean class's
  // resolutions, framework-walk roots, and late-binding loads after the
  // dirty fixpoint reproduces the full run's footprint exactly. No facts
  // are recorded here (the clean facts come from the cache) and no trace
  // is captured (the clean traces are kept as-is).
  record_ = nullptr;
  trace_cls_ = nullptr;
  for (const CleanClass& cc : scope.clean) {
    const ClassTrace& trace = *cc.trace;
    for (const auto& id : trace.resolves)
      hierarchy_->resolve(id.class_name, id.name, id.descriptor);
    for (const auto& id : trace.walk_roots) {
      const auto res = hierarchy_->resolve(id.class_name, id.name,
                                           id.descriptor);
      if (!res || !res->declaring_class->from_framework) {
        scope_violation_ = true;
        continue;
      }
      if (use_fast_walk_)
        walk_root_fast(*res);
      else
        walk_framework(res->id, 0);
    }
    for (const auto& lb : trace.latebinds) hierarchy_->load(lb.type);
  }

  if (budget_ && budget_->exhausted()) model.incomplete = true;

  scope_ = nullptr;
  return model;
}

}  // namespace saintdroid
