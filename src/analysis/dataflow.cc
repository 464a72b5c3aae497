#include "analysis/dataflow.h"

#include <algorithm>

#include "kernel/driver.h"

namespace df::analysis {

using dsl::ArgKind;
using dsl::CallDesc;
using dsl::ParamDesc;
using dsl::Program;
using dsl::Value;

std::string_view lifetime_name(Lifetime l) {
  switch (l) {
    case Lifetime::kLive:
      return "live";
    case Lifetime::kClosed:
      return "closed";
    case Lifetime::kLeaked:
      return "leaked";
    case Lifetime::kUnknown:
      return "unknown";
  }
  return "?";
}

std::string_view arg_class_name(ArgClass c) {
  switch (c) {
    case ArgClass::kGuardRelevant:
      return "guard";
    case ArgClass::kShapeRelevant:
      return "shape";
    case ArgClass::kDead:
      return "dead";
  }
  return "?";
}

size_t destroyed_arg(const CallDesc& d) {
  for (size_t a = 0; a < d.params.size(); ++a) {
    if (d.params[a].kind == ArgKind::kHandle &&
        d.params[a].handle_type == d.destroys) {
      return a;
    }
  }
  return kNoIndex;
}

UseFact handle_use(const Program& prog, size_t i, size_t a,
                   const std::vector<size_t>& closed_site) {
  const CallDesc& d = *prog.calls[i].desc;
  const Value& v = prog.calls[i].args[a];
  UseFact u;
  u.is_handle = true;
  if (v.ref == Value::kNoRef) {
    u.unresolved = true;
    return u;
  }
  const auto ref = static_cast<size_t>(v.ref);
  const size_t n = prog.calls.size();
  const CallDesc* producer =
      v.ref >= 0 && ref < n ? prog.calls[ref].desc : nullptr;
  u.structural_ok = v.ref >= 0 && ref < i && producer != nullptr &&
                    producer->produces == d.params[a].handle_type;
  if (!u.structural_ok) return u;
  u.def = ref;
  if (closed_site[ref] != kNoIndex) {
    u.after_close = true;
    u.close_site = closed_site[ref];
    u.second_destroy = !d.destroys.empty() && destroyed_arg(d) == a;
  }
  return u;
}

size_t record_destroy(const Program& prog, size_t i,
                      std::vector<size_t>& closed_site) {
  const dsl::Call& c = prog.calls[i];
  if (c.desc->destroys.empty()) return kNoIndex;
  const size_t a = destroyed_arg(*c.desc);
  if (a == kNoIndex || a >= c.args.size()) return kNoIndex;
  const int32_t ref = c.args[a].ref;
  if (ref < 0 || static_cast<size_t>(ref) >= prog.calls.size() ||
      closed_site[static_cast<size_t>(ref)] != kNoIndex) {
    return kNoIndex;
  }
  closed_site[static_cast<size_t>(ref)] = i;
  return static_cast<size_t>(ref);
}

ProgramDataflow::ProgramDataflow(const Program& prog) {
  const size_t n = prog.calls.size();
  def_index_.assign(n, -1);
  uses_.resize(n);
  std::vector<size_t> closed_site(n, kNoIndex);

  for (size_t i = 0; i < n; ++i) {
    const dsl::Call& c = prog.calls[i];
    const CallDesc* d = c.desc;
    if (d != nullptr && !d->produces.empty()) {
      def_index_[i] = static_cast<int32_t>(defs_.size());
      DefInfo info;
      info.call = i;
      info.type = d->produces;
      defs_.push_back(std::move(info));
    }
    if (d == nullptr || c.args.size() != d->params.size()) {
      continue;  // arity rot: no per-arg facts (lint rejects the call whole)
    }
    uses_[i].resize(c.args.size());

    for (size_t a = 0; a < c.args.size(); ++a) {
      if (d->params[a].kind != ArgKind::kHandle) continue;
      const UseFact& u = uses_[i][a] = handle_use(prog, i, a, closed_site);
      if (!u.structural_ok) continue;
      DefInfo& def = defs_[static_cast<size_t>(def_index_[u.def])];
      if (u.after_close) {
        def.stale_uses.push_back(i);
        ++stale_uses_;
      } else {
        def.uses.push_back(i);
      }
    }

    const size_t closed = record_destroy(prog, i, closed_site);
    if (closed != kNoIndex && def_index_[closed] >= 0) {
      defs_[static_cast<size_t>(def_index_[closed])].destroyed_at = i;
    }
  }

  for (DefInfo& def : defs_) {
    if (prog.calls[def.call].desc == nullptr) {
      def.end_state = Lifetime::kUnknown;
    } else if (def.destroyed_at != kNoIndex) {
      def.end_state = Lifetime::kClosed;
    } else if (!def.uses.empty() || !def.stale_uses.empty()) {
      def.end_state = Lifetime::kLive;
    } else {
      def.end_state = Lifetime::kLeaked;
    }
  }
}

const DefInfo* ProgramDataflow::def(size_t call) const {
  if (call >= def_index_.size() || def_index_[call] < 0) return nullptr;
  return &defs_[static_cast<size_t>(def_index_[call])];
}

const UseFact& ProgramDataflow::use(size_t call, size_t arg) const {
  static const UseFact kEmpty;
  if (call >= uses_.size() || arg >= uses_[call].size()) return kEmpty;
  return uses_[call][arg];
}

ScalarFact ProgramDataflow::scalar_fact(const CallDesc& d, size_t arg) {
  if (arg >= d.params.size()) return ScalarFact::kFree;
  const ParamDesc& p = d.params[arg];
  if (p.kind == ArgKind::kHandle) return ScalarFact::kResultDerived;
  switch (p.kind) {
    case ArgKind::kU8:
    case ArgKind::kU16:
    case ArgKind::kU32:
    case ArgKind::kU64:
      return p.min == p.max ? ScalarFact::kConstant : ScalarFact::kFree;
    case ArgKind::kEnum:
    case ArgKind::kFlags:
      return p.choices.size() == 1 ? ScalarFact::kConstant : ScalarFact::kFree;
    default:
      return ScalarFact::kFree;
  }
}

void GuardIndex::add_driver(const kernel::Driver& drv) {
  for (const kernel::DeclaredTransition& t : drv.declared_transitions()) {
    for (const kernel::PlanCall& step : t.steps) {
      for (const kernel::TransitionHint& hint : step.hints) {
        auto& values = index_[{step.call, hint.param}];
        if (std::find(values.begin(), values.end(), hint.value) ==
            values.end()) {
          values.push_back(hint.value);
        }
      }
    }
  }
  for (auto& [key, values] : index_) std::sort(values.begin(), values.end());
}

bool GuardIndex::guard_relevant(std::string_view call,
                                std::string_view param) const {
  return index_.find({std::string(call), std::string(param)}) != index_.end();
}

const std::vector<uint64_t>& GuardIndex::hint_values(
    std::string_view call, std::string_view param) const {
  static const std::vector<uint64_t> kEmpty;
  const auto it = index_.find({std::string(call), std::string(param)});
  return it != index_.end() ? it->second : kEmpty;
}

ArgClass GuardIndex::classify_arg(const CallDesc& d, size_t arg) const {
  if (arg >= d.params.size()) return ArgClass::kDead;
  const ParamDesc& p = d.params[arg];
  if (ProgramDataflow::scalar_fact(d, arg) == ScalarFact::kConstant) {
    return ArgClass::kDead;  // nothing to vary
  }
  if (guard_relevant(d.name, p.name)) return ArgClass::kGuardRelevant;
  if (p.kind == ArgKind::kHandle || p.kind == ArgKind::kString ||
      p.kind == ArgKind::kBlob || p.slot == dsl::Slot::kSize ||
      p.slot == dsl::Slot::kFd) {
    return ArgClass::kShapeRelevant;
  }
  return ArgClass::kDead;
}

}  // namespace df::analysis
