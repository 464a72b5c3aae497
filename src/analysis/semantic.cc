#include "analysis/semantic.h"

#include <algorithm>

#include "analysis/dataflow.h"
#include "util/hex.h"

namespace df::analysis {

namespace {

using dsl::ArgKind;
using dsl::CallDesc;
using dsl::ParamDesc;
using dsl::Program;
using dsl::Value;

uint64_t kind_width_mask(ArgKind k) {
  switch (k) {
    case ArgKind::kU8:
      return 0xffull;
    case ArgKind::kU16:
      return 0xffffull;
    case ArgKind::kU32:
      return 0xffffffffull;
    default:
      return ~0ull;
  }
}

const char* kind_label(ArgKind k) {
  switch (k) {
    case ArgKind::kU8:
      return "u8";
    case ArgKind::kU16:
      return "u16";
    case ArgKind::kU32:
      return "u32";
    case ArgKind::kU64:
      return "u64";
    case ArgKind::kEnum:
      return "enum";
    case ArgKind::kFlags:
      return "flags";
    case ArgKind::kBool:
      return "bool";
    case ArgKind::kString:
      return "string";
    case ArgKind::kBlob:
      return "blob";
    case ArgKind::kHandle:
      return "handle";
  }
  return "?";
}

uint64_t flags_mask(const ParamDesc& p) {
  uint64_t m = 0;
  for (uint64_t c : p.choices) m |= c;
  return m;
}

bool is_scalar_kind(ArgKind k) {
  return k == ArgKind::kU8 || k == ArgKind::kU16 || k == ArgKind::kU32 ||
         k == ArgKind::kU64;
}

// Producer indices destroyed before statement `upto` (exclusive), using
// the shared destroyed_arg() convention from the dataflow engine.
std::vector<bool> closed_before(const Program& prog, size_t upto) {
  std::vector<bool> closed(prog.calls.size(), false);
  for (size_t i = 0; i < upto && i < prog.calls.size(); ++i) {
    const CallDesc* d = prog.calls[i].desc;
    if (d == nullptr || d->destroys.empty()) continue;
    const size_t a = destroyed_arg(*d);
    if (a == kNoIndex || a >= prog.calls[i].args.size()) continue;
    const int32_t ref = prog.calls[i].args[a].ref;
    if (ref >= 0 && static_cast<size_t>(ref) < prog.calls.size() &&
        !closed[static_cast<size_t>(ref)]) {
      closed[static_cast<size_t>(ref)] = true;
    }
  }
  return closed;
}

}  // namespace

std::string_view pass_name(Pass p) {
  switch (p) {
    case Pass::kUseAfterClose:
      return "use-after-close";
    case Pass::kDanglingRef:
      return "dangling-ref";
    case Pass::kTypeWidth:
      return "type-width";
    case Pass::kDeadStatement:
      return "dead-statement";
  }
  return "?";
}

std::string_view severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

size_t LintReport::errors() const {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

size_t LintReport::warnings() const { return findings.size() - errors(); }

bool LintReport::has(Pass p) const {
  return std::any_of(findings.begin(), findings.end(),
                     [p](const Finding& f) { return f.pass == p; });
}

LintReport ProgramLint::analyze(const Program& prog) const {
  LintReport rep;
  scan(prog, &rep);
  return rep;
}

bool ProgramLint::clean(const Program& prog) const {
  return scan(prog, nullptr);
}

bool ProgramLint::scan(const Program& prog, LintReport* rep) const {
  const size_t n = prog.calls.size();

  // The passes walk the program once, in order, applying the dataflow
  // engine's transfer function as they go; the full def-use lattice is
  // built only for the dead-statement pass below.
  std::vector<size_t> closed_site(n, kNoIndex);
  // After-close uses seen so far, for the stale-handle allowance.
  size_t stale_seen = 0;
  bool no_errors = true;

  // Records one finding; `message` runs only when there is a report to
  // fill. Returns true when the scan may stop: an error on the errors-only
  // path, which has its answer.
  auto add = [rep, &no_errors](Pass pass, Severity sev, size_t call,
                               size_t arg, const auto& message) {
    if (sev == Severity::kError) no_errors = false;
    if (rep == nullptr) return !no_errors;
    Finding f;
    f.pass = pass;
    f.severity = sev;
    f.call = call;
    f.arg = arg;
    f.message = message();
    rep->findings.push_back(std::move(f));
    return false;
  };

  for (size_t i = 0; i < n; ++i) {
    const dsl::Call& c = prog.calls[i];
    const CallDesc* d = c.desc;
    if (d == nullptr) {
      if (opts_.dangling_refs &&
          add(Pass::kDanglingRef, Severity::kError, i, Finding::kNoArg, [] {
            return std::string("statement has no call description");
          })) {
        return false;
      }
      continue;
    }
    if (c.args.size() != d->params.size()) {
      if (opts_.dangling_refs &&
          add(Pass::kDanglingRef, Severity::kError, i, Finding::kNoArg, [&] {
            return d->name + ": arity mismatch (" +
                   std::to_string(c.args.size()) + " args, " +
                   std::to_string(d->params.size()) + " params)";
          })) {
        return false;
      }
      continue;
    }

    for (size_t a = 0; a < c.args.size(); ++a) {
      const ParamDesc& p = d->params[a];
      const Value& v = c.args[a];

      if (p.kind == ArgKind::kHandle) {
        const UseFact u = handle_use(prog, i, a, closed_site);
        if (u.unresolved) {
          if (opts_.dangling_refs) {
            add(Pass::kDanglingRef, Severity::kWarning, i, a, [&] {
              return d->name + "." + p.name + ": unresolved " +
                     p.handle_type +
                     " handle (executor will substitute an invalid one)";
            });
          }
          continue;
        }
        if (!u.structural_ok) {
          if (opts_.dangling_refs &&
              add(Pass::kDanglingRef, Severity::kError, i, a, [&] {
                const auto ref = static_cast<size_t>(v.ref);
                const CallDesc* producer =
                    v.ref >= 0 && ref < n ? prog.calls[ref].desc : nullptr;
                return d->name + "." + p.name +
                       ": dangling result reference r" +
                       std::to_string(v.ref) +
                       (producer != nullptr && ref < i
                            ? " (produces " + producer->produces +
                                  ", needs " + p.handle_type + ")"
                            : " (no earlier producer at that index)");
              })) {
            return false;
          }
          continue;
        }
        if (u.after_close) {
          ++stale_seen;
          if (opts_.use_after_close) {
            // The first `stale_handle_allowance` stale uses are advisory
            // probes; anything beyond is an error.
            const Severity sev = stale_seen <= opts_.stale_handle_allowance
                                     ? Severity::kWarning
                                     : Severity::kError;
            if (add(Pass::kUseAfterClose, sev, i, a, [&] {
                  return d->name + "." + p.name + ": " +
                         (u.second_destroy ? "double close of r"
                                           : "use of r") +
                         std::to_string(v.ref) + " after " +
                         prog.calls[u.def].desc->produces + " was destroyed";
                })) {
              return false;
            }
          }
          continue;
        }
        continue;
      }

      if (!opts_.type_width) continue;
      bool stop = false;
      if (is_scalar_kind(p.kind)) {
        const uint64_t mask = kind_width_mask(p.kind);
        if ((v.scalar & ~mask) != 0) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": value " +
                   util::hex_u64(v.scalar) + " exceeds " +
                   kind_label(p.kind) + " width";
          });
        } else if (v.scalar < p.min || v.scalar > p.max) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": value " +
                   util::hex_u64(v.scalar) + " outside declared range [" +
                   util::hex_u64(p.min) + ", " + util::hex_u64(p.max) + "]";
          });
        }
      } else if (p.kind == ArgKind::kEnum) {
        if (std::find(p.choices.begin(), p.choices.end(), v.scalar) ==
            p.choices.end()) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": value " +
                   util::hex_u64(v.scalar) + " is not one of the " +
                   std::to_string(p.choices.size()) +
                   " declared enum choices";
          });
        }
      } else if (p.kind == ArgKind::kFlags) {
        const uint64_t mask = flags_mask(p);
        if ((v.scalar & ~mask) != 0) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": value " +
                   util::hex_u64(v.scalar) +
                   " sets bits outside the declared flag mask " +
                   util::hex_u64(mask);
          });
        }
      } else if (p.kind == ArgKind::kBool) {
        if (v.scalar > 1) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": value " +
                   util::hex_u64(v.scalar) + " is not a bool";
          });
        }
      } else if (p.kind == ArgKind::kString || p.kind == ArgKind::kBlob) {
        if (v.bytes.size() > p.max_len) {
          stop = add(Pass::kTypeWidth, Severity::kError, i, a, [&] {
            return d->name + "." + p.name + ": " +
                   std::to_string(v.bytes.size()) +
                   " bytes exceeds max_len " + std::to_string(p.max_len);
          });
        }
      }
      if (stop) return false;
    }
    record_destroy(prog, i, closed_site);
  }

  // Dead statements are warnings only, so the errors-only path skips them.
  if (opts_.dead_statements && rep != nullptr) {
    // Dead-statement pass off the lifetime lattice: a def nothing consumed.
    // When the use-after-close pass is off, stale uses count as consumption
    // (the historical relaxed-gate behaviour).
    const ProgramDataflow flow(prog);
    for (const DefInfo& def : flow.defs()) {
      const bool consumed =
          !def.uses.empty() ||
          (!opts_.use_after_close && !def.stale_uses.empty());
      if (consumed) continue;
      const CallDesc* d = prog.calls[def.call].desc;
      add(Pass::kDeadStatement, Severity::kWarning, def.call, Finding::kNoArg,
          [&] {
            return d->name + ": produced " + d->produces +
                   " is never consumed by a later call";
          });
    }
  }
  return no_errors;
}

size_t ProgramLint::repair(Program& prog) const {
  // Structural rot first — repair_refs rebinds to the nearest earlier
  // producer and clears hopeless refs, which the passes below build on.
  // Unresolved refs stay unresolved: the stale-use pass below severs to
  // kNoRef as its fallback, and rebinding those here would undo that fix on
  // the next repair() call (breaking idempotence).
  size_t fixes = prog.repair_refs(/*rebind_unresolved=*/false);
  const size_t n = prog.calls.size();
  // Stale uses kept as probes under the allowance (in program order, the
  // same order analyze() grants warnings in — repair and analyze agree on
  // which uses survive, which is what makes repair idempotent).
  size_t stale_kept = 0;

  for (size_t i = 0; i < n; ++i) {
    dsl::Call& c = prog.calls[i];
    const CallDesc* d = c.desc;
    if (d == nullptr) continue;
    // Arity rot is not repairable here (we cannot invent values for params
    // we know nothing about the position of); leave for rejection.
    if (c.args.size() != d->params.size()) continue;
    const std::vector<bool> closed = closed_before(prog, i);

    for (size_t a = 0; a < c.args.size(); ++a) {
      const ParamDesc& p = d->params[a];
      Value& v = c.args[a];

      if (p.kind == ArgKind::kHandle) {
        if (v.ref == Value::kNoRef) continue;
        const auto ref = static_cast<size_t>(v.ref);
        if (ref >= n || !closed[ref]) continue;
        if (stale_kept < opts_.stale_handle_allowance) {
          ++stale_kept;  // keep this stale use as a probe
          continue;
        }
        // Use after close: rebind to the nearest *live* earlier producer of
        // the same type, else fall back to unresolved.
        int32_t live = Value::kNoRef;
        for (size_t j = 0; j < i; ++j) {
          if (closed[j]) continue;
          const CallDesc* pd = prog.calls[j].desc;
          if (pd != nullptr && pd->produces == p.handle_type) {
            live = static_cast<int32_t>(j);
          }
        }
        v.ref = live;
        ++fixes;
        continue;
      }

      if (is_scalar_kind(p.kind)) {
        uint64_t want = v.scalar & kind_width_mask(p.kind);
        if (p.min <= p.max) want = std::clamp(want, p.min, p.max);
        if (want != v.scalar) {
          v.scalar = want;
          ++fixes;
        }
      } else if (p.kind == ArgKind::kEnum) {
        if (!p.choices.empty() &&
            std::find(p.choices.begin(), p.choices.end(), v.scalar) ==
                p.choices.end()) {
          v.scalar = p.choices.front();
          ++fixes;
        }
      } else if (p.kind == ArgKind::kFlags) {
        const uint64_t mask = flags_mask(p);
        if ((v.scalar & ~mask) != 0) {
          v.scalar &= mask;
          ++fixes;
        }
      } else if (p.kind == ArgKind::kBool) {
        if (v.scalar > 1) {
          v.scalar = 1;
          ++fixes;
        }
      } else if (p.kind == ArgKind::kString || p.kind == ArgKind::kBlob) {
        if (v.bytes.size() > p.max_len) {
          v.bytes.resize(p.max_len);
          ++fixes;
        }
      }
    }
  }
  return fixes;
}

}  // namespace df::analysis
