// Static semantic analysis of DSL programs (lint + repair).
//
// The generator, mutator and minimizer manipulate programs structurally
// (dsl::Program::valid / repair_refs), but structural validity still admits
// programs that are *semantically* dead on arrival: an ioctl on an fd that
// an earlier close already destroyed, a scalar outside the width or range
// its description declares, a producer whose result nothing ever consumes.
// Each such program wastes one device execution on a guaranteed error path.
//
// ProgramLint runs four passes over a program as clients of the forward
// dataflow engine (analysis/dataflow.h): the use facts come from its
// transfer function, applied once per call in program order, and the
// dead-statement pass reads the def-use lattice. The engine counts the
// outcomes as analysis.rejected / analysis.repaired.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataflow.h"
#include "dsl/prog.h"

namespace df::analysis {

enum class Pass {
  kUseAfterClose,  // handle used (or re-closed) after its destroy call
  kDanglingRef,    // structural ref rot or unresolved handle
  kTypeWidth,      // scalar outside kind width / declared range / choices
  kDeadStatement,  // produced resource never consumed
};

enum class Severity { kWarning, kError };

// Stable string ids used in JSON reports ("use-after-close", ...).
std::string_view pass_name(Pass p);
std::string_view severity_name(Severity s);

struct Finding {
  Pass pass = Pass::kDanglingRef;
  Severity severity = Severity::kError;
  size_t call = 0;    // statement index
  size_t arg = kNoArg;  // argument index, or kNoArg for whole-call findings
  std::string message;

  static constexpr size_t kNoArg = static_cast<size_t>(-1);
};

struct LintReport {
  std::vector<Finding> findings;

  size_t errors() const;
  size_t warnings() const;
  // A clean program has no error-severity findings (warnings are advisory:
  // unresolved handles and dead statements are legal, just low-value).
  bool clean() const { return errors() == 0; }
  bool has(Pass p) const;
};

struct LintOptions {
  bool use_after_close = true;
  bool dangling_refs = true;
  bool type_width = true;
  bool dead_statements = true;
  // Stale-handle allowance for the use-after-close pass: the first N
  // after-close uses (in program order) are warnings, not errors, and
  // repair() leaves them in place. Operating on one destroyed handle is a
  // deliberate probe — stale-handle error paths are where use-after-free
  // bugs live (bt_accept_unlink) — while a pile of them is just a rotten
  // program. 0 (the default) flags every stale use as an error.
  size_t stale_handle_allowance = 0;
};

class ProgramLint {
 public:
  ProgramLint() = default;
  explicit ProgramLint(LintOptions opts) : opts_(opts) {}

  LintReport analyze(const dsl::Program& prog) const;
  // analyze(prog).clean() without the report: the pipeline gate's
  // errors-only path, which formats no message and stops at the first
  // error.
  bool clean(const dsl::Program& prog) const;

  // Deterministic repair: rebinds stale/closed handle refs to live
  // producers (clearing to kNoRef when none exists), clamps scalars into
  // their declared width/range/choices, truncates oversized buffers.
  // Dead statements are left in place (removal is the minimizer's job).
  // Returns the number of individual fixes applied.
  size_t repair(dsl::Program& prog) const;

  const LintOptions& options() const { return opts_; }

 private:
  // The passes behind analyze() (rep != nullptr) and clean() (rep ==
  // nullptr). Returns true when the program has no error finding.
  bool scan(const dsl::Program& prog, LintReport* rep) const;

  LintOptions opts_;
};

}  // namespace df::analysis
