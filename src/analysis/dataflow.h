// Forward dataflow analysis over DSL programs.
//
// ProgramDataflow runs one forward pass over a dsl::Program and computes
// the per-call facts every other analysis in this directory consumes:
//  * def-use chains — for each producing call, every later call that
//    references its result (split into pre-close and stale uses),
//  * a handle-lifetime lattice — each produced resource ends the program
//    live (never destroyed but consumed), closed (a CallDesc::destroys call
//    consumed it), leaked (produced, never destroyed, never consumed), or
//    unknown (structural rot: missing description or unresolvable ref),
//  * scalar-argument facts — constant (the description admits exactly one
//    value), result-derived (the value is an earlier call's result, i.e. a
//    handle ref), or free.
//
// GuardIndex joins those facts against the drivers' statically declared
// transition guards (kernel::Driver::declared_transitions()): an argument
// is *guard-relevant* when some declared transition pins that exact
// (call, param) to a hint value — mutating it can flip a protocol-state
// guard. classify_arg() folds everything into the three-way split the
// mutator biases on: guard-relevant, shape-relevant, or dead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/prog.h"

namespace df::kernel {
class Driver;
}

namespace df::analysis {

// End-of-program lattice value for a produced resource.
enum class Lifetime {
  kLive,     // produced, consumed, never destroyed
  kClosed,   // a destroying call consumed it
  kLeaked,   // produced but neither destroyed nor consumed
  kUnknown,  // structural rot (no description / invalid producer ref)
};

enum class ScalarFact {
  kConstant,       // the description admits exactly one value
  kResultDerived,  // the value is an earlier call's result (a handle ref)
  kFree,           // anything the mutator may choose
};

enum class ArgClass {
  kGuardRelevant,  // pinned by a declared transition guard
  kShapeRelevant,  // handles, buffers, sizes: controls program shape
  kDead,           // constant or guard-free scalar padding
};

std::string_view lifetime_name(Lifetime l);
std::string_view arg_class_name(ArgClass c);

// The argument index whose handle a call destroys: the first handle param
// of the declared `destroys` type, or kNoIndex when the call destroys
// nothing it takes as an argument.
inline constexpr size_t kNoIndex = static_cast<size_t>(-1);
size_t destroyed_arg(const dsl::CallDesc& d);

// Per-producing-call def record.
struct DefInfo {
  size_t call = kNoIndex;        // producing call index
  std::string type;              // produced resource type
  std::vector<size_t> uses;      // pre-close consumers (incl. the destroy)
  std::vector<size_t> stale_uses;  // consumers after the destroy
  size_t destroyed_at = kNoIndex;  // destroying call index, or kNoIndex
  Lifetime end_state = Lifetime::kUnknown;
};

// Per-(call, arg) handle-use record.
struct UseFact {
  bool is_handle = false;
  bool unresolved = false;   // ref == kNoRef
  bool structural_ok = false;  // earlier producer of the right type
  size_t def = kNoIndex;     // producing call index when structural_ok
  bool after_close = false;  // the def was destroyed before this use
  size_t close_site = kNoIndex;  // destroying call index when after_close
  bool second_destroy = false;   // this use is itself another destroy
};

// The transfer function ProgramDataflow's forward pass is built from, for
// one-pass clients that need only the use facts (the lint gate).
// `closed_site[j]` is the call that destroyed producer j so far, or
// kNoIndex. handle_use() reads the facts of call `i`'s handle arg `a`
// (the call must have a description and full arity); record_destroy() then
// applies call `i`'s destroy — after its own args, so closing a live
// resource reads as a legal (final) use of it — and returns the producer it
// closed, or kNoIndex.
UseFact handle_use(const dsl::Program& prog, size_t i, size_t a,
                   const std::vector<size_t>& closed_site);
size_t record_destroy(const dsl::Program& prog, size_t i,
                      std::vector<size_t>& closed_site);

class ProgramDataflow {
 public:
  explicit ProgramDataflow(const dsl::Program& prog);

  size_t size() const { return uses_.size(); }
  // Def record for call `i`, or nullptr when call `i` produces nothing.
  const DefInfo* def(size_t call) const;
  // Use record for (call, arg); zero-value UseFact for non-handle args.
  const UseFact& use(size_t call, size_t arg) const;
  // All defs, in producing-call order.
  const std::vector<DefInfo>& defs() const { return defs_; }
  // Total stale (after-close) uses in the program.
  size_t stale_use_count() const { return stale_uses_; }

  // Scalar fact for (call, arg) of `prog` (stateless: derived from the
  // description and arg kind alone, so it needs no stored state).
  static ScalarFact scalar_fact(const dsl::CallDesc& d, size_t arg);

 private:
  std::vector<DefInfo> defs_;           // dense, producing calls only
  std::vector<int32_t> def_index_;      // call -> index into defs_, or -1
  std::vector<std::vector<UseFact>> uses_;  // [call][arg]
  size_t stale_uses_ = 0;
};

// Index of statically declared transition guards across a device's
// drivers: (call name, param name) -> the pinned hint values. Built once
// per engine at setup; lookups are cold-path (mutation bias and reports).
class GuardIndex {
 public:
  void add_driver(const kernel::Driver& drv);

  bool empty() const { return index_.empty(); }
  size_t size() const { return index_.size(); }

  // True when some declared transition pins (call, param).
  bool guard_relevant(std::string_view call, std::string_view param) const;
  // The pinned values for (call, param), ascending; empty when none.
  const std::vector<uint64_t>& hint_values(std::string_view call,
                                           std::string_view param) const;

  // Folds dataflow + guard facts into the mutator-facing classification.
  ArgClass classify_arg(const dsl::CallDesc& d, size_t arg) const;

 private:
  std::map<std::pair<std::string, std::string>, std::vector<uint64_t>> index_;
};

}  // namespace df::analysis
