#include "core/gen/minimize.h"

namespace df::core {

dsl::Program minimize(const dsl::Program& prog, const StillInteresting& oracle,
                      size_t budget, MinimizeStats* stats,
                      obs::Histogram* latency,
                      const analysis::ProgramLint* lint) {
  obs::ScopedTimer timer(latency);
  MinimizeStats local;
  MinimizeStats& st = stats != nullptr ? *stats : local;
  dsl::Program best = prog;

  // Phase 1: drop whole calls, back to front (later calls are more likely
  // to be incidental suffixes).
  for (size_t idx = best.calls.size(); idx-- > 0;) {
    if (best.calls.size() <= 1 || st.oracle_calls >= budget) break;
    dsl::Program cand = best;
    cand.remove_call(idx);
    if (lint != nullptr && !lint->clean(cand)) {
      // remove_call's structural repair can rebind a downstream use to a
      // closed fd (or orphan a ref entirely); fix semantically, and skip
      // the candidate when no repair restores validity.
      lint->repair(cand);
      if (!lint->clean(cand)) {
        ++st.lint_skipped;
        continue;
      }
      ++st.lint_repaired;
    }
    ++st.oracle_calls;
    if (oracle(cand)) {
      best = std::move(cand);
      ++st.calls_removed;
    }
  }

  // Phase 2: simplify arguments of surviving calls. Index-based access
  // throughout: `best` is reassigned on every accepted simplification.
  for (size_t i = 0; i < best.calls.size(); ++i) {
    if (best.calls[i].desc == nullptr) continue;
    const size_t nargs = best.calls[i].args.size();
    for (size_t a = 0; a < nargs; ++a) {
      if (a >= best.calls[i].desc->params.size()) break;
      if (st.oracle_calls >= budget) return best;
      const dsl::ParamDesc& p = best.calls[i].desc->params[a];
      const dsl::Value& v = best.calls[i].args[a];
      dsl::Program cand = best;
      bool attempted = false;
      switch (p.kind) {
        case dsl::ArgKind::kU8:
        case dsl::ArgKind::kU16:
        case dsl::ArgKind::kU32:
        case dsl::ArgKind::kU64:
          if (v.scalar != p.min) {
            cand.calls[i].args[a].scalar = p.min;
            attempted = true;
          }
          break;
        case dsl::ArgKind::kBlob:
        case dsl::ArgKind::kString:
          if (!v.bytes.empty()) {
            cand.calls[i].args[a].bytes.clear();
            attempted = true;
          }
          break;
        default:
          break;
      }
      if (!attempted) continue;
      ++st.oracle_calls;
      if (oracle(cand)) {
        best = std::move(cand);
        ++st.args_simplified;
      }
    }
  }
  return best;
}

}  // namespace df::core
