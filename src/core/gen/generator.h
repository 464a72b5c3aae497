// Kernel-user relational payload generation (paper §IV-C).
//
// Programs are built by (1) picking a *base invocation* weighted by vertex
// weight, (2) walking the relation graph edge-probabilistically to extend
// the sequence, (3) inserting *producer calls* as prefixes for unresolved
// resource arguments (fds, HAL handles, kernel ids), and (4) instantiating
// arguments by syntax-driven randomization or historical payload mutation.
//
// Ablations map onto the config: use_relations=false gives DF-NoRel's
// random dependency generation; ioctl_only=true gives DROIDFUZZ-D.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/semantic.h"
#include "core/feedback/coverage.h"
#include "core/relation/graph.h"
#include "dsl/descr.h"
#include "dsl/prog.h"
#include "obs/analytics.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace df::core {

struct GenConfig {
  size_t max_calls = 12;          // walk length cap (before producer insertion)
  size_t max_total_calls = 24;    // hard cap after producer insertion
  size_t producer_depth = 6;      // recursion budget for producer chains
  bool use_relations = true;      // false => DF-NoRel
  bool use_hal = true;            // false => kernel-syscall-only generation
  bool ioctl_only = false;        // true  => DROIDFUZZ-D (Fig. 5)
  unsigned mutate_percent = 60;   // corpus mutation vs fresh generation
  double random_continue = 0.45;  // continuation prob. when no edge fires
  double related_bias = 0.5;      // resource-aware call-choice probability
  // Dataflow-targeted mutation: when a GuardIndex is attached (see
  // set_guard_index), the arg-mutate operator prefers guard-relevant
  // arguments — those the drivers' declared_transitions() guards actually
  // branch on — and sometimes pins them to a declared hint value. false
  // restores the uniform arg choice (baselines opt out so their RNG
  // streams are untouched).
  bool dataflow_bias = true;
};

class Generator {
 public:
  Generator(const dsl::CallTable& table, RelationGraph& rel, Corpus& corpus,
            util::Rng& rng, GenConfig cfg);

  // One candidate program plus its attribution tag: the origin (fresh
  // generation or the last mutation operator applied) and, for mutations,
  // the hash of the corpus seed it derives from. Collecting the tag draws
  // no extra randomness — next_candidate() is byte-for-byte the historical
  // next() with bookkeeping on the side.
  struct Candidate {
    dsl::Program prog;
    obs::ProgramOrigin origin = obs::ProgramOrigin::kGenerate;
    uint64_t parent_hash = 0;  // 0 = no corpus parent
  };
  Candidate next_candidate();

  // One input payload: historical mutation or fresh relational generation.
  dsl::Program next() { return next_candidate().prog; }

  dsl::Program generate_fresh();
  // Mutates `seed`; when `origin` is non-null it receives the tag of the
  // last operator applied.
  dsl::Program mutate(const dsl::Program& seed,
                      obs::ProgramOrigin* origin = nullptr);

  // Inserts producer calls for unresolved handle args (public: the
  // minimizer and tests reuse it).
  void resolve_producers(dsl::Program& prog);

  // Semantic lint gate for next(): candidates failing analysis are
  // repaired, and unrepairable ones discarded and regenerated (bounded
  // retries). nullptr (the default) disables the gate. The counters (may
  // be null) record discarded / repaired candidates as analysis.rejected
  // and analysis.repaired.
  void set_lint(const analysis::ProgramLint* lint, obs::Counter* rejected,
                obs::Counter* repaired);

  // Attaches the guard index that drives dataflow-targeted mutation.
  // nullptr (the default) disables the bias; extra randomness is drawn
  // only while an index is attached, so detached generators keep their
  // historical RNG streams byte-for-byte.
  void set_guard_index(const analysis::GuardIndex* guards) {
    guards_ = guards;
  }

  const GenConfig& config() const { return cfg_; }

 private:
  bool allowed(const dsl::CallDesc* d) const;
  // Rebuilds every cached draw table when the call table grew or the
  // relation graph's vertex weights changed since the last build.
  void refresh_draw_tables();
  const dsl::CallDesc* random_allowed_call();
  // Resource-aware choice (syzkaller-style): with probability
  // `related_bias`, prefer calls that consume a resource type some call of
  // `prog` produces — this is what lets multi-call protocols on one handle
  // (configure -> start -> transcode) assemble incrementally.
  const dsl::CallDesc* pick_related_or_random(const dsl::Program& prog);
  // Positions in allowed_ of the calls consuming `producer`'s resource
  // type, ascending; built on first use.
  const std::vector<size_t>& consumers_of(const dsl::CallDesc* producer);
  const dsl::CallDesc* choose_producer(std::string_view type);
  dsl::Call instantiate(const dsl::CallDesc* d);
  // Applies one mutation operator; returns its origin tag.
  obs::ProgramOrigin mutate_once(dsl::Program& prog);

  const dsl::CallTable& table_;
  RelationGraph& rel_;
  Corpus& corpus_;
  util::Rng& rng_;
  GenConfig cfg_;
  // Draw tables: a call list, its weights and their util::weight_total,
  // reused by every draw until refresh_draw_tables() rebuilds them. Draws
  // from a table are bit-identical to rebuilding its weights per draw.
  struct DrawTable {
    std::vector<const dsl::CallDesc*> calls;
    std::vector<double> weights;
    double total = 0;
  };
  size_t tables_size_ = 0;
  uint64_t tables_epoch_ = 0;
  // Allowed calls in table order, weighted by vertex weight.
  DrawTable allowed_;
  // Allowed producers per handle type, weighted by description weight;
  // filled lazily by choose_producer().
  std::map<std::string, DrawTable, std::less<>> producer_tables_;
  // consumers_of() results, per producing description.
  std::unordered_map<const dsl::CallDesc*, std::vector<size_t>> consumers_;
  const analysis::ProgramLint* lint_ = nullptr;
  const analysis::GuardIndex* guards_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_repaired_ = nullptr;
};

}  // namespace df::core
