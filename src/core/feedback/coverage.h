// Cross-boundary execution state feedback (paper §IV-D).
//
// One uniform 64-bit feature space holds both kinds of signal:
//  * kcov kernel edges — (driver_id << 48) | block,
//  * HAL directional syscall coverage — pseudo-driver 0xffff features from
//    trace::DirectionalTracer.
// The FeatureSet and Corpus below therefore never distinguish the two: the
// paper's "analysis logic for both types of coverage remains the same".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "dsl/prog.h"
#include "obs/analytics.h"
#include "trace/syscall_trace.h"
#include "util/rng.h"
#include "util/u64_set.h"

namespace df::core {

// Cumulative feature set on the feedback hot path: every execution's
// collected features funnel through add_new(), so the store is the flat
// open-addressing util::U64Set rather than std::unordered_set (see
// BM_FeatureSetAddNew in bench_micro.cc for the measured difference).
class FeatureSet {
 public:
  // Inserts all features; returns the ones that were new.
  std::vector<uint64_t> add_new(const std::vector<uint64_t>& features);
  bool contains(uint64_t f) const { return set_.contains(f); }

  size_t size() const { return set_.size(); }
  // Kernel-only count (excludes HAL directional features) — the paper's
  // "kernel coverage" metric for Figs. 4/5 and Table III.
  size_t kernel_size() const { return kernel_count_; }
  size_t hal_size() const { return set_.size() - kernel_count_; }
  // Kernel features per driver id (kernel::cov_driver; 0 is the core
  // syscall path) — the per-driver split of Fig. 4.
  std::map<uint16_t, size_t> kernel_per_driver() const;

  // Checkpoint support: every stored feature, ascending. Feeding the result
  // back through add_new() reproduces this set exactly (the underlying
  // U64Set layout is value-dependent, not insertion-order-dependent).
  std::vector<uint64_t> values() const { return set_.values(); }

 private:
  util::U64Set set_;
  size_t kernel_count_ = 0;
};

struct Seed {
  dsl::Program prog;
  size_t new_features = 0;   // features this seed contributed when added
  uint64_t exec_index = 0;   // when it was found (lineage and export only)
  uint64_t hits = 0;         // times picked for mutation
  // --- lineage (DESIGN.md §11) --------------------------------------------
  uint64_t hash = 0;         // dsl::program_hash(prog); filled by Corpus::add
  uint64_t parent_hash = 0;  // hash of the corpus seed it mutated (0 = root)
  uint32_t depth = 0;        // generations from a root; derived by add()
  obs::ProgramOrigin origin = obs::ProgramOrigin::kGenerate;
};

// Outcome of one Corpus::distill() run (exported to BENCH_*.json and
// /status as the "distill" block).
struct DistillStats {
  size_t before = 0;           // seeds before distillation
  size_t after = 0;            // seeds kept
  size_t dropped_static = 0;   // statically subsumed by a single kept seed
  size_t dropped_covered = 0;  // replay footprint covered by the kept union
  size_t footprint_union = 0;  // distinct replay features+transitions (0 =
                               // static-only mode, no replay oracle given)
  bool verified = false;       // kept-set re-replay reproduced the union
                               // bit-identically (always false static-only)
  bool dry_run = false;

  double fraction_dropped() const {
    return before == 0
               ? 0.0
               : static_cast<double>(before - after) /
                     static_cast<double>(before);
  }
};

// Seed corpus with energy-weighted selection: feature-rich seeds are
// mutated more; over-fuzzed seeds fade. Every seed carries its lineage
// (parent edge, origin, generation depth) so campaigns can explain where
// coverage came from.
//
// Invariant: energies_[i] == energy(seeds_[i]) for every i, and prefix_
// holds their running sums in insertion order (energies are positive, so
// prefix_.back() == util::weight_total(energies_) bit for bit). A seed's
// energy changes only when pick() bumps its hits, so pick() recomputes that
// entry and the sums after it; the draw binary-searches the sums and is
// bit-identical to a scan over rebuilt energies (DESIGN.md §4).
class Corpus {
 public:
  // Adds a seed if its program hash is unseen. Returns true when added.
  // Fills seed.hash and derives seed.depth from the parent (parent edges
  // pointing outside the corpus make the seed a root).
  bool add(Seed seed);
  bool empty() const { return seeds_.empty(); }
  size_t size() const { return seeds_.size(); }

  // Energy-weighted pick; increments the seed's hit counter. Requires a
  // non-empty corpus.
  const Seed& pick(util::Rng& rng);
  const Seed& at(size_t i) const { return seeds_[i]; }
  const std::vector<Seed>& seeds() const { return seeds_; }

  // Lineage lookups. find_by_hash is a linear scan — adds are rare relative
  // to executions, and callers are on cold paths (crash triage, export).
  const Seed* find_by_hash(uint64_t hash) const;
  // Root-first derivation chain ending at the seed with `hash` (empty when
  // the hash is not in the corpus). Bounded by the recorded depths, so a
  // corrupted parent edge cannot loop.
  std::vector<obs::LineageLink> ancestor_chain(uint64_t hash) const;
  // Corpus-wide digest: depth histogram plus the `top_n` ancestors ranked
  // by subtree feature yield (deterministic tie-break on insertion order).
  obs::LineageSummary lineage_summary(size_t top_n = 5) const;

  // --- subsumption-based distillation (DESIGN.md §12) ----------------------
  // Replay oracle: the seed's dynamic coverage footprint (features plus
  // driver state-transition tokens), replayed on a scratch device so the
  // campaign is untouched. Must be deterministic per program.
  using FootprintFn =
      std::function<std::vector<uint64_t>(const dsl::Program&)>;

  // Drops semantically redundant seeds. Seeds are processed in a
  // deterministic greedy order (static canonical-footprint size descending,
  // insertion order as the tie-break) and a seed is dropped only when it
  // cannot contribute coverage the kept set does not already have:
  //  * with a `footprint` oracle, when its replayed footprint is a subset
  //    of the kept seeds' union — so union(kept) == union(all) and a full
  //    replay of the distilled corpus reproduces bit-identical coverage
  //    (re-verified by a second replay of the kept set; `verified`);
  //  * without one (static-only mode), only when a single kept seed's
  //    canonical footprint subsumes its own (analysis::subsumes).
  // `dry_run` computes the stats without erasing anything. Hashes of
  // dropped seeds stay registered, so re-encountering a distilled-away
  // program never re-adds it.
  DistillStats distill(const FootprintFn& footprint, bool dry_run = false);

  uint64_t total_picks() const { return picks_; }
  // Checkpoint support: restores the cumulative pick counter, so a resumed
  // run reports the same total_picks() as an uninterrupted one. energy()
  // does not read it.
  void restore_picks(uint64_t picks) { picks_ = picks; }

 private:
  static double energy(const Seed& s);
  // Appends `s`'s energy and the running sum through it.
  void push_energy(const Seed& s);

  std::vector<Seed> seeds_;
  std::vector<double> energies_;      // parallel to seeds_
  std::vector<double> prefix_ = {0};  // prefix_[i]: sum of energies_[0, i)
  util::U64Set hashes_;
  uint64_t picks_ = 0;
};

}  // namespace df::core
