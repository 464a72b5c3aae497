#include "core/feedback/coverage.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analysis/distill.h"

namespace df::core {

std::vector<uint64_t> FeatureSet::add_new(
    const std::vector<uint64_t>& features) {
  std::vector<uint64_t> fresh;
  for (uint64_t f : features) {
    if (set_.insert(f)) {
      fresh.push_back(f);
      if (!trace::is_hal_feature(f)) ++kernel_count_;
    }
  }
  return fresh;
}

std::map<uint16_t, size_t> FeatureSet::kernel_per_driver() const {
  std::map<uint16_t, size_t> out;
  for (uint64_t f : set_.values()) {
    if (!trace::is_hal_feature(f)) ++out[kernel::cov_driver(f)];
  }
  return out;
}

bool Corpus::add(Seed seed) {
  const uint64_t h = dsl::program_hash(seed.prog);
  if (!hashes_.insert(h)) return false;
  seed.hash = h;
  // Generation depth derives from the parent edge rather than being caller
  // supplied, so checkpoint restore (which replays adds in insertion order)
  // reproduces it exactly.
  if (seed.parent_hash != 0) {
    if (const Seed* parent = find_by_hash(seed.parent_hash);
        parent != nullptr) {
      seed.depth = parent->depth + 1;
    } else {
      seed.parent_hash = 0;  // parent never made the corpus: a root
    }
  }
  push_energy(seed);
  seeds_.push_back(std::move(seed));
  return true;
}

const Seed* Corpus::find_by_hash(uint64_t hash) const {
  if (hash == 0) return nullptr;
  for (const Seed& s : seeds_) {
    if (s.hash == hash) return &s;
  }
  return nullptr;
}

std::vector<obs::LineageLink> Corpus::ancestor_chain(uint64_t hash) const {
  std::vector<obs::LineageLink> chain;
  const Seed* s = find_by_hash(hash);
  while (s != nullptr) {
    obs::LineageLink link;
    link.hash = s->hash;
    link.origin = s->origin;
    link.exec_index = s->exec_index;
    link.depth = s->depth;
    chain.push_back(link);
    if (s->parent_hash == 0 || chain.size() > static_cast<size_t>(s->depth)) {
      break;  // root reached (or inconsistent edges: stop, never loop)
    }
    s = find_by_hash(s->parent_hash);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

obs::LineageSummary Corpus::lineage_summary(size_t top_n) const {
  obs::LineageSummary out;
  out.seeds = seeds_.size();
  // Root index by hash, in insertion order (the deterministic tie-break).
  std::vector<obs::AncestorYield> roots;
  std::vector<uint64_t> root_hashes;
  for (const Seed& s : seeds_) {
    out.max_depth = std::max<uint64_t>(out.max_depth, s.depth);
    if (s.depth >= out.depth_histogram.size()) {
      out.depth_histogram.resize(s.depth + 1, 0);
    }
    ++out.depth_histogram[s.depth];
    // Walk to the root, bounded by the recorded depth.
    const Seed* cur = &s;
    for (uint32_t hop = 0; hop < s.depth && cur->parent_hash != 0; ++hop) {
      const Seed* parent = find_by_hash(cur->parent_hash);
      if (parent == nullptr) break;
      cur = parent;
    }
    size_t idx = root_hashes.size();
    for (size_t i = 0; i < root_hashes.size(); ++i) {
      if (root_hashes[i] == cur->hash) {
        idx = i;
        break;
      }
    }
    if (idx == root_hashes.size()) {
      root_hashes.push_back(cur->hash);
      obs::AncestorYield a;
      a.hash = cur->hash;
      a.exec_index = cur->exec_index;
      roots.push_back(a);
    }
    ++roots[idx].descendants;  // counts the root itself as generation 0
    roots[idx].subtree_new_features += s.new_features;
  }
  out.roots = roots.size();
  std::stable_sort(roots.begin(), roots.end(),
                   [](const obs::AncestorYield& a,
                      const obs::AncestorYield& b) {
                     return a.subtree_new_features > b.subtree_new_features;
                   });
  if (roots.size() > top_n) roots.resize(top_n);
  out.top_ancestors = std::move(roots);
  return out;
}

DistillStats Corpus::distill(const FootprintFn& footprint, bool dry_run) {
  DistillStats stats;
  stats.before = seeds_.size();
  stats.dry_run = dry_run;
  const size_t n = seeds_.size();
  if (n == 0) {
    stats.after = 0;
    return stats;
  }

  // Static canonical footprints drive the greedy order; dynamic replay
  // footprints (when an oracle is given) are the coverage ground truth.
  std::vector<std::vector<uint64_t>> stat(n);
  std::vector<std::vector<uint64_t>> dyn(n);
  for (size_t i = 0; i < n; ++i) {
    stat[i] = analysis::static_footprint(seeds_[i].prog);
    if (footprint) {
      dyn[i] = footprint(seeds_[i].prog);
      std::sort(dyn[i].begin(), dyn[i].end());
      dyn[i].erase(std::unique(dyn[i].begin(), dyn[i].end()), dyn[i].end());
    }
  }
  // Largest canonical footprint first; insertion order breaks ties, so the
  // result is a pure function of corpus content.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return stat[a].size() > stat[b].size();
  });

  util::U64Set covered;
  std::vector<size_t> kept_idx;
  std::vector<bool> drop(n, false);
  for (const size_t i : order) {
    bool redundant = false;
    bool statically_subsumed = false;
    for (const size_t k : kept_idx) {
      if (analysis::subsumes(stat[i], stat[k])) {
        statically_subsumed = true;
        break;
      }
    }
    if (footprint) {
      redundant = std::all_of(dyn[i].begin(), dyn[i].end(), [&](uint64_t f) {
        return covered.contains(f);
      });
    } else {
      redundant = statically_subsumed;
    }
    if (redundant) {
      drop[i] = true;
      if (statically_subsumed) {
        ++stats.dropped_static;
      } else {
        ++stats.dropped_covered;
      }
    } else {
      kept_idx.push_back(i);
      for (const uint64_t f : dyn[i]) covered.insert(f);
    }
  }
  stats.after = n - stats.dropped_static - stats.dropped_covered;
  if (footprint) {
    stats.footprint_union = covered.size();
    // The hard contract, re-checked end to end: replaying the kept seeds a
    // second time must reproduce the full union bit-identically.
    util::U64Set replayed;
    for (const size_t k : kept_idx) {
      for (const uint64_t f : footprint(seeds_[k].prog)) replayed.insert(f);
    }
    const std::vector<uint64_t> union_values = covered.values();
    stats.verified =
        replayed.size() == covered.size() &&
        std::all_of(union_values.begin(), union_values.end(),
                    [&](uint64_t f) { return replayed.contains(f); });
  }

  if (!dry_run && stats.after < n) {
    std::vector<Seed> kept;
    kept.reserve(stats.after);
    for (size_t i = 0; i < n; ++i) {
      if (!drop[i]) kept.push_back(std::move(seeds_[i]));
    }
    seeds_ = std::move(kept);
    energies_.clear();
    prefix_.assign(1, 0.0);
    for (const Seed& s : seeds_) push_energy(s);
  }
  return stats;
}

double Corpus::energy(const Seed& s) {
  // Richer seeds carry more energy; repeated picking cools them down.
  const double richness = std::log2(2.0 + static_cast<double>(s.new_features));
  const double fatigue = 1.0 + 0.1 * static_cast<double>(s.hits);
  return richness / fatigue;
}

void Corpus::push_energy(const Seed& s) {
  energies_.push_back(energy(s));
  prefix_.push_back(prefix_.back() + energies_.back());
}

const Seed& Corpus::pick(util::Rng& rng) {
  ++picks_;
  const size_t i = rng.weighted(energies_, prefix_);
  Seed& chosen = seeds_[i];
  ++chosen.hits;
  energies_[i] = energy(chosen);
  // Only the sums from the picked entry on change; re-add them in the same
  // left-to-right order, so prefix_.back() stays weight_total(energies_).
  double sum = prefix_[i];
  for (size_t j = i; j < energies_.size(); ++j) {
    sum += energies_[j];
    prefix_[j + 1] = sum;
  }
  return chosen;
}

}  // namespace df::core
