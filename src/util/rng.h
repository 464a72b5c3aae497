// Deterministic random number generation for DroidFuzz.
//
// Every stochastic component (generators, mutators, schedulers, simulated
// devices) draws from an explicitly seeded Rng so that entire fuzzing
// campaigns replay bit-for-bit from a single 64-bit seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace df::util {

// Sum of the positive entries of `weights`, in index order: the total that
// Rng::weighted(weights) draws against. The order is part of the contract,
// since a different summation order can round differently and move a draw.
double weight_total(const std::vector<double>& weights);

// The index Rng::weighted selects once its draw is scaled to `pick` in
// [0, total): the first entry the running remainder falls below, found by
// subtracting each positive weight in turn.
size_t weighted_scan(const std::vector<double>& weights, double pick);
// The same index from running sums kept next to the weights: prefix[i] is
// weight_total of weights[0, i), summed left to right (so prefix.size() ==
// weights.size() + 1 and prefix.back() is the total). A binary search finds
// the boundary; a pick within rounding distance of one goes to
// weighted_scan, so the answer is always the scan's.
size_t weighted_search(const std::vector<double>& weights,
                       const std::vector<double>& prefix, double pick);

// Raw xoshiro256** state, exposed so campaign checkpoints can persist and
// restore a stream mid-sequence (core/fuzz/checkpoint.h).
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
};

// xoshiro256** seeded via splitmix64. Small, fast, and good enough
// statistical quality for fuzzing workloads; not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Uniform 64-bit value.
  uint64_t next();

  // Uniform integer in [0, bound). bound == 0 returns 0.
  uint64_t below(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t range(int64_t lo, int64_t hi);

  // True with probability num/den. Requires den > 0.
  bool chance(uint64_t num, uint64_t den);

  // True with probability p (clamped to [0,1]).
  bool prob(double p);

  // Uniform double in [0, 1).
  double uniform();

  // Index into a discrete distribution proportional to `weights`.
  // All-zero or empty weights fall back to uniform choice (or 0 if empty).
  // Negative weights count as zero.
  size_t weighted(const std::vector<double>& weights);
  // The same draw for a caller that keeps `total` == weight_total(weights)
  // cached next to its weights: skips the summing scan, nothing else.
  size_t weighted(const std::vector<double>& weights, double total);
  // The same draw again for a caller that keeps running sums (see
  // weighted_search): logarithmic instead of a scan.
  size_t weighted(const std::vector<double>& weights,
                  const std::vector<double>& prefix);

  // Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<size_t> permutation(size_t n);

  // Derive an independent child stream (e.g. one per device/engine).
  Rng fork();

  // Checkpoint support: capture / restore the generator state verbatim.
  // A restored Rng continues the original stream exactly.
  RngState state() const;
  void set_state(const RngState& st);

 private:
  uint64_t s_[4];
};

}  // namespace df::util
