#include "util/rng.h"

#include <algorithm>
#include <numeric>

namespace df::util {

namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (cannot occur from splitmix64, but be explicit).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::below(uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling to kill modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::range(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? next() : below(span));
}

bool Rng::chance(uint64_t num, uint64_t den) { return below(den) < num; }

bool Rng::prob(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double weight_total(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += (w > 0 ? w : 0);
  return total;
}

size_t Rng::weighted(const std::vector<double>& weights) {
  return weighted(weights, weight_total(weights));
}

size_t weighted_scan(const std::vector<double>& weights, double pick) {
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0 ? weights[i] : 0;
    if (pick < w) return i;
    pick -= w;
  }
  return weights.size() - 1;
}

size_t weighted_search(const std::vector<double>& weights,
                       const std::vector<double>& prefix, double pick) {
  // Entry j is the exact answer when pick < S(j+1) and, for j > 0,
  // pick >= S(j), with S the exact sums. The scan's remainder after k
  // subtractions and prefix[k] each sit within k * 2^-53 * total of their
  // exact values, so a pick at least `slack` (4x the combined bound) from
  // both neighbouring boundaries gets the scan's index; a closer one is
  // left to the scan. Sums are non-decreasing, so clearing the boundary
  // below j clears every earlier one too.
  const size_t n = weights.size();
  const double slack =
      static_cast<double>(n + 1) * prefix.back() * 0x1.0p-50;
  const size_t j = static_cast<size_t>(
      std::upper_bound(prefix.begin() + 1, prefix.end(), pick) -
      prefix.begin() - 1);
  if (j < n && prefix[j + 1] - pick > slack &&
      (j == 0 || pick - prefix[j] > slack)) {
    return j;
  }
  return weighted_scan(weights, pick);
}

size_t Rng::weighted(const std::vector<double>& weights, double total) {
  if (weights.empty()) return 0;
  if (total <= 0) return below(weights.size());
  return weighted_scan(weights, uniform() * total);
}

size_t Rng::weighted(const std::vector<double>& weights,
                     const std::vector<double>& prefix) {
  const double total = prefix.back();
  if (weights.empty() || total <= 0) return weighted(weights, total);
  return weighted_search(weights, prefix, uniform() * total);
}

std::vector<size_t> Rng::permutation(size_t n) {
  std::vector<size_t> p(n);
  std::iota(p.begin(), p.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[below(i)]);
  }
  return p;
}

Rng Rng::fork() { return Rng(next() ^ 0xa0761d6478bd642full); }

RngState Rng::state() const {
  RngState st;
  for (size_t i = 0; i < 4; ++i) st.s[i] = s_[i];
  return st;
}

void Rng::set_state(const RngState& st) {
  for (size_t i = 0; i < 4; ++i) s_[i] = st.s[i];
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

}  // namespace df::util
