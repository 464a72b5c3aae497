#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>

namespace df::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowZeroBoundIsZero) {
  Rng r(7);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo = lo || v == -3;
    hi = hi || v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0, 10));
    EXPECT_TRUE(r.chance(10, 10));
  }
}

TEST(Rng, ProbExtremes) {
  Rng r(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.prob(0.0));
    EXPECT_TRUE(r.prob(1.0));
    EXPECT_FALSE(r.prob(-1.0));
    EXPECT_TRUE(r.prob(2.0));
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng r(19);
  std::vector<double> w = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[r.weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Rng, WeightedEmptyAndZero) {
  Rng r(23);
  EXPECT_EQ(r.weighted({}), 0u);
  // All-zero weights degrade to uniform choice over indices.
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.weighted({0.0, 0.0, 0.0}));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, WeightedIgnoresNegative) {
  Rng r(29);
  std::vector<double> w = {-5.0, 1.0};
  for (int i = 0; i < 500; ++i) EXPECT_EQ(r.weighted(w), 1u);
}

bool same_state(const Rng& a, const Rng& b) {
  const RngState sa = a.state();
  const RngState sb = b.state();
  return std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s));
}

// A caller that caches weight_total() must draw exactly what the summing
// overload draws: same index, same stream position afterwards.
TEST(Rng, WeightedWithTotalMatchesWeighted) {
  Rng gen(47);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<double> w(gen.below(24));
    for (double& x : w) {
      const uint64_t kind = gen.below(4);
      if (kind == 0) {
        x = 0.0;
      } else if (kind == 1) {
        x = -gen.uniform() * 8.0;
      } else if (kind == 2) {
        x = gen.uniform() * 1e-3;
      } else {
        x = gen.uniform() * 16.0;
      }
    }
    const uint64_t seed = gen.next();
    Rng summed(seed), cached(seed);
    const double total = weight_total(w);
    for (int draw = 0; draw < 4; ++draw) {
      ASSERT_EQ(summed.weighted(w), cached.weighted(w, total))
          << "trial " << trial << " draw " << draw;
    }
    ASSERT_TRUE(same_state(summed, cached)) << "trial " << trial;
  }
}

std::vector<double> running_sums(const std::vector<double>& w) {
  std::vector<double> prefix = {0.0};
  for (double x : w) prefix.push_back(prefix.back() + (x > 0 ? x : 0));
  return prefix;
}

// The running-sums overload is the same draw again: same index, same
// stream position, on the weight shapes above.
TEST(Rng, WeightedWithPrefixMatchesWeighted) {
  Rng gen(53);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<double> w(gen.below(300));
    for (double& x : w) {
      const uint64_t kind = gen.below(4);
      x = kind == 0   ? 0.0
          : kind == 1 ? -gen.uniform() * 8.0
          : kind == 2 ? gen.uniform() * 1e-3
                      : 1.0 / (1.0 + static_cast<double>(gen.below(7)));
    }
    const uint64_t seed = gen.next();
    Rng scanned(seed), searched(seed);
    const std::vector<double> prefix = running_sums(w);
    for (int draw = 0; draw < 4; ++draw) {
      ASSERT_EQ(scanned.weighted(w), searched.weighted(w, prefix))
          << "trial " << trial << " draw " << draw;
    }
    ASSERT_TRUE(same_state(scanned, searched)) << "trial " << trial;
  }
}

// Picks on, and one ulp either side of, every boundary: the cases where
// the subtracting scan and the sums can round apart, so the search must
// hand them to the scan.
TEST(Rng, WeightedSearchMatchesScanAtBoundaries) {
  Rng gen(59);
  size_t picks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> w(1 + gen.below(64));
    for (double& x : w) x = 0.1 * static_cast<double>(1 + gen.below(9));
    const std::vector<double> prefix = running_sums(w);
    for (size_t k = 0; k + 1 < prefix.size(); ++k) {
      for (double pick : {prefix[k], std::nextafter(prefix[k], 0.0),
                          std::nextafter(prefix[k], prefix.back())}) {
        if (pick < 0 || pick >= prefix.back()) continue;
        ASSERT_EQ(weighted_search(w, prefix, pick), weighted_scan(w, pick))
            << "trial " << trial << " boundary " << k;
        ++picks;
      }
    }
  }
  EXPECT_GT(picks, 1000u);
}

TEST(Rng, WeightTotalSkipsNonPositive) {
  EXPECT_EQ(weight_total({}), 0.0);
  EXPECT_EQ(weight_total({-3.0, 0.0, -1.0}), 0.0);
  EXPECT_EQ(weight_total({1.5, -2.0, 0.0, 2.5}), 4.0);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(31);
  auto p = r.permutation(50);
  std::sort(p.begin(), p.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, PermutationShuffles) {
  Rng r(37);
  const auto a = r.permutation(50);
  const auto b = r.permutation(50);
  EXPECT_NE(a, b);
}

TEST(Rng, ForkIndependentStreams) {
  Rng a(41);
  Rng child = a.fork();
  // The child stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

// Statistical sanity: bit balance of the generator output.
TEST(Rng, BitBalance) {
  Rng r(43);
  int ones = 0;
  constexpr int kSamples = 2000;
  for (int i = 0; i < kSamples; ++i) {
    ones += __builtin_popcountll(r.next());
  }
  const double frac = static_cast<double>(ones) / (64.0 * kSamples);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

}  // namespace
}  // namespace df::util
