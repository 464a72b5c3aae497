#include "core/feedback/coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>

namespace df::core {
namespace {

TEST(FeatureSet, AddNewReturnsOnlyFresh) {
  FeatureSet fs;
  const auto first = fs.add_new({1, 2, 3});
  EXPECT_EQ(first.size(), 3u);
  const auto second = fs.add_new({2, 3, 4});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 4u);
  EXPECT_EQ(fs.size(), 4u);
}

TEST(FeatureSet, SeparatesKernelAndHalCounts) {
  FeatureSet fs;
  const uint64_t kern = kernel::cov_feature(3, 7);
  const uint64_t hal = kernel::cov_feature(trace::kHalCovDriverId, 7);
  fs.add_new({kern, hal});
  EXPECT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs.kernel_size(), 1u);
  EXPECT_EQ(fs.hal_size(), 1u);
}

TEST(FeatureSet, Contains) {
  FeatureSet fs;
  fs.add_new({42});
  EXPECT_TRUE(fs.contains(42));
  EXPECT_FALSE(fs.contains(43));
}

TEST(FeatureSet, DuplicateInSameBatchCountedOnce) {
  FeatureSet fs;
  const auto fresh = fs.add_new({5, 5, 5});
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fs.size(), 1u);
}

Seed make_seed(std::string name, size_t feats, uint64_t exec = 0) {
  Seed s;
  dsl::Call c;
  static dsl::CallTable table;  // descs must outlive programs
  dsl::CallDesc d;
  d.name = std::move(name);
  c.desc = table.add(std::move(d));
  s.prog.calls.push_back(c);
  s.new_features = feats;
  s.exec_index = exec;
  return s;
}

TEST(Corpus, DedupsByProgramHash) {
  Corpus c;
  EXPECT_TRUE(c.add(make_seed("a", 1)));
  EXPECT_FALSE(c.add(make_seed("a", 5)));
  EXPECT_TRUE(c.add(make_seed("b", 1)));
  EXPECT_EQ(c.size(), 2u);
}

TEST(Corpus, PickPrefersRichSeeds) {
  Corpus c;
  c.add(make_seed("poor", 1));
  c.add(make_seed("rich", 200));
  util::Rng rng(1);
  int rich = 0;
  for (int i = 0; i < 2000; ++i) {
    if (c.pick(rng).new_features == 200) ++rich;
  }
  EXPECT_GT(rich, 1100);
}

TEST(Corpus, PickFatiguesOverusedSeeds) {
  Corpus c;
  c.add(make_seed("a", 8));
  c.add(make_seed("b", 8));
  util::Rng rng(2);
  // Burn picks; fatigue should spread selection across both.
  int a_picks = 0;
  for (int i = 0; i < 1000; ++i) {
    if (c.pick(rng).new_features == 8 && &c.pick(rng) != nullptr) {
    }
  }
  // Count hits recorded on each seed: roughly balanced.
  const auto& s0 = c.at(0);
  const auto& s1 = c.at(1);
  const double ratio =
      static_cast<double>(s0.hits + 1) / static_cast<double>(s1.hits + 1);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  (void)a_picks;
}

TEST(Corpus, TracksPickCount) {
  Corpus c;
  c.add(make_seed("a", 1));
  util::Rng rng(3);
  c.pick(rng);
  c.pick(rng);
  EXPECT_EQ(c.total_picks(), 2u);
  EXPECT_EQ(c.at(0).hits, 2u);
}

// The selection rule written out as it was before energies were cached:
// every pick rebuilds the whole energy vector, in insertion order, from each
// seed's new_features and hits.
struct ReferenceCorpus {
  struct Entry {
    uint64_t hash = 0;
    size_t new_features = 0;
    uint64_t hits = 0;
  };
  std::vector<Entry> seeds;

  uint64_t pick(util::Rng& rng) {
    std::vector<double> w;
    for (const Entry& e : seeds) {
      w.push_back(std::log2(2.0 + static_cast<double>(e.new_features)) /
                  (1.0 + 0.1 * static_cast<double>(e.hits)));
    }
    Entry& chosen = seeds[rng.weighted(w)];
    ++chosen.hits;
    return chosen.hash;
  }
};

bool same_state(const util::Rng& a, const util::Rng& b) {
  const util::RngState sa = a.state();
  const util::RngState sb = b.state();
  return std::equal(std::begin(sa.s), std::end(sa.s), std::begin(sb.s));
}

TEST(Corpus, CachedEnergyPickMatchesRecomputedReference) {
  dsl::CallTable table;
  std::vector<const dsl::CallDesc*> descs;
  for (int i = 0; i < 24; ++i) {
    dsl::CallDesc d;
    d.name = "ref" + std::to_string(i);
    descs.push_back(table.add(std::move(d)));
  }
  // Programs of 1-3 calls: short ones are often statically subsumed by
  // longer ones, so the distill below has something to drop.
  util::Rng gen(7);
  auto random_seed = [&] {
    Seed s;
    for (uint64_t k = 0, n = 1 + gen.below(3); k < n; ++k) {
      dsl::Call c;
      c.desc = descs[gen.below(descs.size())];
      s.prog.calls.push_back(c);
    }
    s.new_features = gen.below(64);
    return s;
  };

  Corpus corpus;
  ReferenceCorpus ref;
  auto add_both = [&](Seed s) {
    const ReferenceCorpus::Entry e{dsl::program_hash(s.prog), s.new_features,
                                   s.hits};
    if (corpus.add(std::move(s))) ref.seeds.push_back(e);
  };
  util::Rng cached_rng(11), ref_rng(11);
  auto pick_both = [&](Corpus& c, int n) -> ::testing::AssertionResult {
    for (int i = 0; i < n; ++i) {
      const uint64_t got = c.pick(cached_rng).hash;
      const uint64_t want = ref.pick(ref_rng);
      if (got != want) {
        return ::testing::AssertionFailure()
               << "pick " << i << " chose " << got << ", reference " << want;
      }
    }
    if (!same_state(cached_rng, ref_rng)) {
      return ::testing::AssertionFailure() << "rng streams diverged";
    }
    return ::testing::AssertionSuccess();
  };

  // 1. Picks interleaved with adds.
  for (int round = 0; round < 200; ++round) {
    add_both(random_seed());
    ASSERT_TRUE(pick_both(corpus, 60));
  }
  ASSERT_EQ(corpus.size(), ref.seeds.size());

  // 2. A non-dry static-only distill compacts the corpus; picks and adds
  // continue on the survivors.
  const DistillStats stats = corpus.distill(Corpus::FootprintFn{});
  ASSERT_LT(stats.after, stats.before);
  std::erase_if(ref.seeds, [&](const ReferenceCorpus::Entry& e) {
    return corpus.find_by_hash(e.hash) == nullptr;
  });
  ASSERT_EQ(corpus.size(), ref.seeds.size());
  for (int round = 0; round < 100; ++round) {
    add_both(random_seed());
    ASSERT_TRUE(pick_both(corpus, 100));
  }

  // 3. A corpus rebuilt the way checkpoint restore does it: every seed
  // re-added in insertion order with its restored hit count.
  Corpus restored;
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(restored.add(corpus.at(i)));
  }
  restored.restore_picks(corpus.total_picks());
  ASSERT_EQ(restored.size(), ref.seeds.size());
  ASSERT_TRUE(pick_both(restored, 10000));
  EXPECT_EQ(restored.total_picks(), 200u * 60 + 100u * 100 + 10000);
}

}  // namespace
}  // namespace df::core
