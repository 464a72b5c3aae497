// Tests for the relation graph (§IV-C) including the Eq. (1) invariants.
#include "core/relation/graph.h"

#include <gtest/gtest.h>

namespace df::core {
namespace {

class RelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 5; ++i) {
      dsl::CallDesc d;
      d.name = "call" + std::to_string(i);
      descs_.push_back(table_.add(std::move(d)));
      graph_.add_vertex(descs_.back(), 0.2 * (i + 1));
    }
  }

  dsl::CallTable table_;
  std::vector<const dsl::CallDesc*> descs_;
  RelationGraph graph_;
  util::Rng rng_{1};
};

TEST_F(RelationTest, StartsWithNoEdges) {
  EXPECT_EQ(graph_.vertex_count(), 5u);
  EXPECT_EQ(graph_.edge_count(), 0u);
  EXPECT_EQ(graph_.edge_weight(descs_[0], descs_[1]), 0.0);
}

TEST_F(RelationTest, FirstRelationGetsFullWeight) {
  graph_.observe_relation(descs_[0], descs_[1]);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[0], descs_[1]), 1.0);
  EXPECT_EQ(graph_.edge_count(), 1u);
}

TEST_F(RelationTest, Eq1HalvesCompetitorsAndConservesMass) {
  graph_.observe_relation(descs_[0], descs_[2]);
  graph_.observe_relation(descs_[1], descs_[2]);
  // Old edge halved to 0.5; new edge = 1 - 0.5 = 0.5.
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[0], descs_[2]), 0.5);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[1], descs_[2]), 0.5);
  EXPECT_DOUBLE_EQ(graph_.in_weight_sum(descs_[2]), 1.0);

  graph_.observe_relation(descs_[3], descs_[2]);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[0], descs_[2]), 0.25);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[1], descs_[2]), 0.25);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[3], descs_[2]), 0.5);
  EXPECT_DOUBLE_EQ(graph_.in_weight_sum(descs_[2]), 1.0);
}

TEST_F(RelationTest, ReobservingRefreshesConfidence) {
  graph_.observe_relation(descs_[0], descs_[2]);
  graph_.observe_relation(descs_[1], descs_[2]);
  graph_.observe_relation(descs_[0], descs_[2]);  // again
  // b=2: edge from 1 halved to 0.25; edge from 0 becomes 0.75.
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[0], descs_[2]), 0.75);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[1], descs_[2]), 0.25);
  EXPECT_EQ(graph_.edge_count(), 2u);  // no duplicate edge
}

TEST_F(RelationTest, SelfAndUnknownRelationsIgnored) {
  graph_.observe_relation(descs_[0], descs_[0]);
  graph_.observe_relation(descs_[0], nullptr);
  dsl::CallDesc foreign;
  foreign.name = "foreign";
  graph_.observe_relation(descs_[0], &foreign);
  EXPECT_EQ(graph_.edge_count(), 0u);
}

TEST_F(RelationTest, DecayShrinksAndPrunes) {
  graph_.observe_relation(descs_[0], descs_[1]);
  graph_.decay(0.5);
  EXPECT_DOUBLE_EQ(graph_.edge_weight(descs_[0], descs_[1]), 0.5);
  for (int i = 0; i < 40; ++i) graph_.decay(0.5);
  EXPECT_EQ(graph_.edge_count(), 0u);  // pruned below epsilon
}

TEST_F(RelationTest, DecayThenRelearnRestoresMass) {
  graph_.observe_relation(descs_[0], descs_[1]);
  graph_.decay(0.5);
  graph_.observe_relation(descs_[2], descs_[1]);
  // 0.25 (halved decayed) + 0.75 (new) = 1.
  EXPECT_DOUBLE_EQ(graph_.in_weight_sum(descs_[1]), 1.0);
}

TEST_F(RelationTest, PickBaseFollowsVertexWeights) {
  // descs_[4] has weight 1.0, descs_[0] has 0.2.
  int heavy = 0, light = 0;
  for (int i = 0; i < 5000; ++i) {
    const dsl::CallDesc* c = graph_.pick_base(rng_);
    if (c == descs_[4]) ++heavy;
    if (c == descs_[0]) ++light;
  }
  EXPECT_GT(heavy, light * 2);
}

// pick_base draws against a cached weight total; it must stay the draw of
// a fresh weights vector through appends and re-weights of a vertex.
TEST_F(RelationTest, PickBaseMatchesDrawOverCurrentWeights) {
  auto expect_same_draws = [&] {
    std::vector<double> w;
    for (const auto* d : descs_) w.push_back(graph_.vertex_weight(d));
    util::Rng rng(17), ref(17);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(graph_.pick_base(rng), descs_[ref.weighted(w)]);
    }
  };
  expect_same_draws();
  const uint64_t epoch = graph_.vertex_epoch();
  graph_.add_vertex(descs_[2], 3.0);  // re-weight an existing vertex
  EXPECT_GT(graph_.vertex_epoch(), epoch);
  expect_same_draws();
  dsl::CallDesc d;
  d.name = "late";
  descs_.push_back(table_.add(std::move(d)));
  graph_.add_vertex(descs_.back(), 0.7);  // append
  expect_same_draws();
}

TEST_F(RelationTest, PickBaseEmptyGraph) {
  RelationGraph empty;
  EXPECT_EQ(empty.pick_base(rng_), nullptr);
}

TEST_F(RelationTest, PickNextStopsWithoutEdges) {
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(graph_.pick_next(descs_[0], rng_), nullptr);
  }
}

TEST_F(RelationTest, PickNextFollowsEdgesMostly) {
  graph_.observe_relation(descs_[0], descs_[1]);
  int followed = 0, stopped = 0;
  for (int i = 0; i < 2000; ++i) {
    const dsl::CallDesc* n = graph_.pick_next(descs_[0], rng_);
    if (n == descs_[1]) ++followed;
    if (n == nullptr) ++stopped;
  }
  EXPECT_GT(followed, 1000);  // weight 1.0 vs stop floor 0.15
  EXPECT_GT(stopped, 50);     // the stop floor keeps walks finite
}

TEST_F(RelationTest, VertexWeightFloor) {
  dsl::CallDesc d;
  d.name = "tiny";
  const dsl::CallDesc* tiny = table_.add(std::move(d));
  graph_.add_vertex(tiny, 0.0);
  EXPECT_GT(graph_.vertex_weight(tiny), 0.0);
}

TEST_F(RelationTest, InWeightInvariantUnderRandomOps) {
  util::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const auto a = rng.below(descs_.size());
    const auto b = rng.below(descs_.size());
    graph_.observe_relation(descs_[a], descs_[b]);
    if (rng.chance(1, 10)) graph_.decay(0.9);
    for (const auto* v : descs_) {
      EXPECT_LE(graph_.in_weight_sum(v), 1.0 + 1e-9);
    }
  }
}

}  // namespace
}  // namespace df::core
