// Kernel-user relation graph G_rel = (V, E) (paper §IV-C).
//
// Vertices are every syscall and HAL interface description, each carrying a
// fixed weight w in (0,1) — the interface ranking — which is the probability
// mass used to pick the *base invocation* during generation. Edges are
// directed and weighted; direction encodes a perceived dependency a -> b
// ("b is meaningful after a"), weight encodes confidence.
//
// Learning rule (Eq. 1): when a minimized program shows adjacent calls
// a -> b, competing in-edges (x, b), x != a are halved, and
//     w(a,b) = 1 - sum_{x != a} w(x,b) / 2
// which conserves unit in-weight mass per vertex. Periodic multiplicative
// decay keeps the fuzzer from locking into a local optimum.
//
// All internal state is ordered by vertex *insertion index* (never by
// pointer value), so campaigns replay bit-for-bit from a seed.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "dsl/descr.h"
#include "util/rng.h"

namespace df::core {

class RelationGraph {
 public:
  // Vertex weights are clamped to a small positive floor so that every call
  // remains reachable as a base invocation.
  void add_vertex(const dsl::CallDesc* call, double weight);
  bool has_vertex(const dsl::CallDesc* call) const;
  size_t vertex_count() const { return vertices_.size(); }
  size_t edge_count() const { return edge_count_; }
  // Bumped by every add_vertex(): callers that cache vertex weights (the
  // generator's draw tables) rebuild when it moves.
  uint64_t vertex_epoch() const { return vertex_epoch_; }

  // Applies the Eq. (1) update for an observed dependency a -> b.
  void observe_relation(const dsl::CallDesc* a, const dsl::CallDesc* b);

  double vertex_weight(const dsl::CallDesc* v) const;
  double edge_weight(const dsl::CallDesc* a, const dsl::CallDesc* b) const;
  // Sum of in-edge weights of b (the Eq. (1) conserved quantity; <= 1).
  double in_weight_sum(const dsl::CallDesc* b) const;
  // Out-edges of a as (destination, weight), ordered by insertion index.
  std::vector<std::pair<const dsl::CallDesc*, double>> out_edges(
      const dsl::CallDesc* a) const;

  // Multiplies every edge weight by `factor` in (0,1) (paper's periodic
  // reduction). Edges decayed below epsilon are dropped.
  void decay(double factor);

  // --- checkpoint support ---------------------------------------------------
  // Every edge as (src index, dst index, weight), ordered by src insertion
  // index then dst index. Indices are stable across a resume because
  // Engine::setup() re-adds vertices in the same table order.
  struct Edge {
    size_t from = 0;
    size_t to = 0;
    double weight = 0;
  };
  std::vector<Edge> edges() const;
  // Reinstalls one edge verbatim (no Eq. (1) rebalancing). Out-of-range
  // indices are ignored.
  void restore_edge(size_t from, size_t to, double weight);

  // Weighted choice of a base invocation by vertex weight.
  const dsl::CallDesc* pick_base(util::Rng& rng) const;
  // Follows an out-edge of `from` with probability proportional to edge
  // weight; returns nullptr for "stop here" (probability = 1 - sum(w),
  // floored at kMinStopProb so walks terminate).
  const dsl::CallDesc* pick_next(const dsl::CallDesc* from,
                                 util::Rng& rng) const;

 private:
  static constexpr double kMinVertexWeight = 0.01;
  static constexpr double kEdgeEpsilon = 1e-4;
  static constexpr double kMinStopProb = 0.15;
  static constexpr size_t kNoIndex = static_cast<size_t>(-1);

  size_t index_of(const dsl::CallDesc* call) const;

  std::unordered_map<const dsl::CallDesc*, size_t> index_;
  std::vector<const dsl::CallDesc*> vertices_;  // insertion order
  std::vector<double> weights_;
  double weights_total_ = 0;  // util::weight_total(weights_)
  uint64_t vertex_epoch_ = 0;
  // Adjacency by vertex index (std::map keeps destinations ordered).
  std::vector<std::map<size_t, double>> out_;
  std::vector<std::map<size_t, double>> in_;
  size_t edge_count_ = 0;
};

}  // namespace df::core
