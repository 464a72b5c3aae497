#include "core/relation/graph.h"

#include <algorithm>

namespace df::core {

size_t RelationGraph::index_of(const dsl::CallDesc* call) const {
  auto it = index_.find(call);
  return it == index_.end() ? kNoIndex : it->second;
}

void RelationGraph::add_vertex(const dsl::CallDesc* call, double weight) {
  ++vertex_epoch_;
  const size_t idx = index_of(call);
  if (idx != kNoIndex) {
    weights_[idx] = std::max(weight, kMinVertexWeight);
    weights_total_ = util::weight_total(weights_);
    return;
  }
  index_.emplace(call, vertices_.size());
  vertices_.push_back(call);
  weights_.push_back(std::max(weight, kMinVertexWeight));
  // Adding the appended weight last is exactly the index-order sum
  // util::weight_total() computes (all weights are positive).
  weights_total_ += weights_.back();
  out_.emplace_back();
  in_.emplace_back();
}

bool RelationGraph::has_vertex(const dsl::CallDesc* call) const {
  return index_of(call) != kNoIndex;
}

void RelationGraph::observe_relation(const dsl::CallDesc* a,
                                     const dsl::CallDesc* b) {
  if (a == nullptr || b == nullptr || a == b) return;
  const size_t ia = index_of(a);
  const size_t ib = index_of(b);
  if (ia == kNoIndex || ib == kNoIndex) return;

  // Halve the competing in-edges of b (Eq. 1); iteration is by source
  // index, so the floating-point sum is reproducible.
  double competing_sum = 0;
  for (auto& [src, w] : in_[ib]) {
    if (src == ia) continue;
    w *= 0.5;
    out_[src][ib] = w;
    competing_sum += w;
  }
  const double w = std::clamp(1.0 - competing_sum, kEdgeEpsilon, 1.0);
  const bool fresh = in_[ib].find(ia) == in_[ib].end();
  in_[ib][ia] = w;
  out_[ia][ib] = w;
  if (fresh) ++edge_count_;
}

double RelationGraph::vertex_weight(const dsl::CallDesc* v) const {
  const size_t idx = index_of(v);
  return idx == kNoIndex ? 0.0 : weights_[idx];
}

double RelationGraph::edge_weight(const dsl::CallDesc* a,
                                  const dsl::CallDesc* b) const {
  const size_t ia = index_of(a);
  const size_t ib = index_of(b);
  if (ia == kNoIndex || ib == kNoIndex) return 0.0;
  auto it = out_[ia].find(ib);
  return it == out_[ia].end() ? 0.0 : it->second;
}

double RelationGraph::in_weight_sum(const dsl::CallDesc* b) const {
  const size_t ib = index_of(b);
  if (ib == kNoIndex) return 0.0;
  double sum = 0;
  for (const auto& [src, w] : in_[ib]) sum += w;
  return sum;
}

std::vector<std::pair<const dsl::CallDesc*, double>> RelationGraph::out_edges(
    const dsl::CallDesc* a) const {
  std::vector<std::pair<const dsl::CallDesc*, double>> result;
  const size_t ia = index_of(a);
  if (ia == kNoIndex) return result;
  result.reserve(out_[ia].size());
  for (const auto& [dst, w] : out_[ia]) {
    result.emplace_back(vertices_[dst], w);
  }
  return result;
}

void RelationGraph::decay(double factor) {
  for (size_t src = 0; src < out_.size(); ++src) {
    for (auto it = out_[src].begin(); it != out_[src].end();) {
      it->second *= factor;
      if (it->second < kEdgeEpsilon) {
        in_[it->first].erase(src);
        it = out_[src].erase(it);
        --edge_count_;
      } else {
        in_[it->first][src] = it->second;
        ++it;
      }
    }
  }
}

std::vector<RelationGraph::Edge> RelationGraph::edges() const {
  std::vector<Edge> result;
  result.reserve(edge_count_);
  for (size_t src = 0; src < out_.size(); ++src) {
    for (const auto& [dst, w] : out_[src]) {
      result.push_back({src, dst, w});
    }
  }
  return result;
}

void RelationGraph::restore_edge(size_t from, size_t to, double weight) {
  if (from >= out_.size() || to >= in_.size()) return;
  const bool fresh = out_[from].find(to) == out_[from].end();
  out_[from][to] = weight;
  in_[to][from] = weight;
  if (fresh) ++edge_count_;
}

const dsl::CallDesc* RelationGraph::pick_base(util::Rng& rng) const {
  if (vertices_.empty()) return nullptr;
  return vertices_[rng.weighted(weights_, weights_total_)];
}

const dsl::CallDesc* RelationGraph::pick_next(const dsl::CallDesc* from,
                                              util::Rng& rng) const {
  const size_t ia = index_of(from);
  if (ia == kNoIndex || out_[ia].empty()) return nullptr;
  double total = 0;
  for (const auto& [dst, w] : out_[ia]) total += w;
  // Stop mass: whatever weight is not claimed by edges, floored so the walk
  // always has a chance to end.
  const double stop = std::max(1.0 - total, kMinStopProb);
  double pick = rng.uniform() * (total + stop);
  for (const auto& [dst, w] : out_[ia]) {
    if (pick < w) return vertices_[dst];
    pick -= w;
  }
  return nullptr;  // stop
}

}  // namespace df::core
