#include "src/sparsifiers/extensions.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "src/util/cancel.h"

namespace sparsify {

std::vector<double> TriangleEdgeScores(const Graph& g) {
  std::vector<double> scores(g.NumEdges(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& ed = g.CanonicalEdge(e);
    scores[e] = static_cast<double>(SortedIntersectionSize(
        g.OutNeighborNodes(ed.u), g.OutNeighborNodes(ed.v)));
  }
  return scores;
}

// ---------------------------------------------------------------------------
// Triangle

const SparsifierInfo& TriangleSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Triangle (embeddedness)",
      .short_name = "TRI",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|E|^{3/2})",
      .extension = true,
  };
  return info;
}

std::unique_ptr<ScoreState> TriangleSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  (void)rng;  // deterministic
  return std::make_unique<EdgeScoreState>(TriangleEdgeScores(g));
}

RateMask TriangleSparsifier::MaskForRate(const ScoreState& state,
                                         double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Triangle"),
                        prune_rate);
}

// ---------------------------------------------------------------------------
// Simmelian backbone

const SparsifierInfo& SimmelianSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Simmelian Backbone",
      .short_name = "SIMM",
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|E|^{3/2} + |E| k log k)",
      .extension = true,
  };
  return info;
}

std::unique_ptr<ScoreState> SimmelianSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  (void)rng;  // deterministic
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Simmelian backbone requires an undirected graph; symmetrize first");
  }
  std::vector<double> tri = TriangleEdgeScores(g);

  // Per vertex: neighbors ranked by triangle count (desc), truncated to
  // max_rank_. Edge score = Jaccard overlap of the two endpoints' ranked
  // neighbor prefixes (non-parametric Simmelian backbone).
  std::vector<std::vector<NodeId>> top(g.NumVertices());
  std::vector<std::pair<double, NodeId>> ranked;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    auto nodes = g.OutNeighborNodes(v);
    auto edges = g.OutNeighborEdges(v);
    ranked.clear();
    for (size_t i = 0; i < nodes.size(); ++i) {
      ranked.emplace_back(tri[edges[i]], nodes[i]);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    size_t take = std::min<size_t>(ranked.size(),
                                   static_cast<size_t>(max_rank_));
    top[v].reserve(take);
    for (size_t i = 0; i < take; ++i) top[v].push_back(ranked[i].second);
    std::sort(top[v].begin(), top[v].end());
  }
  std::vector<double> score(g.NumEdges(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& ed = g.CanonicalEdge(e);
    const std::vector<NodeId>& a = top[ed.u];
    const std::vector<NodeId>& b = top[ed.v];
    size_t i = 0, j = 0, inter = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        ++inter;
        ++i;
        ++j;
      }
    }
    size_t uni = a.size() + b.size() - inter;
    score[e] = uni > 0 ? static_cast<double>(inter) / uni : 0.0;
  }
  return std::make_unique<EdgeScoreState>(std::move(score));
}

RateMask SimmelianSparsifier::MaskForRate(const ScoreState& state,
                                          double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Simmelian Backbone"),
                        prune_rate);
}

// ---------------------------------------------------------------------------
// Algebraic distance

std::vector<double> AlgebraicDistances(const Graph& g, int num_vectors,
                                       int sweeps, Rng& rng) {
  const NodeId n = g.NumVertices();
  std::vector<double> dist(g.NumEdges(), 0.0);
  std::vector<double> x(n), next(n);
  const double omega = 0.5;  // damped Jacobi
  for (int t = 0; t < num_vectors; ++t) {
    for (double& xi : x) xi = rng.NextDouble() - 0.5;
    for (int s = 0; s < sweeps; ++s) {
      SPARSIFY_CHECK_CANCELLED();  // once per O(|E|) sweep; draws nothing
      for (NodeId v = 0; v < n; ++v) {
        auto nodes = g.OutNeighborNodes(v);
        auto edges = g.OutNeighborEdges(v);
        if (nodes.empty()) {
          next[v] = x[v];
          continue;
        }
        double acc = 0.0, wsum = 0.0;
        for (size_t i = 0; i < nodes.size(); ++i) {
          double w = g.EdgeWeight(edges[i]);
          acc += w * x[nodes[i]];
          wsum += w;
        }
        next[v] = (1.0 - omega) * x[v] + omega * acc / wsum;
      }
      std::swap(x, next);
    }
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const Edge& ed = g.CanonicalEdge(e);
      double d = x[ed.u] - x[ed.v];
      dist[e] += d * d;
    }
  }
  for (double& d : dist) d = std::sqrt(d);
  return dist;
}

const SparsifierInfo& AlgebraicDistanceSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Algebraic Distance",
      .short_name = "ALG",
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = false,
      .complexity = "O(d s |E|)",
      .extension = true,
  };
  return info;
}

std::unique_ptr<ScoreState> AlgebraicDistanceSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Algebraic distance requires an undirected graph; symmetrize first");
  }
  std::vector<double> dist = AlgebraicDistances(g, num_vectors_, sweeps_,
                                                rng);
  // Keep the algebraically CLOSEST edges: score = -distance.
  std::vector<double> score(dist.size());
  for (size_t i = 0; i < dist.size(); ++i) score[i] = -dist[i];
  return std::make_unique<EdgeScoreState>(std::move(score));
}

RateMask AlgebraicDistanceSparsifier::MaskForRate(const ScoreState& state,
                                                  double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Algebraic Distance"),
                        prune_rate);
}

}  // namespace sparsify
