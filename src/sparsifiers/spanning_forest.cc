#include "src/sparsifiers/spanning_forest.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "src/graph/union_find.h"
#include "src/util/cancel.h"

namespace sparsify {

const SparsifierInfo& SpanningForestSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Spanning Forest",
      .short_name = "SF",
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kNone,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|E| log |V|)",
  };
  return info;
}

std::unique_ptr<ScoreState> SpanningForestSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  (void)rng;  // deterministic
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Spanning Forest requires an undirected graph; symmetrize first");
  }
  // Kruskal: edges by ascending weight (= minimum spanning forest for
  // weighted graphs; arbitrary but deterministic order for unweighted).
  std::vector<EdgeId> order(g.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.EdgeWeight(a) < g.EdgeWeight(b);
  });
  UnionFind uf(g.NumVertices());
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  for (EdgeId i = 0; i < g.NumEdges(); ++i) {
    if ((i & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    const EdgeId e = order[i];
    const Edge& ed = g.CanonicalEdge(e);
    if (uf.Union(ed.u, ed.v)) keep[e] = 1;
  }
  return std::make_unique<FixedMaskState>(std::move(keep));
}

RateMask SpanningForestSparsifier::MaskForRate(const ScoreState& state,
                                               double prune_rate) const {
  (void)prune_rate;  // no control (Table 2)
  return {StateAs<FixedMaskState>(state, "Spanning Forest").keep(), {}};
}

}  // namespace sparsify
