#include "src/sparsifiers/forest_fire.h"

#include <memory>

#include "src/util/cancel.h"

namespace sparsify {

const SparsifierInfo& ForestFireSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Forest Fire",
      .short_name = "FF",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,  // with seed-sampling caveat (Table 2)
      .prune_rate_control = PruneRateControl::kConstrained,
      .changes_weights = false,
      .deterministic = false,
      .complexity = "O(r |E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> ForestFireSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  const EdgeId m = g.NumEdges();
  std::vector<double> burns(m, 0.0);
  if (m == 0) return std::make_unique<EdgeScoreState>(std::move(burns));

  std::vector<uint8_t> visited(g.NumVertices(), 0);
  std::vector<NodeId> visited_list;
  // Flat frontier (vector + head cursor): identical FIFO pop order to the
  // old std::queue, reused across fires with zero per-fire allocation. The
  // RNG stream is therefore byte-identical to the queue-based version.
  std::vector<NodeId> frontier;
  const uint64_t total_burn_target =
      static_cast<uint64_t>(coverage_ * static_cast<double>(m)) + 1;
  uint64_t total_burns = 0;

  // Cap the number of fires so adversarial inputs (e.g. burn probability
  // near 0) terminate; coverage is then simply lower than requested.
  const uint64_t max_fires =
      50 * (static_cast<uint64_t>(g.NumVertices()) + total_burn_target);
  uint64_t fires = 0;
  while (total_burns < total_burn_target && fires++ < max_fires) {
    // One poll per 256 fires, the first included; it draws nothing.
    if (fires % 256 == 1) SPARSIFY_CHECK_CANCELLED();
    NodeId start = static_cast<NodeId>(rng.NextUint(g.NumVertices()));
    frontier.clear();
    frontier.push_back(start);
    visited[start] = 1;
    visited_list.push_back(start);
    // Safety valve: a single fire burns at most |E| edges.
    uint64_t fire_burns = 0;
    for (size_t head = 0; head < frontier.size() && fire_burns < m; ++head) {
      NodeId v = frontier[head];
      auto nodes = g.OutNeighborNodes(v);
      auto edges = g.OutNeighborEdges(v);
      for (size_t i = 0; i < nodes.size(); ++i) {
        NodeId u = nodes[i];
        if (visited[u]) continue;
        if (!rng.NextBernoulli(burn_probability_)) continue;
        burns[edges[i]] += 1.0;
        ++total_burns;
        ++fire_burns;
        visited[u] = 1;
        visited_list.push_back(u);
        frontier.push_back(u);
      }
    }
    for (NodeId v : visited_list) visited[v] = 0;
    visited_list.clear();
  }
  // Random jitter breaks ties among equally-burned edges so repeated runs
  // differ (the algorithm is non-deterministic, Table 2).
  for (double& b : burns) b += 0.5 * rng.NextDouble();
  return std::make_unique<EdgeScoreState>(std::move(burns));
}

RateMask ForestFireSparsifier::MaskForRate(const ScoreState& state,
                                           double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Forest Fire"),
                        prune_rate);
}

}  // namespace sparsify
