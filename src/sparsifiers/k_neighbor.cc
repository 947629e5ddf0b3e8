#include "src/sparsifiers/k_neighbor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/util/cancel.h"

namespace sparsify {

const SparsifierInfo& KNeighborSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "K-Neighbor",
      .short_name = "KN",
      .supports_directed = true,  // uses out-degree (Table 2 note *)
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kConstrained,
      .changes_weights = false,
      .deterministic = false,
      .complexity = "O(|E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> KNeighborSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  const EdgeId m = g.NumEdges();
  const NodeId max_degree = g.MaxDegree();
  std::vector<NodeId> best_rank(m, std::numeric_limits<NodeId>::max());
  // Weighted sampling without replacement per vertex via
  // Efraimidis-Spirakis keys u^(1/w): one key per adjacency entry, drawn
  // once; the per-vertex key-descending order then serves every k.
  std::vector<std::pair<double, EdgeId>> keys;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();  // draws nothing
    auto nbrs = g.OutNeighborEdges(v);
    if (nbrs.empty()) continue;
    keys.clear();
    keys.reserve(nbrs.size());
    for (EdgeId e : nbrs) {
      double w = g.IsWeighted() ? g.EdgeWeight(e) : 1.0;
      double u = rng.NextDouble();
      keys.emplace_back(std::pow(u, 1.0 / w), e);
    }
    std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (size_t r = 0; r < keys.size(); ++r) {
      EdgeId e = keys[r].second;
      best_rank[e] = std::min(best_rank[e], static_cast<NodeId>(r));
    }
  }
  // Histogram -> prefix sums: count_at_k[k] = #edges with best_rank < k.
  std::vector<EdgeId> count_at_k(static_cast<size_t>(max_degree) + 1, 0);
  for (EdgeId e = 0; e < m; ++e) {
    // Every edge appears in at least one adjacency list, so its rank is
    // < max_degree.
    ++count_at_k[best_rank[e] + 1];
  }
  for (size_t k = 1; k < count_at_k.size(); ++k) {
    count_at_k[k] += count_at_k[k - 1];
  }
  return std::make_unique<KNeighborState>(std::move(best_rank),
                                          std::move(count_at_k));
}

RateMask KNeighborSparsifier::MaskForRate(const ScoreState& state,
                                          double prune_rate) const {
  const auto& kn = StateAs<KNeighborState>(state, "K-Neighbor");
  const std::vector<EdgeId>& count = kn.count_at_k();
  const EdgeId m = static_cast<EdgeId>(kn.best_rank().size());
  EdgeId target = TargetKeepCount(m, prune_rate);
  RateMask mask;
  mask.keep.assign(m, 0);
  if (m == 0) return mask;
  // Smallest k whose kept count reaches the target (kept count is monotone
  // in k and count[max_degree] == m >= target), then the closer of k, k-1.
  NodeId max_k = static_cast<NodeId>(count.size() - 1);
  NodeId lo = 1, hi = std::max<NodeId>(1, max_k);
  while (lo < hi) {
    NodeId mid = lo + (hi - lo) / 2;
    if (count[mid] >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // k-1 is taken only when it is strictly closer AND undershoots by at
  // most one edge: constrained control promises to never prune (much)
  // more than requested, only less.
  NodeId best = lo;
  if (lo > 1) {
    EdgeId above = count[lo];
    EdgeId below = count[lo - 1];
    if (below + 1 >= target &&
        target - std::min(target, below) <
            std::max(above, target) - target) {
      best = lo - 1;
    }
  }
  for (EdgeId e = 0; e < m; ++e) {
    if (kn.best_rank()[e] < best) mask.keep[e] = 1;
  }
  return mask;
}

std::vector<uint8_t> KNeighborSparsifier::KeepMaskForK(const Graph& g,
                                                       NodeId k,
                                                       Rng& rng) const {
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  std::vector<std::pair<double, EdgeId>> keys;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.OutNeighborEdges(v);
    if (nbrs.empty()) continue;
    if (nbrs.size() <= k) {
      for (EdgeId e : nbrs) keep[e] = 1;
      continue;
    }
    keys.clear();
    keys.reserve(nbrs.size());
    for (EdgeId e : nbrs) {
      double w = g.IsWeighted() ? g.EdgeWeight(e) : 1.0;
      double u = rng.NextDouble();
      keys.emplace_back(std::pow(u, 1.0 / w), e);
    }
    std::nth_element(keys.begin(), keys.begin() + (k - 1), keys.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (NodeId i = 0; i < k; ++i) keep[keys[i].second] = 1;
  }
  return keep;
}

Graph KNeighborSparsifier::SparsifyWithK(const Graph& g, NodeId k,
                                         Rng& rng) const {
  return g.Subgraph(KeepMaskForK(g, k, rng));
}

}  // namespace sparsify
