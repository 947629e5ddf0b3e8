#include "src/sparsifiers/rank_degree.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/util/cancel.h"

namespace sparsify {

const SparsifierInfo& RankDegreeSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Rank Degree",
      .short_name = "RD",
      .supports_directed = true,  // ranks by out-degree (Table 2 note *)
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kConstrained,
      .changes_weights = false,
      .deterministic = false,
      .complexity = "O(rho |E| log(rho |E|))",
  };
  return info;
}

std::unique_ptr<ScoreState> RankDegreeSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  // Runs the growth with target = |E|: because the process up to its T-th
  // kept edge is identical for every target >= T (control flow and rng
  // draws only diverge after the T-th keep), the prefix of the recorded
  // order is exactly the set a target-T run would keep.
  const EdgeId m = g.NumEdges();
  const EdgeId target = m;
  std::vector<uint8_t> keep(m, 0);
  std::vector<EdgeId> order;
  order.reserve(m);
  EdgeId kept = 0;

  const NodeId n = g.NumVertices();
  if (n == 0 || target == 0) return std::make_unique<KeepOrderState>(order);

  NodeId num_seeds =
      std::max<NodeId>(1, static_cast<NodeId>(seed_fraction_ * n));
  std::vector<NodeId> seeds;
  for (uint64_t s : rng.SampleWithoutReplacement(n, num_seeds)) {
    seeds.push_back(static_cast<NodeId>(s));
  }

  std::vector<uint8_t> in_frontier(n, 0);
  for (NodeId s : seeds) in_frontier[s] = 1;
  std::vector<std::pair<NodeId, NodeId>> ranked;  // (degree, neighbor)
  uint64_t expanded = 0;  // seeds expanded so far, for the cancel poll

  while (kept < target) {
    std::vector<NodeId> next;
    bool progressed = false;
    for (NodeId s : seeds) {
      if (kept >= target) break;
      if ((expanded++ & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
      auto nbrs = g.OutNeighborNodes(s);
      if (nbrs.empty()) continue;
      ranked.clear();
      for (NodeId t : nbrs) {
        ranked.emplace_back(g.OutDegree(t), t);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      NodeId take = std::max<NodeId>(
          1, static_cast<NodeId>(std::ceil(top_fraction_ * ranked.size())));
      for (NodeId i = 0; i < take && kept < target; ++i) {
        NodeId t = ranked[i].second;
        EdgeId e = g.FindEdge(s, t);
        if (e != kInvalidEdge && !keep[e]) {
          keep[e] = 1;
          order.push_back(e);
          ++kept;
          progressed = true;
        }
        if (!in_frontier[t]) {
          in_frontier[t] = 1;
          next.push_back(t);
        }
      }
    }
    if (next.empty() || !progressed) {
      // Stuck (e.g. all frontier edges already kept): reseed randomly, and
      // if even a full random reseed cannot progress, fall back to keeping
      // arbitrary unkept edges so the target is always met.
      next.clear();
      std::fill(in_frontier.begin(), in_frontier.end(), 0);
      for (uint64_t s : rng.SampleWithoutReplacement(n, num_seeds)) {
        next.push_back(static_cast<NodeId>(s));
        in_frontier[s] = 1;
      }
      if (!progressed) {
        for (EdgeId e = 0; e < m && kept < target; ++e) {
          if ((e & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
          if (!keep[e]) {
            keep[e] = 1;
            order.push_back(e);
            ++kept;
          }
        }
        break;
      }
    }
    seeds = std::move(next);
  }
  return std::make_unique<KeepOrderState>(std::move(order));
}

RateMask RankDegreeSparsifier::MaskForRate(const ScoreState& state,
                                           double prune_rate) const {
  const auto& keep_order = StateAs<KeepOrderState>(state, "Rank Degree");
  const std::vector<EdgeId>& order = keep_order.order();
  const EdgeId m = static_cast<EdgeId>(order.size());
  EdgeId target = TargetKeepCount(m, prune_rate);
  RateMask mask;
  mask.keep.assign(m, 0);
  for (EdgeId i = 0; i < target; ++i) mask.keep[order[i]] = 1;
  return mask;
}

}  // namespace sparsify
