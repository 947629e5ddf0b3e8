#include "src/metrics/centrality.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <span>
#include <unordered_set>

#include "src/graph/traversal.h"
#include "src/linalg/vector_ops.h"
#include "src/metrics/distance.h"
#include "src/util/cancel.h"
#include "src/util/thread_pool.h"

namespace sparsify {

namespace {

// One Brandes source accumulation (unweighted BFS DAG), adding the
// dependency of `src` into `centrality` with multiplier `scale`.
//
// The forward pass is a push-only BFS over a flat FIFO (order_ with a head
// cursor, which pops exactly as the legacy std::queue did): sigma
// accumulates DURING the traversal, in pop order, and every arc v -> u
// with level[u] == level[v] + 1 is recorded as a successor of v. That
// test is final when it is made — a level is set once, and sigma[u] >=
// sigma[v] >= 1 — so the backward pass walks only the recorded
// shortest-path DAG, in reverse pop order and in each vertex's adjacency
// order. The floating-point association of both passes is therefore the
// legacy one, and the result bit-identical to the seed implementation.
// The scratch supplies every array, so repeated sources allocate
// nothing; only the vertices this source reached are reset at the end.
void BrandesAccumulate(const Graph& g, NodeId src, double scale,
                       std::vector<double>* centrality,
                       TraversalScratch& s) {
  s.EnsureBrandes(g);
  std::vector<TraversalScratch::BrandesSlot>& slot = s.brandes_;
  std::vector<uint32_t>& level = s.brandes_level_;
  std::vector<NodeId>& order = s.order_;

  slot[src].sigma = 1.0;
  level[src] = 0;
  order.push_back(src);
  for (size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    const uint32_t next = level[v] + 1;
    const double sigma_v = slot[v].sigma;
    for (NodeId u : g.OutNeighborNodes(v)) {
      if (level[u] == TraversalScratch::kNoLevel) {
        level[u] = next;
        order.push_back(u);
      }
      if (level[u] == next) {
        slot[u].sigma += sigma_v;
        s.succ_.push_back(u);
      }
    }
    s.succ_end_.push_back(static_cast<EdgeId>(s.succ_.size()));
  }
  for (size_t i = order.size(); i-- > 0;) {
    const NodeId w = order[i];
    const double sigma_w = slot[w].sigma;
    double delta = 0.0;
    for (size_t k = i == 0 ? 0 : s.succ_end_[i - 1]; k < s.succ_end_[i];
         ++k) {
      const TraversalScratch::BrandesSlot& u = slot[s.succ_[k]];
      delta += sigma_w / u.sigma * (1.0 + u.delta);
    }
    slot[w].delta = delta;
    if (w != src) (*centrality)[w] += scale * delta;
  }
  // Restore the zeroed-slot / kNoLevel invariant (only touched vertices).
  for (NodeId w : order) {
    slot[w] = {};
    level[w] = TraversalScratch::kNoLevel;
  }
}

}  // namespace

std::vector<double> BetweennessCentrality(const Graph& g) {
  std::vector<double> centrality(g.NumVertices(), 0.0);
  TraversalScratch& scratch = LocalTraversalScratch();
  for (NodeId s = 0; s < g.NumVertices(); ++s) {
    BrandesAccumulate(g, s, 1.0, &centrality, scratch);
  }
  // Undirected paths are counted from both endpoints.
  if (!g.IsDirected()) {
    for (double& c : centrality) c *= 0.5;
  }
  return centrality;
}

std::vector<double> ApproxBetweennessCentrality(const Graph& g,
                                                int num_samples, Rng& rng) {
  std::vector<double> centrality(g.NumVertices(), 0.0);
  const NodeId n = g.NumVertices();
  if (n == 0) return centrality;
  int samples = std::min<int>(num_samples, n);
  double scale = static_cast<double>(n) / samples;
  std::vector<uint64_t> pivots = rng.SampleWithoutReplacement(n, samples);
  // Pivots are processed in FIXED batches of kBatch, each batch
  // accumulating into its own partial vector (Brandes mutates shared
  // state, so concurrent pivots must not share an accumulator); the
  // partials fold in batch order. The batch size is a constant — never
  // the thread count — so the floating-point association, and therefore
  // the result, is bit-identical at any subtask thread count.
  constexpr size_t kBatch = 32;
  size_t num_batches = (pivots.size() + kBatch - 1) / kBatch;
  std::vector<std::vector<double>> partials(num_batches);
  NestedParallelFor(CurrentSubtaskPool(), num_batches, [&](size_t b) {
    std::vector<double>& partial = partials[b];
    partial.assign(n, 0.0);
    TraversalScratch& scratch = LocalTraversalScratch();
    size_t end = std::min(pivots.size(), (b + 1) * kBatch);
    for (size_t s = b * kBatch; s < end; ++s) {
      // Per-pivot poll: a batch is 32 full traversals, too coarse for a
      // unit deadline on large graphs.
      SPARSIFY_CHECK_CANCELLED();
      BrandesAccumulate(g, static_cast<NodeId>(pivots[s]), scale, &partial,
                        scratch);
    }
  });
  for (const std::vector<double>& partial : partials) {
    for (NodeId v = 0; v < n; ++v) centrality[v] += partial[v];
  }
  if (!g.IsDirected()) {
    for (double& c : centrality) c *= 0.5;
  }
  return centrality;
}

std::vector<double> ClosenessCentrality(const Graph& g) {
  const NodeId n = g.NumVertices();
  std::vector<double> closeness(n, 0.0);
  // Wasserman-Faust: (r / (n-1)) * (r / sum) where r = #reachable.
  auto set = [&](NodeId v, double reachable, double sum) {
    if (sum > 0.0 && n > 1) {
      closeness[v] = (reachable / (n - 1.0)) * (reachable / sum);
    }
  };
  // Every task writes only its own vertices' slots, so the tasks fan out
  // as engine subtasks with bit-identical output at any thread count.
  if (g.IsWeighted()) {
    // One Dijkstra per vertex; the distance fold scans the scratch in
    // ascending vertex order, the legacy summation order.
    NestedParallelFor(CurrentSubtaskPool(), n, [&](size_t src) {
      const NodeId v = static_cast<NodeId>(src);
      TraversalScratch& scratch = LocalTraversalScratch();
      DijkstraDistances(g, v, scratch);
      double sum = 0.0;
      double reachable = 0.0;
      for (NodeId u = 0; u < n; ++u) {
        if (u != v && scratch.Reached(u)) {
          sum += scratch.DistanceOf(u);
          reachable += 1.0;
        }
      }
      set(v, reachable, sum);
    });
    return closeness;
  }
  // Hop counts: one multi-source BFS per 64 consecutive vertices. A hop
  // sum is an integer below 2^53, so converting it once equals the
  // ascending-order double fold of the same levels exactly.
  const size_t batches = (n + kMaxMultiBfsSources - 1) / kMaxMultiBfsSources;
  NestedParallelFor(CurrentSubtaskPool(), batches, [&](size_t b) {
    const NodeId first = static_cast<NodeId>(b * kMaxMultiBfsSources);
    const size_t k = std::min<size_t>(kMaxMultiBfsSources, n - first);
    std::array<NodeId, kMaxMultiBfsSources> sources;
    std::iota(sources.begin(), sources.begin() + k, first);
    std::array<MultiBfsStats, kMaxMultiBfsSources> stats;
    MultiSourceBfs(g, std::span(sources.data(), k), LocalTraversalScratch(),
                   std::span(stats.data(), k));
    for (size_t i = 0; i < k; ++i) {
      set(sources[i], static_cast<double>(stats[i].reached - 1),
          static_cast<double>(stats[i].level_sum));
    }
  });
  return closeness;
}

std::vector<double> EigenvectorCentrality(const Graph& g, int iters) {
  const NodeId n = g.NumVertices();
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(std::max<NodeId>(n, 1))));
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iters; ++it) {
    SPARSIFY_CHECK_CANCELLED();  // once per O(|E|) power step
    // Iterate (A + I) x: the identity shift keeps the dominant eigenvector
    // of A while breaking the +-lambda oscillation of bipartite graphs.
    next = x;
    for (NodeId v = 0; v < n; ++v) {
      // Left eigenvector for directed graphs (Table 1 note *): influence
      // flows along arcs, so v aggregates from its in-neighbors.
      auto nodes = g.InNeighborNodes(v);
      auto edges = g.InNeighborEdges(v);
      for (size_t i = 0; i < nodes.size(); ++i) {
        next[v] += g.EdgeWeight(edges[i]) * x[nodes[i]];
      }
    }
    double norm = Norm2(next);
    if (norm == 0.0) break;
    for (NodeId v = 0; v < n; ++v) x[v] = next[v] / norm;
  }
  return x;
}

std::vector<double> KatzCentrality(const Graph& g, double alpha, int iters) {
  const NodeId n = g.NumVertices();
  if (alpha <= 0.0) {
    alpha = 1.0 / (static_cast<double>(g.MaxDegree()) + 1.0);
  }
  std::vector<double> x(n, 0.0), next(n, 0.0);
  for (int it = 0; it < iters; ++it) {
    SPARSIFY_CHECK_CANCELLED();
    for (NodeId v = 0; v < n; ++v) {
      double acc = 0.0;
      for (NodeId u : g.InNeighborNodes(v)) {
        acc += x[u];
      }
      next[v] = alpha * acc + 1.0;
    }
    std::swap(x, next);
  }
  return x;
}

std::vector<double> PageRank(const Graph& g, double d, int iters,
                             double tol) {
  const NodeId n = g.NumVertices();
  if (n == 0) return {};
  std::vector<double> x(n, 1.0 / n), next(n, 0.0);
  for (int it = 0; it < iters; ++it) {
    SPARSIFY_CHECK_CANCELLED();
    double dangling = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (g.OutDegree(v) == 0) dangling += x[v];
    }
    double base = (1.0 - d) / n + d * dangling / n;
    std::fill(next.begin(), next.end(), base);
    for (NodeId v = 0; v < n; ++v) {
      NodeId deg = g.OutDegree(v);
      if (deg == 0) continue;
      double share = d * x[v] / deg;
      for (NodeId u : g.OutNeighborNodes(v)) {
        next[u] += share;
      }
    }
    double diff = 0.0;
    for (NodeId v = 0; v < n; ++v) diff += std::abs(next[v] - x[v]);
    std::swap(x, next);
    if (diff < tol) break;
  }
  return x;
}

std::vector<NodeId> TopKIndices(const std::vector<double>& scores, int k) {
  std::vector<NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min<int>(k, static_cast<int>(order.size()));
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  order.resize(k);
  return order;
}

double TopKPrecision(const std::vector<double>& reference,
                     const std::vector<double>& candidate, int k) {
  std::vector<NodeId> ref = TopKIndices(reference, k);
  std::vector<NodeId> cand = TopKIndices(candidate, k);
  if (ref.empty()) return 0.0;
  std::unordered_set<NodeId> ref_set(ref.begin(), ref.end());
  int overlap = 0;
  for (NodeId v : cand) {
    if (ref_set.contains(v)) ++overlap;
  }
  return static_cast<double>(overlap) / static_cast<double>(ref.size());
}

}  // namespace sparsify
