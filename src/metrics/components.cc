#include "src/metrics/components.h"

#include "src/graph/traversal.h"
#include "src/graph/union_find.h"
#include "src/util/cancel.h"

namespace sparsify {

ComponentResult ConnectedComponents(const Graph& g) {
  UnionFind uf(g.NumVertices());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& edge = g.CanonicalEdge(e);
    uf.Union(edge.u, edge.v);
  }
  ComponentResult result;
  result.label.assign(g.NumVertices(), kInvalidNode);
  std::vector<NodeId> root_to_label(g.NumVertices(), kInvalidNode);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if ((v & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    NodeId root = static_cast<NodeId>(uf.Find(v));
    if (root_to_label[root] == kInvalidNode) {
      root_to_label[root] = result.num_components++;
      result.sizes.push_back(0);
    }
    result.label[v] = root_to_label[root];
    ++result.sizes[result.label[v]];
  }
  return result;
}

double UnreachableRatio(const Graph& g) {
  const double n = static_cast<double>(g.NumVertices());
  if (n < 2) return 0.0;
  ComponentResult cc = ConnectedComponents(g);
  double reachable = 0.0;
  for (NodeId size : cc.sizes) {
    reachable += static_cast<double>(size) * (size - 1.0);
  }
  return 1.0 - reachable / (n * (n - 1.0));
}

// No cancellation poll: one O(n) pass over the degree offsets, no more
// work than building the subgraph it reads.
double IsolatedRatio(const Graph& g) {
  if (g.NumVertices() == 0) return 0.0;
  return static_cast<double>(g.CountIsolated()) /
         static_cast<double>(g.NumVertices());
}

double SampledDirectedUnreachableRatio(const Graph& g, int num_pairs,
                                       Rng& rng) {
  const NodeId n = g.NumVertices();
  if (n < 2 || num_pairs <= 0) return 0.0;
  // Group pairs by source: one BFS serves many destination probes. The
  // hybrid kernel's epoch stamps replace the old touched-list reset, and
  // reachability ignores weights exactly as the legacy hand-rolled BFS
  // did (hop counts, never Dijkstra).
  int num_sources = std::max(1, num_pairs / 32);
  int per_source = (num_pairs + num_sources - 1) / num_sources;
  TraversalScratch& scratch = LocalTraversalScratch();
  int total = 0, unreachable = 0;
  for (int s = 0; s < num_sources; ++s) {
    NodeId src = static_cast<NodeId>(rng.NextUint(n));
    BfsLevels(g, src, scratch);
    for (int i = 0; i < per_source; ++i) {
      NodeId dst = static_cast<NodeId>(rng.NextUint(n));
      if (dst == src) continue;
      ++total;
      if (!scratch.Reached(dst)) ++unreachable;
    }
  }
  return total > 0 ? static_cast<double>(unreachable) / total : 0.0;
}

double SampledUnreachableIncrease(const Graph& original,
                                  const Graph& sparsified, int num_pairs,
                                  Rng& rng) {
  ComponentResult orig = ConnectedComponents(original);
  ComponentResult spar = ConnectedComponents(sparsified);
  const NodeId n = original.NumVertices();
  if (n < 2 || num_pairs <= 0) return 0.0;
  int sampled = 0, broken = 0;
  int attempts = 0;
  const int max_attempts = num_pairs * 50;
  while (sampled < num_pairs && attempts++ < max_attempts) {
    NodeId u = static_cast<NodeId>(rng.NextUint(n));
    NodeId v = static_cast<NodeId>(rng.NextUint(n));
    if (u == v || orig.label[u] != orig.label[v]) continue;
    ++sampled;
    if (spar.label[u] != spar.label[v]) ++broken;
  }
  return sampled > 0 ? static_cast<double>(broken) / sampled : 0.0;
}

}  // namespace sparsify
