#include "src/metrics/kcore.h"

#include <algorithm>

#include "src/util/cancel.h"

namespace sparsify {

std::vector<NodeId> CoreNumbers(const Graph& g) {
  const NodeId n = g.NumVertices();
  std::vector<NodeId> degree(n);
  NodeId max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    if ((v & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    degree[v] = g.OutDegree(v);
    if (g.IsDirected()) degree[v] += g.InDegree(v);
    max_degree = std::max(max_degree, degree[v]);
  }
  // Bucket sort vertices by degree (Batagelj-Zaversnik peeling).
  std::vector<NodeId> bin(max_degree + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++bin[degree[v]];
  NodeId start = 0;
  for (NodeId d = 0; d <= max_degree; ++d) {
    NodeId count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<NodeId> pos(n), vert(n);
  for (NodeId v = 0; v < n; ++v) {
    pos[v] = bin[degree[v]]++;
    vert[pos[v]] = v;
  }
  // Restore bin starts.
  for (NodeId d = max_degree; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  std::vector<NodeId> core = degree;
  auto peel_neighbor = [&](NodeId v, NodeId u) {
    if (core[u] > core[v]) {
      // Move u to the front of its bucket, then shrink its degree.
      NodeId du = core[u];
      NodeId pu = pos[u];
      NodeId pw = bin[du];
      NodeId w = vert[pw];
      if (u != w) {
        std::swap(vert[pu], vert[pw]);
        pos[u] = pw;
        pos[w] = pu;
      }
      ++bin[du];
      --core[u];
    }
  };
  for (NodeId i = 0; i < n; ++i) {
    if ((i & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    NodeId v = vert[i];
    for (NodeId u : g.OutNeighborNodes(v)) peel_neighbor(v, u);
    if (g.IsDirected()) {
      for (NodeId u : g.InNeighborNodes(v)) peel_neighbor(v, u);
    }
  }
  return core;
}

NodeId Degeneracy(const Graph& g) {
  NodeId best = 0;
  for (NodeId c : CoreNumbers(g)) best = std::max(best, c);
  return best;
}

}  // namespace sparsify
