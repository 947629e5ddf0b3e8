#include "src/metrics/clustering.h"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Calls fn(u) once for every neighbour u of v in the undirected view of g,
// in ascending id order. For directed graphs that is the sorted union of
// v's out- and in-lists: exactly v's list in the symmetrized graph, which
// is never built.
template <typename Fn>
void ForEachUndirectedNeighbor(const Graph& g, NodeId v, Fn&& fn) {
  std::span<const NodeId> out = g.OutNeighborNodes(v);
  if (!g.IsDirected()) {
    for (NodeId u : out) fn(u);
    return;
  }
  std::span<const NodeId> in = g.InNeighborNodes(v);
  size_t i = 0, j = 0;
  while (i < out.size() && j < in.size()) {
    if (out[i] < in[j]) {
      fn(out[i++]);
    } else if (in[j] < out[i]) {
      fn(in[j++]);
    } else {
      fn(out[i++]);
      ++j;
    }
  }
  for (; i < out.size(); ++i) fn(out[i]);
  for (; j < in.size(); ++j) fn(in[j]);
}

// Undirected degree d(v) and triangle count t(v) of every vertex.
struct TriangleCounts {
  std::vector<NodeId> degree;
  std::vector<uint64_t> triangles;

  // Each triangle is counted at its three vertices.
  uint64_t Total() const {
    uint64_t sum = 0;
    for (uint64_t tv : triangles) sum += tv;
    return sum / 3;
  }
};

// The one triangle pass (compact-forward; Schank & Wagner 2005, Latapy
// 2008). Every undirected edge is oriented toward the endpoint with the
// higher (degree, id), so each vertex keeps only its forward neighbours
// and forward degrees stay O(sqrt(m)). A triangle whose vertices rank
// a < b < c is then found exactly once: at a, by scanning b's forward list
// for c in a's epoch-marked forward set.
TriangleCounts CountTrianglesPerVertex(const Graph& g) {
  const NodeId n = g.NumVertices();
  TriangleCounts tc;
  tc.degree.assign(n, 0);
  tc.triangles.assign(n, 0);
  std::vector<NodeId>& deg = tc.degree;
  uint64_t degree_sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (g.IsDirected()) {
      ForEachUndirectedNeighbor(g, v, [&](NodeId) { ++deg[v]; });
    } else {
      deg[v] = g.OutDegree(v);
    }
    degree_sum += deg[v];
  }

  std::vector<uint64_t> fwd_begin(static_cast<size_t>(n) + 1, 0);
  std::vector<NodeId> fwd;
  fwd.reserve(degree_sum / 2);
  for (NodeId v = 0; v < n; ++v) {
    ForEachUndirectedNeighbor(g, v, [&](NodeId u) {
      if (deg[u] > deg[v] || (deg[u] == deg[v] && u > v)) fwd.push_back(u);
    });
    fwd_begin[v + 1] = fwd.size();
  }

  std::vector<uint64_t>& t = tc.triangles;
  std::vector<NodeId> mark(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    const uint64_t vb = fwd_begin[v], ve = fwd_begin[v + 1];
    if (ve - vb < 2) continue;
    for (uint64_t i = vb; i < ve; ++i) mark[fwd[i]] = v;
    for (uint64_t i = vb; i < ve; ++i) {
      const NodeId u = fwd[i];
      for (uint64_t k = fwd_begin[u]; k < fwd_begin[u + 1]; ++k) {
        const NodeId w = fwd[k];
        if (mark[w] == v) {
          ++t[v];
          ++t[u];
          ++t[w];
        }
      }
    }
  }
  return tc;
}

}  // namespace

std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  const TriangleCounts tc = CountTrianglesPerVertex(g);
  std::vector<double> lcc(g.NumVertices(), 0.0);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t deg = tc.degree[v];
    if (deg < 2) continue;
    // 2 t(v) ordered pairs of linked neighbours over deg (deg - 1) pairs.
    lcc[v] = static_cast<double>(2 * tc.triangles[v]) /
             (static_cast<double>(deg) * (deg - 1));
  }
  return lcc;
}

double MeanClusteringCoefficient(const Graph& g) {
  std::vector<double> lcc = LocalClusteringCoefficients(g);
  if (lcc.empty()) return 0.0;
  double sum = 0.0;
  for (double c : lcc) sum += c;
  return sum / static_cast<double>(lcc.size());
}

uint64_t CountTriangles(const Graph& g) {
  return CountTrianglesPerVertex(g).Total();
}

double GlobalClusteringCoefficient(const Graph& g) {
  const TriangleCounts tc = CountTrianglesPerVertex(g);
  double triplets = 0.0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    double d = static_cast<double>(tc.degree[v]);
    triplets += d * (d - 1.0) / 2.0;
  }
  if (triplets <= 0.0) return 0.0;
  return 3.0 * static_cast<double>(tc.Total()) / triplets;
}

double ClusteringF1(const std::vector<int>& clusters,
                    const std::vector<int>& reference) {
  const size_t n = clusters.size();
  if (n == 0 || reference.size() != n) return 0.0;
  // a[i][j] = |C_i n R_j| as a sparse map keyed by (cluster, ref) pair.
  //
  // Note on fidelity: the paper's printed formula (section 2.2.4) sets
  // precision = sum_i max_j a_ij / sum_ij a_ij, but sum_ij a_ij = n always,
  // which collapses precision and recall into cluster purity and REWARDS
  // over-fragmentation — contradicting the paper's own Fig. 10, where the
  // fragmenting sparsifiers (G-Spar, SCAN) score WORST. We therefore use
  // the symmetric best-match form the figures imply:
  //   precision = sum_i max_j a_ij / n   (are clusters pure?)
  //   recall    = sum_j max_i a_ij / n   (are reference clusters intact?)
  // Identical clusterings still score 1; shattering now hurts recall.
  std::map<std::pair<int, int>, double> a;
  for (size_t v = 0; v < n; ++v) {
    a[{clusters[v], reference[v]}] += 1.0;
  }
  std::unordered_map<int, double> row_max, col_max;
  for (const auto& [key, count] : a) {
    row_max[key.first] = std::max(row_max[key.first], count);
    col_max[key.second] = std::max(col_max[key.second], count);
  }
  double sum_row_max = 0.0, sum_col_max = 0.0;
  for (const auto& [c, m] : row_max) sum_row_max += m;
  for (const auto& [r, m] : col_max) sum_col_max += m;
  double precision = sum_row_max / static_cast<double>(n);
  double recall = sum_col_max / static_cast<double>(n);
  if (precision + recall <= 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace sparsify
