// Centrality metrics (paper sections 2.2.3, 2.2.5, 3.3.3) and the top-k
// precision evaluator used to compare sparsified-vs-original rankings.
//
//   Betweenness: Brandes' algorithm; exact over all sources or sampled over
//     `num_samples` pivots (Geisberger-style scaled contributions). The
//     backward pass walks only the shortest-path DAG the forward BFS
//     recorded, in the legacy order, so scores are bit-identical to the
//     full out-arc rescan it replaced.
//   Closeness:   1 / sum of distances to reachable vertices, scaled by the
//     reachable fraction (the standard Wasserman-Faust correction for
//     disconnected graphs). Exact: unweighted graphs run one 64-source
//     bit-parallel BFS (MultiSourceBfs) per 64 vertices and fold integer
//     hop sums, weighted graphs one Dijkstra per vertex.
//   Eigenvector: power iteration on A (left eigenvector / in-edges for
//     directed graphs, per Table 1 note *).
//   Katz:        iterative x = alpha A^T x + 1 with
//     alpha = 1 / (max_degree + 1) (paper section 2.2.3).
//   PageRank:    power method with damping 0.85 and dangling-mass
//     redistribution.
#ifndef SPARSIFY_METRICS_CENTRALITY_H_
#define SPARSIFY_METRICS_CENTRALITY_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

/// Exact Brandes betweenness centrality (unweighted shortest paths).
std::vector<double> BetweennessCentrality(const Graph& g);

/// Sampled betweenness: Brandes contributions from `num_samples` random
/// pivots, scaled by n / num_samples (paper uses 500 pivots).
std::vector<double> ApproxBetweennessCentrality(const Graph& g,
                                                int num_samples, Rng& rng);

/// Closeness centrality of every vertex. Bit-identical at any subtask
/// thread count, and to one traversal per vertex folded in ascending
/// vertex order.
std::vector<double> ClosenessCentrality(const Graph& g);

/// Eigenvector centrality by power iteration (`iters` steps, L2 normalized).
std::vector<double> EigenvectorCentrality(const Graph& g, int iters = 100);

/// Katz centrality, alpha defaulting to 1/(max_degree + 1).
std::vector<double> KatzCentrality(const Graph& g, double alpha = 0.0,
                                   int iters = 100);

/// PageRank with damping factor `d` (paper's application-level metric).
std::vector<double> PageRank(const Graph& g, double d = 0.85,
                             int iters = 100, double tol = 1e-10);

/// Fraction of the top-k vertices of `reference` (by score, ties broken by
/// vertex id) that also appear in the top-k of `candidate`. The paper's
/// quality measure for all centrality metrics, with k = 100.
double TopKPrecision(const std::vector<double>& reference,
                     const std::vector<double>& candidate, int k);

/// Indices of the k largest entries (ties broken by index).
std::vector<NodeId> TopKIndices(const std::vector<double>& scores, int k);

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_CENTRALITY_H_
