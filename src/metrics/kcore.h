// k-core decomposition and harmonic centrality — extension metrics for the
// framework's metric registry (structural robustness and a closeness
// variant that handles disconnected graphs natively).
#ifndef SPARSIFY_METRICS_KCORE_H_
#define SPARSIFY_METRICS_KCORE_H_

#include <vector>

#include "src/graph/graph.h"

namespace sparsify {

/// Core number of every vertex (the largest k such that the vertex belongs
/// to a subgraph of minimum degree k). Linear-time bucket peeling
/// (Batagelj-Zaversnik). Directed graphs use total (in+out) degree.
std::vector<NodeId> CoreNumbers(const Graph& g);

/// Largest core number in the graph (the degeneracy).
NodeId Degeneracy(const Graph& g);

/// Harmonic centrality: sum over u != v of 1 / d(v, u), with 1/inf = 0 —
/// well defined on disconnected graphs, unlike raw closeness.
std::vector<double> HarmonicCentrality(const Graph& g);

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_KCORE_H_
