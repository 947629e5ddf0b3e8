// k-core decomposition — an extension metric for the framework's metric
// registry (structural robustness).
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

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_KCORE_H_
