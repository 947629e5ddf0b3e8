// Clustering metrics (paper section 2.2.4): local / mean / global
// clustering coefficients and the clustering F1 similarity between two
// clusterings.
//
// The coefficients and CountTriangles read the undirected view of the
// input: for a directed graph, v's neighbours are the union of its out- and
// in-lists, the same edge set Symmetrized() builds (it is not built here).
// Each call makes one triangle pass that finds every triangle exactly once
// and yields each vertex's undirected degree d(v) and triangle count t(v).
// Weights are ignored (the paper marks LCC weight-insensitive).
#ifndef SPARSIFY_METRICS_CLUSTERING_H_
#define SPARSIFY_METRICS_CLUSTERING_H_

#include <vector>

#include "src/graph/graph.h"

namespace sparsify {

/// Local clustering coefficient of every vertex: fraction of connected
/// neighbor pairs, 2 t(v) / (d(v) (d(v) - 1)); 0 when d(v) < 2.
std::vector<double> LocalClusteringCoefficients(const Graph& g);

/// Mean of the local clustering coefficients over all vertices (MCC).
double MeanClusteringCoefficient(const Graph& g);

/// Global clustering coefficient: #closed triplets / #all triplets
/// = 3 * #triangles / sum_v d(v) (d(v)-1) / 2.
double GlobalClusteringCoefficient(const Graph& g);

/// Number of triangles in the undirected view of the graph.
uint64_t CountTriangles(const Graph& g);

/// Clustering F1 similarity (paper section 2.2.4): precision is the share
/// of each cluster captured by its best-matching reference cluster, recall
/// the same sum over the vertex count; F1 is their harmonic mean. Labels
/// need not be compacted. Returns 0 for empty inputs.
double ClusteringF1(const std::vector<int>& clusters,
                    const std::vector<int>& reference);

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_CLUSTERING_H_
