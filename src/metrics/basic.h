// Basic graph metrics (paper sections 2.2.1 and 3.3.1): degree-distribution
// similarity via the Bhattacharyya distance, and Laplacian quadratic-form
// similarity over random probe vectors.
#ifndef SPARSIFY_METRICS_BASIC_H_
#define SPARSIFY_METRICS_BASIC_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

/// Histogram of out-degrees with `bins` equal-width bins over
/// [0, max_degree]; `max_degree` is typically taken from the *original*
/// graph so that the original and sparsified histograms share bins.
std::vector<double> DegreeHistogram(const Graph& g, int bins,
                                    NodeId max_degree);

/// The degree distribution's shape as DegreeDistributionDistance compares
/// it: DegreeHistogram over g's OWN degree range [0, g.MaxDegree()].
std::vector<double> DegreeShape(const Graph& g, int bins = 100);

/// Bhattacharyya distance between the degree distributions of `original`
/// and `sparsified` using `bins` shared bins (paper uses 100). Lower is
/// better; 0 means identical distributions.
double DegreeDistributionDistance(const Graph& original,
                                  const Graph& sparsified, int bins = 100);

/// Mean ratio (x^T L_sparsified x) / (x^T L_original x) over `num_vectors`
/// random Gaussian probe vectors (paper uses 100). Closer to 1 is better.
/// Directed graphs are symmetrized first, as the paper's Laplacian is only
/// defined for undirected graphs.
double QuadraticFormSimilarity(const Graph& original, const Graph& sparsified,
                               int num_vectors, Rng& rng);

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_BASIC_H_
