// Distance metrics (paper sections 2.2.2 and 3.3.2): single-source shortest
// paths (BFS for unweighted, Dijkstra for weighted), sampled SPSP stretch,
// sampled eccentricity stretch, and the iterative double-sweep approximate
// diameter.
#ifndef SPARSIFY_METRICS_DISTANCE_H_
#define SPARSIFY_METRICS_DISTANCE_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/graph/traversal.h"
#include "src/util/rng.h"

namespace sparsify {

// kInfDistance now lives in src/graph/traversal.h (re-exported here).

/// Distances from `src` to every vertex along out-edges. BFS (hop counts)
/// for unweighted graphs, Dijkstra otherwise. Unreachable vertices get
/// kInfDistance. Convenience wrapper over the traversal kernel using the
/// calling thread's scratch; hot loops should call the kernel directly
/// (src/graph/traversal.h) and read scratch.DistanceOf to skip the O(n)
/// result materialization.
std::vector<double> ShortestPathDistances(const Graph& g, NodeId src);

/// Mean SPSP stretch and companion statistics.
struct StretchResult {
  double mean_stretch = 0.0;   // mean of d_sparsified / d_original
  double unreachable = 0.0;    // fraction of sampled pairs that became
                               // unreachable in the sparsified graph
  int pairs_evaluated = 0;     // pairs contributing to mean_stretch
};

/// Samples up to `num_pairs` source-destination pairs reachable in
/// `original` (the paper's SPSP, section 3.3.2; pairs in different
/// components are excluded) and reports the mean distance stretch in
/// `sparsified`. Pairs unreachable in the sparsified graph are counted in
/// `unreachable` and excluded from the mean.
StretchResult SpspStretch(const Graph& original, const Graph& sparsified,
                          int num_pairs, Rng& rng);

/// Samples `num_sources` vertices and compares their eccentricities
/// (longest finite shortest-path distance) between graphs. Vertices with no
/// finite eccentricity in either graph are skipped. An unweighted graph
/// takes one MultiSourceBfs pass per 64 sources, a weighted one a Dijkstra
/// per source.
StretchResult EccentricityStretch(const Graph& original,
                                  const Graph& sparsified, int num_sources,
                                  Rng& rng);

/// Iterative double-sweep diameter lower bound (paper section 3.3.2):
/// starting from a random vertex, repeatedly jump to the farthest vertex
/// found; repeated with `num_seeds` random seeds, the best (largest) sweep
/// value is returned. Infinite-distance pairs are ignored (diameter within
/// the largest reachable region).
double ApproxDiameter(const Graph& g, int num_seeds, Rng& rng);

/// Exact eccentricity of `v` ignoring unreachable vertices; kInfDistance if
/// v reaches nothing.
double Eccentricity(const Graph& g, NodeId v);

}  // namespace sparsify

#endif  // SPARSIFY_METRICS_DISTANCE_H_
