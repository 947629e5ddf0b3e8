#include "src/metrics/basic.h"

#include <algorithm>

#include "src/linalg/laplacian.h"
#include "src/util/stats.h"

namespace sparsify {

std::vector<double> DegreeHistogram(const Graph& g, int bins,
                                    NodeId max_degree) {
  std::vector<double> hist(bins, 0.0);
  double width =
      std::max<double>(1.0, static_cast<double>(max_degree + 1)) / bins;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    int b = static_cast<int>(static_cast<double>(g.OutDegree(v)) / width);
    b = std::clamp(b, 0, bins - 1);
    hist[b] += 1.0;
  }
  return hist;
}

std::vector<double> DegreeShape(const Graph& g, int bins) {
  // Each histogram is binned over its OWN degree range: pruning scales all
  // degrees down, and the metric should compare the distributions' SHAPE
  // (e.g. the power-law profile), not the absolute scale — otherwise every
  // sparsifier at prune rate rho trivially scores ~-ln(overlap of
  // [0, (1-rho) d_max] with [0, d_max]) and Random could never win Fig. 2.
  return DegreeHistogram(g, bins, g.MaxDegree());
}

double DegreeDistributionDistance(const Graph& original,
                                  const Graph& sparsified, int bins) {
  return BhattacharyyaDistance(DegreeShape(original, bins),
                               DegreeShape(sparsified, bins));
}

double QuadraticFormSimilarity(const Graph& original, const Graph& sparsified,
                               int num_vectors, Rng& rng) {
  Graph go_holder, gs_holder;
  const Graph* go = &original;
  const Graph* gs = &sparsified;
  if (original.IsDirected()) {
    go_holder = original.Symmetrized();
    go = &go_holder;
  }
  if (sparsified.IsDirected()) {
    gs_holder = sparsified.Symmetrized();
    gs = &gs_holder;
  }
  std::vector<double> ratios;
  Vec x(go->NumVertices());
  for (int i = 0; i < num_vectors; ++i) {
    for (double& xi : x) xi = rng.NextGaussian();
    double qo = QuadraticForm(*go, x);
    double qs = QuadraticForm(*gs, x);
    if (qo > 0.0) ratios.push_back(qs / qo);
  }
  return Mean(ratios);
}

}  // namespace sparsify
