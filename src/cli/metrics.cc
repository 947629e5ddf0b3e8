#include "src/cli/metrics.h"

#include <stdexcept>

#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/metrics/kcore.h"
#include "src/metrics/louvain.h"
#include "src/metrics/maxflow.h"
#include "src/util/stats.h"

namespace sparsify::cli {
namespace {

constexpr int kTopK = 100;

NamedMetric Deterministic(BatchMetricFn fn, std::string description) {
  return NamedMetric{{"", std::move(fn), nullptr}, std::move(description),
                     /*sampled=*/false};
}

NamedMetric Sampled(BatchMetricFn fn, std::string description) {
  return NamedMetric{{"", std::move(fn), nullptr}, std::move(description),
                     /*sampled=*/true};
}

NamedMetric TwoPhase(MetricPrepareFn prepare, std::string description,
                     bool sampled) {
  return NamedMetric{{"", nullptr, std::move(prepare)},
                     std::move(description), sampled};
}

// Top-100 precision of a deterministic centrality against its full-graph
// ranking.
template <typename Centrality>
NamedMetric TopKPrecisionMetric(Centrality centrality,
                                std::string description) {
  return TwoPhase(
      [centrality](const Graph& g, Rng&) -> MetricEvaluator {
        return [centrality, ref = centrality(g)](const Graph& h, Rng&) {
          return TopKPrecision(ref, centrality(h), kTopK);
        };
      },
      std::move(description), /*sampled=*/false);
}

std::map<std::string, NamedMetric> BuildRegistry() {
  std::map<std::string, NamedMetric> registry = {
      // Connectivity damage (paper fig 1).
      {"connectivity",
       Deterministic(
           [](const Graph&, const Graph& h, Rng&) {
             return UnreachableRatio(h);
           },
           "pair unreachable ratio of the sparsified graph (fig 1a)")},
      {"isolated",
       Deterministic(
           [](const Graph&, const Graph& h, Rng&) { return IsolatedRatio(h); },
           "isolated-vertex ratio of the sparsified graph (fig 1b)")},
      // Degree-distribution Bhattacharyya distance (fig 2) against the
      // original's degree shape.
      {"degree",
       TwoPhase(
           [](const Graph& g, Rng&) -> MetricEvaluator {
             return [p = DegreeShape(g)](const Graph& h, Rng&) {
               return BhattacharyyaDistance(p, DegreeShape(h));
             };
           },
           "degree-distribution Bhattacharyya distance vs original (fig 2)",
           /*sampled=*/false)},
      // Laplacian quadratic-form similarity, 50 probe vectors (fig 3).
      {"quadratic",
       Sampled(
           [](const Graph& g, const Graph& h, Rng& rng) {
             return QuadraticFormSimilarity(g, h, 50, rng);
           },
           "Laplacian quadratic-form similarity, 50 probe vectors (fig 3)")},
      // SPSP stretch over 2000 sampled pairs (fig 4a).
      {"spsp",
       Sampled(
           [](const Graph& g, const Graph& h, Rng& rng) {
             return SpspStretch(g, h, 2000, rng).mean_stretch;
           },
           "mean SPSP stretch over 2000 sampled pairs (fig 4a)")},
      {"spsp_unreachable",
       Sampled(
           [](const Graph& g, const Graph& h, Rng& rng) {
             return SpspStretch(g, h, 2000, rng).unreachable;
           },
           "fraction of sampled SPSP pairs made unreachable (fig 4a)")},
      // Eccentricity stretch over 50 sampled vertices (fig 4b).
      {"eccentricity",
       Sampled(
           [](const Graph& g, const Graph& h, Rng& rng) {
             return EccentricityStretch(g, h, 50, rng).mean_stretch;
           },
           "mean eccentricity stretch over 50 sampled vertices (fig 4b)")},
      // 4-sweep approximate diameter of the sparsified graph (fig 4c).
      {"diameter",
       Sampled(
           [](const Graph&, const Graph& h, Rng& rng) {
             return ApproxDiameter(h, 4, rng);
           },
           "4-sweep approximate diameter of the sparsified graph (fig 4c)")},
      // Centrality top-100 precisions (figs 5-7, 11) against the full-graph
      // ranking, prepared once per input graph. Betweenness draws its
      // reference pivots from the reference stream, its subgraph pivots
      // from the unit's.
      {"betweenness",
       TwoPhase(
           [](const Graph& g, Rng& ref_rng) -> MetricEvaluator {
             return [ref = ApproxBetweennessCentrality(g, 300, ref_rng)](
                        const Graph& h, Rng& rng) {
               return TopKPrecision(
                   ref, ApproxBetweennessCentrality(h, 300, rng), kTopK);
             };
           },
           "top-100 betweenness precision, 300 sampled pivots (fig 5a)",
           /*sampled=*/true)},
      {"closeness",
       TopKPrecisionMetric(
           [](const Graph& g) { return ClosenessCentrality(g); },
           "top-100 closeness-centrality precision (fig 5b)")},
      {"eigenvector",
       TopKPrecisionMetric(
           [](const Graph& g) { return EigenvectorCentrality(g); },
           "top-100 eigenvector-centrality precision (fig 6)")},
      {"katz",
       TopKPrecisionMetric([](const Graph& g) { return KatzCentrality(g); },
                           "top-100 Katz-centrality precision (fig 7)")},
      {"pagerank",
       TopKPrecisionMetric([](const Graph& g) { return PageRank(g); },
                           "top-100 PageRank precision (fig 11)")},
      // Community structure (figs 8, 10).
      {"communities",
       Sampled(
           [](const Graph&, const Graph& h, Rng& rng) {
             return static_cast<double>(
                 LouvainCommunities(h, rng).num_clusters);
           },
           "Louvain community count, randomized visit order (fig 8)")},
      {"f1",
       TwoPhase(
           [](const Graph& g, Rng& ref_rng) -> MetricEvaluator {
             return [ref = LouvainCommunities(g, ref_rng).label](
                        const Graph& h, Rng& rng) {
               return ClusteringF1(LouvainCommunities(h, rng).label, ref);
             };
           },
           "Louvain clustering F1 vs full-graph reference (fig 10)",
           /*sampled=*/true)},
      // Structural robustness (extension — kcore.h was written for the
      // registry; linear-time bucket peeling, so it is also the
      // representative "cheap structural metric" of the multi-metric
      // throughput bench).
      {"kcore",
       Deterministic(
           [](const Graph&, const Graph& h, Rng&) {
             return static_cast<double>(Degeneracy(h));
           },
           "degeneracy (largest k-core) of the sparsified graph "
           "[extension]")},
      // Clustering coefficients (fig 9).
      {"mcc",
       Deterministic(
           [](const Graph&, const Graph& h, Rng&) {
             return MeanClusteringCoefficient(h);
           },
           "mean local clustering coefficient (fig 9a)")},
      {"gcc",
       Deterministic(
           [](const Graph&, const Graph& h, Rng&) {
             return GlobalClusteringCoefficient(h);
           },
           "global clustering coefficient (fig 9b)")},
      // Min-cut/max-flow stretch over 50 sampled pairs (fig 12).
      {"maxflow",
       Sampled(
           [](const Graph& g, const Graph& h, Rng& rng) {
             return MaxFlowStretch(g, h, 50, rng).mean_ratio;
           },
           "mean max-flow stretch over 50 sampled s-t pairs (fig 12)")},
  };
  for (auto& [name, named] : registry) named.metric.name = name;
  return registry;
}

}  // namespace

const std::map<std::string, NamedMetric>& NamedMetrics() {
  static const std::map<std::string, NamedMetric> registry = BuildRegistry();
  return registry;
}

std::vector<std::string> MetricNames() {
  std::vector<std::string> names;
  for (const auto& [name, metric] : NamedMetrics()) names.push_back(name);
  return names;
}

const BatchMetric& FindMetric(const std::string& name) {
  auto it = NamedMetrics().find(name);
  if (it == NamedMetrics().end()) {
    std::string known;
    for (const auto& [n, metric] : NamedMetrics()) {
      known += known.empty() ? n : ", " + n;
    }
    throw std::invalid_argument("unknown metric '" + name + "' (known: " +
                                known + ")");
  }
  return it->second.metric;
}

}  // namespace sparsify::cli
