// Tests for distance metrics: SSSP correctness against brute force,
// eccentricity, approximate diameter, and the SPSP/eccentricity stretch
// evaluators (eccentricity stretch also against the per-source loop it
// replaced).
#include "src/metrics/distance.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/metrics/components.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "tests/test_graphs.h"

namespace sparsify {
namespace {

TEST(SsspTest, PathGraphDistances) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  std::vector<double> d = ShortestPathDistances(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
  EXPECT_DOUBLE_EQ(d[3], 3.0);
}

TEST(SsspTest, UnreachableIsInfinite) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {2, 3}}, false, false);
  std::vector<double> d = ShortestPathDistances(g, 0);
  EXPECT_EQ(d[2], kInfDistance);
  EXPECT_EQ(d[3], kInfDistance);
}

TEST(SsspTest, DirectedRespectsArcDirection) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, true, false);
  std::vector<double> from0 = ShortestPathDistances(g, 0);
  std::vector<double> from2 = ShortestPathDistances(g, 2);
  EXPECT_DOUBLE_EQ(from0[2], 2.0);
  EXPECT_EQ(from2[0], kInfDistance);
}

TEST(SsspTest, WeightedUsesDijkstra) {
  // Direct edge weight 10, detour 1+1.
  Graph g = Graph::FromEdges(3, {{0, 2, 10.0}, {0, 1, 1.0}, {1, 2, 1.0}},
                             false, true);
  std::vector<double> d = ShortestPathDistances(g, 0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
}

TEST(SsspTest, MatchesBruteForceOnRandomGraph) {
  Rng rng(31);
  Graph g = WithRandomWeights(ErdosRenyi(40, 120, false, rng), 5.0, rng);
  // Brute force Bellman-Ford from vertex 0.
  std::vector<double> bf(g.NumVertices(), kInfDistance);
  bf[0] = 0.0;
  for (NodeId it = 0; it < g.NumVertices(); ++it) {
    for (const Edge& e : g.Edges()) {
      if (bf[e.u] + e.w < bf[e.v]) bf[e.v] = bf[e.u] + e.w;
      if (bf[e.v] + e.w < bf[e.u]) bf[e.u] = bf[e.v] + e.w;
    }
  }
  std::vector<double> d = ShortestPathDistances(g, 0);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (bf[v] == kInfDistance) {
      EXPECT_EQ(d[v], kInfDistance);
    } else {
      EXPECT_NEAR(d[v], bf[v], 1e-9);
    }
  }
}

TEST(EccentricityTest, PathGraph) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false,
                             false);
  EXPECT_DOUBLE_EQ(Eccentricity(g, 0), 4.0);
  EXPECT_DOUBLE_EQ(Eccentricity(g, 2), 2.0);
}

TEST(EccentricityTest, IsolatedVertexInfinite) {
  Graph g = Graph::FromEdges(3, {{0, 1}}, false, false);
  EXPECT_EQ(Eccentricity(g, 2), kInfDistance);
}

TEST(ApproxDiameterTest, ExactOnPath) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
                             false, false);
  Rng rng(32);
  EXPECT_DOUBLE_EQ(ApproxDiameter(g, 4, rng), 5.0);
}

TEST(ApproxDiameterTest, LowerBoundsTrueDiameter) {
  Rng gen(33);
  Graph g = ErdosRenyi(80, 200, false, gen);
  // True diameter by full BFS over the largest component.
  double truth = 0.0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    double e = Eccentricity(g, v);
    if (e != kInfDistance) truth = std::max(truth, e);
  }
  Rng rng(34);
  double approx = ApproxDiameter(g, 6, rng);
  EXPECT_LE(approx, truth + 1e-9);
  EXPECT_GE(approx, 0.5 * truth);  // double sweep is a strong lower bound
}

TEST(SpspStretchTest, IdenticalGraphHasUnitStretch) {
  Rng gen(35);
  Graph g = BarabasiAlbert(150, 3, gen);
  Rng rng(36);
  StretchResult r = SpspStretch(g, g, 500, rng);
  EXPECT_DOUBLE_EQ(r.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(r.unreachable, 0.0);
  EXPECT_GT(r.pairs_evaluated, 0);
}

TEST(SpspStretchTest, StretchAtLeastOneForSubgraphs) {
  Rng gen(37);
  Graph g = BarabasiAlbert(150, 4, gen);
  // Remove every third edge.
  std::vector<uint8_t> keep(g.NumEdges(), 1);
  for (EdgeId e = 0; e < g.NumEdges(); e += 3) keep[e] = 0;
  Graph h = g.Subgraph(keep);
  Rng rng(38);
  StretchResult r = SpspStretch(g, h, 500, rng);
  EXPECT_GE(r.mean_stretch, 1.0);
}

TEST(SpspStretchTest, DetectsBrokenPairs) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  Graph h = g.Subgraph({1, 0, 1});  // cut the middle edge
  Rng rng(39);
  StretchResult r = SpspStretch(g, h, 200, rng);
  EXPECT_GT(r.unreachable, 0.0);
}

TEST(EccentricityStretchTest, IdenticalGraphUnitStretch) {
  Rng gen(40);
  Graph g = BarabasiAlbert(100, 3, gen);
  Rng rng(41);
  StretchResult r = EccentricityStretch(g, g, 30, rng);
  EXPECT_DOUBLE_EQ(r.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(r.unreachable, 0.0);
}

// EccentricityStretch as it was before the multi-source BFS, kept as the
// reference: one Eccentricity call per source on each graph, in sample
// order.
StretchResult PerSourceEccentricityStretch(const Graph& original,
                                           const Graph& sparsified,
                                           int num_sources, Rng& rng) {
  StretchResult result;
  const NodeId n = original.NumVertices();
  if (n == 0 || num_sources <= 0) return result;
  std::vector<uint64_t> samples =
      rng.SampleWithoutReplacement(n, std::min<uint64_t>(n, num_sources));
  std::vector<double> stretches;
  int broken = 0, total = 0;
  for (uint64_t s : samples) {
    const NodeId v = static_cast<NodeId>(s);
    const double eo = Eccentricity(original, v);
    if (eo == kInfDistance || eo == 0.0) continue;
    ++total;
    const double es = Eccentricity(sparsified, v);
    if (es == kInfDistance) {
      ++broken;
    } else {
      stretches.push_back(es / eo);
    }
  }
  result.mean_stretch = Mean(stretches);
  result.unreachable = total > 0 ? static_cast<double>(broken) / total : 0.0;
  result.pairs_evaluated = static_cast<int>(stretches.size());
  return result;
}

// About half of the edges of `g`, one seeded coin flip per edge.
Graph HalfOf(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> keep(g.NumEdges());
  for (uint8_t& k : keep) k = rng.NextBernoulli(0.5) ? 1 : 0;
  return g.Subgraph(keep);
}

TEST(EccentricityStretchTest, BitIdenticalToPerSourceLoop) {
  std::vector<std::pair<std::string, std::pair<Graph, Graph>>> cases;
  for (const GraphCase& c : UndirectedCases()) {
    Graph g = c.make();
    Graph h = HalfOf(g, 61);
    cases.push_back({c.name, {std::move(g), std::move(h)}});
  }
  Rng rng(62);
  Graph rmat = RMat(8, 900, 0.57, 0.19, 0.19, true, rng);
  Graph rmat_half = HalfOf(rmat, 63);
  cases.push_back({"rmat_directed", {rmat, rmat_half}});
  // An unweighted input with a weighted subgraph, as ER-w produces.
  Graph astro = LoadDatasetScaled("ca-AstroPh", 0.6).graph;
  Graph astro_half = HalfOf(astro, 64);
  cases.push_back({"astro_half", {astro, astro_half}});
  cases.push_back(
      {"astro_half_weighted",
       {astro, WithRandomWeights(astro_half, 10.0, rng)}});
  for (const auto& [name, graphs] : cases) {
    const auto& [g, h] = graphs;
    for (int sources : {1, 50, 64, 130}) {
      Rng a(65), b(65);
      const StretchResult got = EccentricityStretch(g, h, sources, a);
      const StretchResult want = PerSourceEccentricityStretch(g, h, sources, b);
      EXPECT_EQ(got.mean_stretch, want.mean_stretch)
          << name << " sources=" << sources;
      EXPECT_EQ(got.unreachable, want.unreachable)
          << name << " sources=" << sources;
      EXPECT_EQ(got.pairs_evaluated, want.pairs_evaluated)
          << name << " sources=" << sources;
    }
  }
}

TEST(ConnectivityTest, UnreachableRatioExact) {
  // Components of sizes 3 and 2 among 5 vertices: reachable ordered pairs
  // = 3*2 + 2*1 = 8 of 20 -> unreachable 0.6.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}}, false, false);
  EXPECT_NEAR(UnreachableRatio(g), 0.6, 1e-12);
}

TEST(ConnectivityTest, ConnectedGraphZeroUnreachable) {
  Rng gen(42);
  Graph g = BarabasiAlbert(100, 2, gen);
  EXPECT_DOUBLE_EQ(UnreachableRatio(g), 0.0);
}

TEST(ConnectivityTest, IsolatedRatio) {
  Graph g = Graph::FromEdges(4, {{0, 1}}, false, false);
  EXPECT_DOUBLE_EQ(IsolatedRatio(g), 0.5);
}

TEST(ConnectivityTest, ComponentsLabelsConsistent) {
  Graph g = Graph::FromEdges(6, {{0, 1}, {1, 2}, {3, 4}}, false, false);
  ComponentResult cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);
  EXPECT_EQ(cc.label[0], cc.label[2]);
  EXPECT_EQ(cc.label[3], cc.label[4]);
  EXPECT_NE(cc.label[0], cc.label[3]);
  EXPECT_NE(cc.label[5], cc.label[0]);
}

TEST(ConnectivityTest, SampledUnreachableIncrease) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  Graph same = g;
  Rng rng(43);
  EXPECT_DOUBLE_EQ(SampledUnreachableIncrease(g, same, 100, rng), 0.0);
  Graph cut = g.Subgraph({1, 0, 1});
  Rng rng2(44);
  EXPECT_GT(SampledUnreachableIncrease(g, cut, 200, rng2), 0.3);
}

}  // namespace
}  // namespace sparsify
