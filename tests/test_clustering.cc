// Tests for clustering metrics: Louvain community recovery on planted
// partitions, modularity, clustering coefficients on known graphs and
// against an independent reference (plus metamorphic relations), and the
// paper's clustering F1 definition.
#include "src/metrics/clustering.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/metrics/louvain.h"
#include "src/util/rng.h"
#include "tests/test_graphs.h"

namespace sparsify {
namespace {

Graph CompleteGraph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::FromEdges(n, edges, false, false);
}

TEST(LccTest, CompleteGraphAllOnes) {
  Graph g = CompleteGraph(6);
  for (double c : LocalClusteringCoefficients(g)) EXPECT_DOUBLE_EQ(c, 1.0);
  EXPECT_DOUBLE_EQ(MeanClusteringCoefficient(g), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(LccTest, TreeAllZeros) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}}, false,
                             false);
  for (double c : LocalClusteringCoefficients(g)) EXPECT_DOUBLE_EQ(c, 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(LccTest, TriangleWithTail) {
  // Vertices 0,1 in triangle only: LCC 1. Vertex 2: neighbors {0,1,3},
  // one of three pairs connected -> 1/3. Vertex 3: degree 1 -> 0.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false,
                             false);
  std::vector<double> lcc = LocalClusteringCoefficients(g);
  EXPECT_DOUBLE_EQ(lcc[0], 1.0);
  EXPECT_DOUBLE_EQ(lcc[1], 1.0);
  EXPECT_NEAR(lcc[2], 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(lcc[3], 0.0);
}

TEST(TriangleCountTest, KnownCounts) {
  EXPECT_EQ(CountTriangles(CompleteGraph(4)), 4u);
  EXPECT_EQ(CountTriangles(CompleteGraph(5)), 10u);
  Graph path = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  EXPECT_EQ(CountTriangles(path), 0u);
}

TEST(GccTest, TriangleWithTailValue) {
  // 1 triangle, triplets: deg (2,2,3,1) -> 1+1+3+0 = 5. GCC = 3/5.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false,
                             false);
  EXPECT_NEAR(GlobalClusteringCoefficient(g), 0.6, 1e-12);
}

// ---------------------------------------------------------------------------
// Oracles: the clustering coefficients checked against a reference that
// symmetrizes the graph and counts links among v's neighbours by merging
// v's list with each neighbour's (every triangle counted six times). The
// doubles come from the same integers through the same expressions, so
// they must match exactly, not approximately.

std::vector<double> ReferenceLcc(const Graph& g) {
  const Graph ug = g.Symmetrized();
  std::vector<double> lcc(ug.NumVertices(), 0.0);
  for (NodeId v = 0; v < ug.NumVertices(); ++v) {
    auto nbrs = ug.OutNeighborNodes(v);
    size_t deg = nbrs.size();
    if (deg < 2) continue;
    size_t links2 = 0;
    for (NodeId u : nbrs) {
      links2 += SortedIntersectionSize(nbrs, ug.OutNeighborNodes(u));
    }
    lcc[v] = static_cast<double>(links2) /
             (static_cast<double>(deg) * (deg - 1));
  }
  return lcc;
}

double ReferenceMcc(const Graph& g) {
  std::vector<double> lcc = ReferenceLcc(g);
  if (lcc.empty()) return 0.0;
  double sum = 0.0;
  for (double c : lcc) sum += c;
  return sum / static_cast<double>(lcc.size());
}

uint64_t ReferenceTriangles(const Graph& g) {
  const Graph ug = g.Symmetrized();
  uint64_t count = 0;
  for (const Edge& e : ug.Edges()) {
    count += SortedIntersectionSize(ug.OutNeighborNodes(e.u),
                                    ug.OutNeighborNodes(e.v));
  }
  return count / 3;
}

double ReferenceGcc(const Graph& g) {
  const Graph ug = g.Symmetrized();
  uint64_t triangles = ReferenceTriangles(ug);
  double triplets = 0.0;
  for (NodeId v = 0; v < ug.NumVertices(); ++v) {
    double d = static_cast<double>(ug.OutDegree(v));
    triplets += d * (d - 1.0) / 2.0;
  }
  if (triplets <= 0.0) return 0.0;
  return 3.0 * static_cast<double>(triangles) / triplets;
}

// Every UndirectedCases() shape, a hub-heavy preferential-attachment
// graph, and directed graphs, read as their out-or-in undirected view.
std::vector<GraphCase> ClusteringCases() {
  std::vector<GraphCase> cases = UndirectedCases();
  cases.push_back({"barabasi_albert", [] {
                     Rng rng(71);
                     return BarabasiAlbert(1500, 8, rng);
                   }});
  cases.push_back({"rmat_directed", [] {
                     Rng rng(72);
                     return RMat(10, 6000, 0.57, 0.19, 0.19, true, rng);
                   }});
  cases.push_back({"forest_fire_directed", [] {
                     Rng rng(73);
                     return ForestFireModel(800, 0.37, true, rng);
                   }});
  return cases;
}

// g with vertex v renamed perm[v].
Graph Relabeled(const Graph& g, const std::vector<NodeId>& perm) {
  std::vector<Edge> edges;
  for (const Edge& e : g.Edges()) edges.push_back({perm[e.u], perm[e.v], e.w});
  return Graph::FromEdges(g.NumVertices(), edges, g.IsDirected(),
                          g.IsWeighted());
}

TEST(ClusteringOracleTest, MatchesReferenceExactly) {
  for (const GraphCase& gc : ClusteringCases()) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    EXPECT_EQ(LocalClusteringCoefficients(g), ReferenceLcc(g));
    EXPECT_EQ(MeanClusteringCoefficient(g), ReferenceMcc(g));
    EXPECT_EQ(GlobalClusteringCoefficient(g), ReferenceGcc(g));
    EXPECT_EQ(CountTriangles(g), ReferenceTriangles(g));
  }
}

TEST(ClusteringOracleTest, DirectedCasesExerciseTheOutInMerge) {
  // Guards the cases above. R-MAT has reciprocal arcs, which the out/in
  // merge must collapse into one neighbour; the forest fire's arcs all
  // point from a newer vertex to an older one, so its out- and in-lists
  // are disjoint. Both must close triangles.
  int with_reciprocal = 0;
  for (const GraphCase& gc : ClusteringCases()) {
    Graph g = gc.make();
    if (!g.IsDirected()) continue;
    SCOPED_TRACE(gc.name);
    bool reciprocal = false;
    for (const Edge& e : g.Edges()) reciprocal |= g.HasEdge(e.v, e.u);
    with_reciprocal += reciprocal;
    EXPECT_GT(CountTriangles(g), 0u);
  }
  EXPECT_GE(with_reciprocal, 1);
}

TEST(ClusteringOracleTest, DirectedEqualsSymmetrized) {
  for (const GraphCase& gc : ClusteringCases()) {
    Graph g = gc.make();
    if (!g.IsDirected()) continue;
    SCOPED_TRACE(gc.name);
    Graph s = g.Symmetrized();
    EXPECT_EQ(LocalClusteringCoefficients(g), LocalClusteringCoefficients(s));
    EXPECT_EQ(MeanClusteringCoefficient(g), MeanClusteringCoefficient(s));
    EXPECT_EQ(GlobalClusteringCoefficient(g), GlobalClusteringCoefficient(s));
    EXPECT_EQ(CountTriangles(g), CountTriangles(s));
  }
}

TEST(ClusteringOracleTest, RelabelingPermutesLccOnly) {
  Rng rng(74);
  for (const GraphCase& gc : ClusteringCases()) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    std::vector<NodeId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    rng.Shuffle(&perm);
    Graph h = Relabeled(g, perm);
    std::vector<double> lcc_g = LocalClusteringCoefficients(g);
    std::vector<double> lcc_h = LocalClusteringCoefficients(h);
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      EXPECT_EQ(lcc_h[perm[v]], lcc_g[v]) << "vertex " << v;
    }
    EXPECT_EQ(GlobalClusteringCoefficient(h), GlobalClusteringCoefficient(g));
    EXPECT_EQ(CountTriangles(h), CountTriangles(g));
  }
}

TEST(ClusteringOracleTest, LocalTrianglesSumToThreeTimesTotal) {
  // lcc(v) d(v) (d(v) - 1) / 2 recovers t(v); sum_v t(v) = 3T.
  for (const GraphCase& gc : ClusteringCases()) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    Graph s = g.Symmetrized();
    std::vector<double> lcc = LocalClusteringCoefficients(g);
    long long sum = 0;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      const double d = static_cast<double>(s.OutDegree(v));
      sum += std::llround(lcc[v] * d * (d - 1.0) / 2.0);
    }
    EXPECT_EQ(sum, 3 * static_cast<long long>(CountTriangles(g)));
  }
}

TEST(LouvainTest, RecoverPlantedPartition) {
  Rng gen(61);
  std::vector<int> truth;
  Graph g = PlantedPartition(300, 6, 0.4, 0.005, gen, &truth);
  Rng rng(62);
  Clustering c = LouvainCommunities(g, rng);
  EXPECT_NEAR(c.num_clusters, 6, 2);
  EXPECT_GT(ClusteringF1(c.label, truth), 0.8);
  EXPECT_GT(c.modularity, 0.5);
}

TEST(LouvainTest, DisjointCliquesAreSeparated) {
  std::vector<Edge> edges;
  for (int block = 0; block < 4; ++block) {
    NodeId base = block * 5;
    for (NodeId u = 0; u < 5; ++u) {
      for (NodeId v = u + 1; v < 5; ++v) {
        edges.push_back({base + u, base + v});
      }
    }
  }
  Graph g = Graph::FromEdges(20, edges, false, false);
  Rng rng(63);
  Clustering c = LouvainCommunities(g, rng);
  EXPECT_EQ(c.num_clusters, 4);
  // Members of the same clique share labels.
  for (int block = 0; block < 4; ++block) {
    for (int v = 1; v < 5; ++v) {
      EXPECT_EQ(c.label[block * 5 + v], c.label[block * 5]);
    }
  }
}

TEST(LouvainTest, EmptyGraphSingletons) {
  Graph g = Graph::FromEdges(5, {}, false, false);
  Rng rng(64);
  Clustering c = LouvainCommunities(g, rng);
  EXPECT_EQ(c.num_clusters, 5);
}

TEST(LouvainTest, ModularityOfPerfectSplit) {
  // Two disjoint triangles; perfect split has modularity 1/2.
  Graph g = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}, false, false);
  std::vector<int> label = {0, 0, 0, 1, 1, 1};
  EXPECT_NEAR(Modularity(g, label), 0.5, 1e-12);
  std::vector<int> merged(6, 0);
  EXPECT_NEAR(Modularity(g, merged), 0.0, 1e-12);
}

TEST(ClusteringF1Test, IdenticalClusteringsScoreOne) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(ClusteringF1(a, a), 1.0);
}

TEST(ClusteringF1Test, LabelPermutationInvariant) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  std::vector<int> b = {5, 5, 9, 9, 7, 7};
  EXPECT_DOUBLE_EQ(ClusteringF1(a, b), 1.0);
}

TEST(ClusteringF1Test, AllMergedVsSplit) {
  // One big cluster against a 3-way reference: precision = best block / n
  // = 2/6; recall = every reference cluster fully covered = 6/6.
  // F1 = 2 * (1/3 * 1) / (1/3 + 1) = 0.5.
  std::vector<int> merged(6, 0);
  std::vector<int> ref = {0, 0, 1, 1, 2, 2};
  EXPECT_NEAR(ClusteringF1(merged, ref), 0.5, 1e-12);
}

TEST(ClusteringF1Test, SizeMismatchReturnsZero) {
  EXPECT_DOUBLE_EQ(ClusteringF1({0, 1}, {0}), 0.0);
  EXPECT_DOUBLE_EQ(ClusteringF1({}, {}), 0.0);
}

TEST(ClusteringF1Test, FragmentationPenalized) {
  // Singletons vs 2 reference blocks: perfectly pure (precision 1) but
  // each reference cluster is best-covered by a single vertex (recall
  // 2/4) -> F1 = 2 * 0.5 / 1.5 = 2/3 < 1. Shattering costs score, as in
  // the paper's Fig. 10.
  std::vector<int> single = {0, 1, 2, 3};
  std::vector<int> ref = {0, 0, 1, 1};
  EXPECT_NEAR(ClusteringF1(single, ref), 2.0 / 3.0, 1e-12);
  // Merging against a singleton reference: precision 1/4, recall 1.
  std::vector<int> merged = {0, 0, 0, 0};
  EXPECT_NEAR(ClusteringF1(merged, single), 0.4, 1e-12);
}

}  // namespace
}  // namespace sparsify
