// Tests for centrality metrics against analytically known values on small
// graphs, plus sampled-vs-exact cross-validation mirroring the paper's
// section 3.3.3, and closeness against the per-source loop it replaced.
#include "src/metrics/centrality.h"

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_graphs.h"

namespace sparsify {
namespace {

Graph StarGraph(NodeId leaves) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return Graph::FromEdges(leaves + 1, edges, false, false);
}

TEST(BetweennessTest, StarCenterDominates) {
  Graph g = StarGraph(6);
  std::vector<double> b = BetweennessCentrality(g);
  // Center lies on all 6*5/2 = 15 leaf pairs.
  EXPECT_DOUBLE_EQ(b[0], 15.0);
  for (NodeId v = 1; v <= 6; ++v) EXPECT_DOUBLE_EQ(b[v], 0.0);
}

TEST(BetweennessTest, PathGraphValues) {
  // Path 0-1-2-3: b(1) = pairs {0,2},{0,3} = 2; plus... b(1)= {0-2,0-3} =2,
  // b(2) = {0-3,1-3} = 2.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, false, false);
  std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
  EXPECT_DOUBLE_EQ(b[3], 0.0);
}

TEST(BetweennessTest, EvenSplitAcrossParallelPaths) {
  // Diamond: 0-1-3 and 0-2-3; vertices 1,2 each carry half of pair (0,3).
  Graph g = Graph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, false,
                             false);
  std::vector<double> b = BetweennessCentrality(g);
  EXPECT_DOUBLE_EQ(b[1], 0.5);
  EXPECT_DOUBLE_EQ(b[2], 0.5);
}

TEST(BetweennessTest, SampledApproximatesExact) {
  Rng gen(51);
  Graph g = BarabasiAlbert(200, 3, gen);
  std::vector<double> exact = BetweennessCentrality(g);
  Rng rng(52);
  std::vector<double> approx = ApproxBetweennessCentrality(g, 150, rng);
  // Top-20 rankings should mostly agree (paper validates 500 pivots).
  EXPECT_GE(TopKPrecision(exact, approx, 20), 0.7);
}

TEST(ClosenessTest, StarCenterHighest) {
  Graph g = StarGraph(8);
  std::vector<double> c = ClosenessCentrality(g);
  for (NodeId v = 1; v <= 8; ++v) EXPECT_GT(c[0], c[v]);
}

TEST(ClosenessTest, PathEndpointsLowest) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false,
                             false);
  std::vector<double> c = ClosenessCentrality(g);
  EXPECT_GT(c[2], c[0]);
  EXPECT_GT(c[2], c[4]);
  EXPECT_DOUBLE_EQ(c[0], c[4]);  // symmetry
}

TEST(ClosenessTest, DisconnectedScaledByReachability) {
  // Vertex in a big component should outrank a vertex in a 2-clique even
  // if the 2-clique distance sum is tiny (Wasserman-Faust correction).
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {5, 6}},
                             false, false);
  std::vector<double> c = ClosenessCentrality(g);
  EXPECT_GT(c[0], c[5]);
}

// The closeness loop that ran one traversal per vertex before the
// multi-source BFS, kept as the reference: distances folded as doubles in
// ascending vertex order.
std::vector<double> PerSourceCloseness(const Graph& g) {
  const NodeId n = g.NumVertices();
  std::vector<double> closeness(n, 0.0);
  TraversalScratch scratch;
  for (NodeId v = 0; v < n; ++v) {
    Traverse(g, v, scratch);
    double sum = 0.0;
    double reachable = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (u != v && scratch.Reached(u)) {
        sum += scratch.DistanceOf(u);
        reachable += 1.0;
      }
    }
    if (sum > 0.0 && n > 1) {
      closeness[v] = (reachable / (n - 1.0)) * (reachable / sum);
    }
  }
  return closeness;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& name) {
  ASSERT_EQ(got.size(), want.size()) << name;
  if (got.empty()) return;  // memcmp must not see empty vectors' null data
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << name;
}

// Every UndirectedCases() shape with and without weights (the weighted
// one runs per-source Dijkstra), directed RMat and forest-fire graphs,
// and n = 0 and n = 1.
std::vector<std::pair<std::string, Graph>> ClosenessGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const GraphCase& c : UndirectedCases()) {
    Graph g = c.make();
    graphs.emplace_back(c.name + "_unweighted", g.Unweighted());
    graphs.emplace_back(c.name, std::move(g));
  }
  Rng rng(51);
  graphs.emplace_back("rmat_directed",
                      RMat(8, 900, 0.57, 0.19, 0.19, true, rng));
  graphs.emplace_back("forest_fire_directed",
                      ForestFireModel(300, 0.35, true, rng));
  graphs.emplace_back("n0", Graph::FromEdges(0, {}, false, false));
  graphs.emplace_back("n1", Graph::FromEdges(1, {}, false, false));
  return graphs;
}

TEST(ClosenessTest, BitIdenticalToPerSourceLoop) {
  ThreadPool pool(4);
  for (const auto& [name, g] : ClosenessGraphs()) {
    const std::vector<double> want = PerSourceCloseness(g);
    ExpectSameBits(ClosenessCentrality(g), want, name);
    SubtaskPoolScope scope(&pool);
    ExpectSameBits(ClosenessCentrality(g), want, name + " (pool)");
  }
}

// The centrality workload's graph: ca-AstroPh@0.6 subgraphs that keep
// 100%, 50% and 10% of the edges.
TEST(ClosenessTest, BitIdenticalToPerSourceLoopOnAstroPhSubgraphs) {
  const Graph g = LoadDatasetScaled("ca-AstroPh", 0.6).graph;
  for (double keep : {1.0, 0.5, 0.1}) {
    Rng rng(53);
    std::vector<uint8_t> mask(g.NumEdges());
    for (uint8_t& m : mask) m = rng.NextBernoulli(keep) ? 1 : 0;
    const Graph h = g.Subgraph(mask);
    ASSERT_FALSE(h.IsWeighted());
    ExpectSameBits(ClosenessCentrality(h), PerSourceCloseness(h),
                   "keep=" + std::to_string(keep));
  }
}

TEST(EigenvectorTest, UniformOnCycle) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 8; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 8)});
  }
  Graph g = Graph::FromEdges(8, edges, false, false);
  std::vector<double> x = EigenvectorCentrality(g);
  for (NodeId v = 1; v < 8; ++v) EXPECT_NEAR(x[v], x[0], 1e-9);
}

TEST(EigenvectorTest, HubHighestOnStar) {
  Graph g = StarGraph(10);
  std::vector<double> x = EigenvectorCentrality(g);
  for (NodeId v = 1; v <= 10; ++v) EXPECT_GT(x[0], x[v]);
}

TEST(KatzTest, HigherDegreeHigherScore) {
  Graph g = StarGraph(5);
  std::vector<double> k = KatzCentrality(g);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_GT(k[0], k[v]);
}

TEST(KatzTest, AllPositive) {
  Rng gen(53);
  Graph g = ErdosRenyi(60, 150, true, gen);
  for (double ki : KatzCentrality(g)) EXPECT_GE(ki, 1.0);
}

TEST(PageRankTest, SumsToOne) {
  Rng gen(54);
  Graph g = RMat(8, 1000, 0.57, 0.19, 0.19, true, gen);
  std::vector<double> pr = PageRank(g);
  double sum = 0.0;
  for (double p : pr) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // 0 -> 1, 1 dangles. Ranks must still sum to 1 and 1 outranks 0.
  Graph g = Graph::FromEdges(2, {{0, 1}}, true, false);
  std::vector<double> pr = PageRank(g);
  EXPECT_NEAR(pr[0] + pr[1], 1.0, 1e-9);
  EXPECT_GT(pr[1], pr[0]);
}

TEST(PageRankTest, SymmetricGraphUniformDegreeUniformRank) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < 10; ++v) {
    edges.push_back({v, static_cast<NodeId>((v + 1) % 10)});
  }
  Graph g = Graph::FromEdges(10, edges, false, false);
  std::vector<double> pr = PageRank(g);
  for (NodeId v = 1; v < 10; ++v) EXPECT_NEAR(pr[v], pr[0], 1e-9);
}

TEST(TopKTest, PrecisionBounds) {
  std::vector<double> a = {5, 4, 3, 2, 1, 0};
  std::vector<double> b = {5, 4, 3, 2, 1, 0};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, b, 3), 1.0);
  std::vector<double> c = {0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, c, 3), 0.0);
}

TEST(TopKTest, PartialOverlap) {
  std::vector<double> a = {10, 9, 8, 0, 0, 0};
  std::vector<double> b = {10, 0, 8, 9, 0, 0};  // {0,3,2} vs {0,1,2}
  EXPECT_NEAR(TopKPrecision(a, b, 3), 2.0 / 3.0, 1e-12);
}

TEST(TopKTest, KLargerThanN) {
  std::vector<double> a = {1, 2};
  EXPECT_DOUBLE_EQ(TopKPrecision(a, a, 100), 1.0);
}

TEST(TopKIndicesTest, OrderedAndTieBroken) {
  std::vector<double> s = {1.0, 3.0, 3.0, 2.0};
  std::vector<NodeId> top = TopKIndices(s, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie with 2 broken by index
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
}

}  // namespace
}  // namespace sparsify
