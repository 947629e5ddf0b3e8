// Tests for centrality metrics against analytically known values on small
// graphs, plus sampled-vs-exact cross-validation mirroring the paper's
// section 3.3.3, closeness against the per-source loop it replaced, and
// betweenness against the Brandes loop it replaced and a brute-force
// all-pairs path count.
#include "src/metrics/centrality.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

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
// one runs per-source Dijkstra; betweenness ignores weights), directed
// RMat and forest-fire graphs, a sparse directed graph with many
// components, and n = 0 and n = 1.
std::vector<std::pair<std::string, Graph>> CentralityGraphs() {
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
  graphs.emplace_back("er_sparse_directed", ErdosRenyi(120, 100, true, rng));
  graphs.emplace_back("n0", Graph::FromEdges(0, {}, false, false));
  graphs.emplace_back("n1", Graph::FromEdges(1, {}, false, false));
  return graphs;
}

TEST(ClosenessTest, BitIdenticalToPerSourceLoop) {
  ThreadPool pool(4);
  for (const auto& [name, g] : CentralityGraphs()) {
    const std::vector<double> want = PerSourceCloseness(g);
    ExpectSameBits(ClosenessCentrality(g), want, name);
    SubtaskPoolScope scope(&pool);
    ExpectSameBits(ClosenessCentrality(g), want, name + " (pool)");
  }
}

// The centrality workload's graph: ca-AstroPh@0.6 random (RN) subgraphs
// that keep 100%, 50% and 10% of the edges, named by that share.
std::vector<std::pair<std::string, Graph>> AstroPhSubgraphs() {
  const Graph g = LoadDatasetScaled("ca-AstroPh", 0.6).graph;
  std::vector<std::pair<std::string, Graph>> graphs;
  for (double keep : {1.0, 0.5, 0.1}) {
    Rng rng(53);
    std::vector<uint8_t> mask(g.NumEdges());
    for (uint8_t& m : mask) m = rng.NextBernoulli(keep) ? 1 : 0;
    graphs.emplace_back("keep=" + std::to_string(keep), g.Subgraph(mask));
  }
  return graphs;
}

TEST(ClosenessTest, BitIdenticalToPerSourceLoopOnAstroPhSubgraphs) {
  for (const auto& [name, h] : AstroPhSubgraphs()) {
    ASSERT_FALSE(h.IsWeighted());
    ExpectSameBits(ClosenessCentrality(h), PerSourceCloseness(h), name);
  }
}

// The Brandes accumulation before the backward pass walked a recorded
// shortest-path DAG, kept as the reference: the backward pass rescans
// every out-arc and re-tests reach, level and sigma. Verbatim but for
// sigma/delta, which the scratch no longer holds.
void LegacyBrandesAccumulate(const Graph& g, NodeId src, double scale,
                             std::vector<double>* centrality,
                             TraversalScratch& s, std::vector<double>& sigma,
                             std::vector<double>& delta) {
  const NodeId n = g.NumVertices();
  s.Begin(n, /*weighted=*/false);
  sigma.assign(n, 0.0);
  delta.assign(n, 0.0);
  std::vector<NodeId> order;

  sigma[src] = 1.0;
  s.MarkReached(src);
  s.level_[src] = 0;
  s.frontier_.push_back(src);
  for (size_t head = 0; head < s.frontier_.size(); ++head) {
    NodeId v = s.frontier_[head];
    order.push_back(v);
    for (NodeId u : g.OutNeighborNodes(v)) {
      if (!s.Reached(u)) {
        s.MarkReached(u);
        s.level_[u] = s.level_[v] + 1;
        s.frontier_.push_back(u);
      }
      if (s.level_[u] == s.level_[v] + 1) sigma[u] += sigma[v];
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId w = *it;
    for (NodeId u : g.OutNeighborNodes(w)) {
      if (s.Reached(u) && s.level_[u] == s.level_[w] + 1 && sigma[u] > 0.0) {
        delta[w] += sigma[w] / sigma[u] * (1.0 + delta[u]);
      }
    }
    if (w != src) (*centrality)[w] += scale * delta[w];
  }
}

std::vector<double> LegacyBetweenness(const Graph& g) {
  std::vector<double> centrality(g.NumVertices(), 0.0);
  TraversalScratch scratch;
  std::vector<double> sigma, delta;
  for (NodeId s = 0; s < g.NumVertices(); ++s) {
    LegacyBrandesAccumulate(g, s, 1.0, &centrality, scratch, sigma, delta);
  }
  if (!g.IsDirected()) {
    for (double& c : centrality) c *= 0.5;
  }
  return centrality;
}

// The sampled driver's pivots, batches of 32 and batch-order fold, run
// serially.
std::vector<double> LegacyApproxBetweenness(const Graph& g, int num_samples,
                                            Rng& rng) {
  const NodeId n = g.NumVertices();
  std::vector<double> centrality(n, 0.0);
  if (n == 0) return centrality;
  int samples = std::min<int>(num_samples, n);
  double scale = static_cast<double>(n) / samples;
  std::vector<uint64_t> pivots = rng.SampleWithoutReplacement(n, samples);
  constexpr size_t kBatch = 32;
  TraversalScratch scratch;
  std::vector<double> sigma, delta;
  for (size_t b = 0; b * kBatch < pivots.size(); ++b) {
    std::vector<double> partial(n, 0.0);
    size_t end = std::min(pivots.size(), (b + 1) * kBatch);
    for (size_t s = b * kBatch; s < end; ++s) {
      LegacyBrandesAccumulate(g, static_cast<NodeId>(pivots[s]), scale,
                              &partial, scratch, sigma, delta);
    }
    for (NodeId v = 0; v < n; ++v) centrality[v] += partial[v];
  }
  if (!g.IsDirected()) {
    for (double& c : centrality) c *= 0.5;
  }
  return centrality;
}

// Exact and 300-pivot sampled betweenness, serially and with a 4-thread
// subtask pool (the sampled batches fan out), against the legacy loop.
void ExpectBetweennessMatchesLegacy(const Graph& g, const std::string& name,
                                    bool exact) {
  ThreadPool pool(4);
  const std::vector<double> want_exact =
      exact ? LegacyBetweenness(g) : std::vector<double>();
  Rng want_rng(57);
  const std::vector<double> want_approx =
      LegacyApproxBetweenness(g, 300, want_rng);
  for (bool pooled : {false, true}) {
    SubtaskPoolScope scope(pooled ? &pool : nullptr);
    const std::string label = name + (pooled ? " (pool)" : "");
    if (exact) ExpectSameBits(BetweennessCentrality(g), want_exact, label);
    Rng rng(57);
    ExpectSameBits(ApproxBetweennessCentrality(g, 300, rng), want_approx,
                   label + " sampled");
  }
}

TEST(BetweennessTest, BitIdenticalToLegacyBrandes) {
  for (const auto& [name, g] : CentralityGraphs()) {
    ExpectBetweennessMatchesLegacy(g, name, /*exact=*/true);
  }
}

TEST(BetweennessTest, BitIdenticalToLegacyBrandesOnAstroPhSubgraphs) {
  for (const auto& [name, h] : AstroPhSubgraphs()) {
    ExpectBetweennessMatchesLegacy(h, name, /*exact=*/false);
  }
}

// Brute force from the definition: sum over ordered pairs s != v != t of
// sigma_sv * sigma_vt / sigma_st, over the t with
// d(s, v) + d(v, t) == d(s, t), halved on undirected graphs. Path counts
// come from one BFS per source and are exact integers.
std::vector<double> BruteForceBetweenness(const Graph& g) {
  const NodeId n = g.NumVertices();
  constexpr uint32_t kUnreached = UINT32_MAX;
  std::vector<std::vector<uint32_t>> dist(n,
                                          std::vector<uint32_t>(n, kUnreached));
  std::vector<std::vector<uint64_t>> paths(n, std::vector<uint64_t>(n, 0));
  for (NodeId s = 0; s < n; ++s) {
    std::vector<NodeId> queue = {s};
    dist[s][s] = 0;
    paths[s][s] = 1;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (NodeId u : g.OutNeighborNodes(v)) {
        if (dist[s][u] == kUnreached) {
          dist[s][u] = dist[s][v] + 1;
          queue.push_back(u);
        }
        if (dist[s][u] == dist[s][v] + 1) paths[s][u] += paths[s][v];
      }
    }
  }
  std::vector<double> centrality(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) {
      if (s == v || dist[s][v] == kUnreached) continue;
      for (NodeId t = 0; t < n; ++t) {
        if (t == v || t == s || dist[v][t] == kUnreached) continue;
        if (dist[s][v] + dist[v][t] != dist[s][t]) continue;
        centrality[v] += static_cast<double>(paths[s][v] * paths[v][t]) /
                         static_cast<double>(paths[s][t]);
      }
    }
  }
  if (!g.IsDirected()) {
    for (double& c : centrality) c *= 0.5;
  }
  return centrality;
}

TEST(BetweennessTest, ExactMatchesBruteForcePathCounts) {
  Rng rng(59);
  for (bool directed : {false, true}) {
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId n = 25 + 10 * trial;
      const Graph g = ErdosRenyi(n, 2 * n, directed, rng);
      const std::vector<double> want = BruteForceBetweenness(g);
      const std::vector<double> got = BetweennessCentrality(g);
      ASSERT_EQ(got.size(), want.size());
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_NEAR(got[v], want[v], 1e-9 * std::max(1.0, want[v]))
            << (directed ? "directed" : "undirected") << " n=" << n
            << " v=" << v;
      }
    }
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
