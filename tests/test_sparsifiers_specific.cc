// Algorithm-specific tests: each sparsifier's defining guarantee from the
// paper's section 2.3 (K-Neighbor's min-degree, Local Degree's >=1 edge per
// vertex, spanning forest's connectivity, the t-Spanner stretch bound, ER's
// quadratic-form preservation, similarity orderings, etc.).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/linalg/cg.h"
#include "src/linalg/laplacian.h"
#include "src/linalg/vector_ops.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/sparsifiers/effective_resistance.h"
#include "src/sparsifiers/k_neighbor.h"
#include "src/sparsifiers/local_degree.h"
#include "src/sparsifiers/similarity.h"
#include "src/sparsifiers/spanning_forest.h"
#include "src/sparsifiers/t_spanner.h"
#include "src/util/rng.h"
#include "tests/test_graphs.h"

namespace sparsify {
namespace {

Graph SocialGraph() {
  Rng rng(101);
  return BarabasiAlbert(400, 5, rng);
}

// --------------------------------------------------------------------------
// K-Neighbor

TEST(KNeighborTest, EveryVertexKeepsMinKEdges) {
  Graph g = SocialGraph();
  Rng rng(1);
  KNeighborSparsifier kn;
  Graph h = kn.SparsifyWithK(g, 3, rng);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    NodeId expect = std::min<NodeId>(3, g.OutDegree(v));
    EXPECT_GE(h.OutDegree(v), expect) << "vertex " << v;
  }
}

TEST(KNeighborTest, LargeKKeepsEverything) {
  Graph g = SocialGraph();
  Rng rng(2);
  KNeighborSparsifier kn;
  Graph h = kn.SparsifyWithK(g, g.MaxDegree(), rng);
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
}

TEST(KNeighborTest, WeightProportionalSelection) {
  // Star with one heavy edge: the heavy edge should be kept far more often.
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= 20; ++v) {
    edges.push_back({0, v, v == 1 ? 100.0 : 1.0});
  }
  Graph g = Graph::FromEdges(21, edges, false, true);
  KNeighborSparsifier kn;
  int heavy_kept = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Rng rng(1000 + trial);
    Graph h = kn.SparsifyWithK(g, 1, rng);
    // Leaves keep their only edge; look at whether 0's chosen edge when
    // k=1 is the heavy one. Count how often the heavy edge survives.
    if (h.HasEdge(0, 1)) ++heavy_kept;
  }
  EXPECT_GT(heavy_kept, 40);  // ~100/119 probability per trial
}

// --------------------------------------------------------------------------
// Local Degree

TEST(LocalDegreeTest, EveryVertexKeepsAtLeastOneEdge) {
  Graph g = SocialGraph();
  LocalDegreeSparsifier ld;
  Graph h = ld.SparsifyWithAlpha(g, 0.0);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0) {
      EXPECT_GE(h.OutDegree(v), 1u) << "vertex " << v;
    }
  }
}

TEST(LocalDegreeTest, AlphaOneKeepsEverything) {
  Graph g = SocialGraph();
  LocalDegreeSparsifier ld;
  Graph h = ld.SparsifyWithAlpha(g, 1.0);
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
}

TEST(LocalDegreeTest, KeepsHighDegreeNeighbors) {
  // Star + pendant: the hub is every leaf's highest-degree neighbor.
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.push_back({0, v});
  edges.push_back({1, 2});  // low-degree side edge
  Graph g = Graph::FromEdges(11, edges, false, false);
  LocalDegreeSparsifier ld;
  Graph h = ld.SparsifyWithAlpha(g, 0.0);
  // Every leaf keeps its edge to the hub (degree 10 beats degree 2).
  for (NodeId v = 3; v <= 10; ++v) EXPECT_TRUE(h.HasEdge(0, v));
}

TEST(LocalDegreeTest, MonotoneInAlpha) {
  Graph g = SocialGraph();
  LocalDegreeSparsifier ld;
  EdgeId prev = 0;
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EdgeId count = ld.SparsifyWithAlpha(g, alpha).NumEdges();
    EXPECT_GE(count, prev);
    prev = count;
  }
}

// --------------------------------------------------------------------------
// Spanning Forest

TEST(SpanningForestTest, TreeEdgeCountOnConnectedGraph) {
  Graph g = SocialGraph();
  Rng rng(3);
  SpanningForestSparsifier sf;
  Graph h = sf.Sparsify(g, 0.0, rng);
  EXPECT_EQ(h.NumEdges(), g.NumVertices() - 1);
  EXPECT_EQ(ConnectedComponents(h).num_components, 1u);
}

TEST(SpanningForestTest, PreservesComponentsExactly) {
  Rng gen(4);
  Graph a = ErdosRenyi(50, 120, false, gen);
  Graph b = ErdosRenyi(40, 100, false, gen);
  std::vector<Edge> edges = a.Edges();
  for (const Edge& e : b.Edges()) {
    edges.push_back({e.u + 50, e.v + 50, e.w});
  }
  Graph g = Graph::FromEdges(90, edges, false, false);
  Rng rng(5);
  Graph h = SpanningForestSparsifier().Sparsify(g, 0.0, rng);
  ComponentResult co = ConnectedComponents(g);
  ComponentResult ch = ConnectedComponents(h);
  EXPECT_EQ(ch.num_components, co.num_components);
  for (NodeId u = 0; u < g.NumVertices(); ++u) {
    for (NodeId v = u + 1; v < g.NumVertices(); v += 7) {
      EXPECT_EQ(co.label[u] == co.label[v], ch.label[u] == ch.label[v]);
    }
  }
}

TEST(SpanningForestTest, AcyclicOutput) {
  Graph g = SocialGraph();
  Rng rng(6);
  Graph h = SpanningForestSparsifier().Sparsify(g, 0.0, rng);
  // A forest has |V| - #components edges -> no cycles.
  EXPECT_EQ(h.NumEdges() + ConnectedComponents(h).num_components,
            h.NumVertices());
}

TEST(SpanningForestTest, MinimumWeightOnWeightedGraph) {
  // Triangle with one heavy edge: MSF must drop the heavy edge.
  Graph g = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 10.0}},
                             false, true);
  Rng rng(7);
  Graph h = SpanningForestSparsifier().Sparsify(g, 0.0, rng);
  EXPECT_EQ(h.NumEdges(), 2u);
  EXPECT_FALSE(h.HasEdge(0, 2));
}

// The forest oracle: SF keeps exactly n - c edges, and its subgraph has
// the input's c components.
void ExpectSpanningForest(const Graph& g, const std::string& name) {
  Rng rng(9);
  const Graph h = SpanningForestSparsifier().Sparsify(g, 0.0, rng);
  const NodeId c = ConnectedComponents(g).num_components;
  EXPECT_EQ(h.NumEdges(), g.NumVertices() - c) << name;
  EXPECT_EQ(ConnectedComponents(h).num_components, c) << name;
}

TEST(SpanningForestTest, ForestOracleOnEveryShape) {
  for (const GraphCase& c : UndirectedCases()) {
    ExpectSpanningForest(c.make(), c.name);
  }
}

// Symmetrized, as the engine hands directed datasets to SF.
TEST(SpanningForestTest, ForestOracleOnEveryDatasetAtTenthScale) {
  for (const std::string& name : DatasetNames()) {
    ExpectSpanningForest(LoadDatasetScaled(name, 0.1).graph.Symmetrized(),
                         name + "@0.1");
  }
}

TEST(SpanningForestTest, DirectedThrows) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, true, false);
  Rng rng(8);
  EXPECT_THROW(SpanningForestSparsifier().Sparsify(g, 0.0, rng),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// t-Spanner

class TSpannerStretchTest : public ::testing::TestWithParam<double> {};

TEST_P(TSpannerStretchTest, StretchBoundHolds) {
  double t = GetParam();
  Rng gen(9);
  Graph g = ErdosRenyi(120, 600, false, gen);
  Rng rng(10);
  Graph h = TSpannerSparsifier(t).Sparsify(g, 0.0, rng);
  // Property: for sampled sources, d_H <= t * d_G for all reachable pairs.
  for (NodeId src = 0; src < g.NumVertices(); src += 13) {
    std::vector<double> dg = ShortestPathDistances(g, src);
    std::vector<double> dh = ShortestPathDistances(h, src);
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      if (dg[v] == kInfDistance) continue;
      ASSERT_NE(dh[v], kInfDistance);
      EXPECT_LE(dh[v], t * dg[v] + 1e-9);
    }
  }
}

TEST_P(TSpannerStretchTest, StretchBoundHoldsWeighted) {
  double t = GetParam();
  Rng gen(11);
  Graph g = WithRandomWeights(ErdosRenyi(80, 400, false, gen), 5.0, gen);
  Rng rng(12);
  Graph h = TSpannerSparsifier(t).Sparsify(g, 0.0, rng);
  for (NodeId src = 0; src < g.NumVertices(); src += 17) {
    std::vector<double> dg = ShortestPathDistances(g, src);
    std::vector<double> dh = ShortestPathDistances(h, src);
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      if (dg[v] == kInfDistance) continue;
      ASSERT_NE(dh[v], kInfDistance);
      EXPECT_LE(dh[v], t * dg[v] + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stretch357, TSpannerStretchTest,
                         ::testing::Values(3.0, 5.0, 7.0),
                         [](const ::testing::TestParamInfo<double>& i) {
                           return "t" + std::to_string(
                                            static_cast<int>(i.param));
                         });

TEST(TSpannerTest, LargerTPrunesMore) {
  Rng gen(13);
  Graph g = ErdosRenyi(150, 900, false, gen);
  Rng rng(14);
  EdgeId e3 = TSpannerSparsifier(3).Sparsify(g, 0.0, rng).NumEdges();
  EdgeId e7 = TSpannerSparsifier(7).Sparsify(g, 0.0, rng).NumEdges();
  EXPECT_LE(e7, e3);
}

TEST(TSpannerTest, PreservesConnectivity) {
  Graph g = SocialGraph();
  Rng rng(15);
  Graph h = TSpannerSparsifier(5).Sparsify(g, 0.0, rng);
  EXPECT_EQ(ConnectedComponents(h).num_components,
            ConnectedComponents(g).num_components);
}

TEST(TSpannerTest, InvalidStretchThrows) {
  EXPECT_THROW(TSpannerSparsifier(1.0), std::invalid_argument);
}

// The greedy spanner as first written: edges in stable ascending-weight
// order, each tested with a fresh std::priority_queue Dijkstra over
// per-vertex adjacency vectors. The production scan (flat adjacency,
// bidirectional hop-bounded BFS on unit weights) must match it bit for bit.
std::vector<uint8_t> ReferenceSpannerMask(const Graph& g, double t) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<EdgeId> order(g.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.EdgeWeight(a) < g.EdgeWeight(b);
  });
  std::vector<std::vector<std::pair<NodeId, double>>> adj(g.NumVertices());
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  std::vector<double> dist(g.NumVertices(), inf);
  std::vector<NodeId> touched;
  for (EdgeId e : order) {
    const Edge& ed = g.CanonicalEdge(e);
    const double bound = t * ed.w;
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[ed.u] = 0.0;
    touched.push_back(ed.u);
    pq.emplace(0.0, ed.u);
    double d_uv = inf;
    while (!pq.empty()) {
      auto [d, v] = pq.top();
      pq.pop();
      if (d > dist[v]) continue;
      if (v == ed.v) {
        d_uv = d;
        break;
      }
      if (d > bound) break;
      for (auto [w, ew] : adj[v]) {
        const double nd = d + ew;
        if (nd < dist[w] && nd <= bound) {
          dist[w] = nd;
          touched.push_back(w);
          pq.emplace(nd, w);
        }
      }
    }
    for (NodeId v : touched) dist[v] = inf;
    touched.clear();
    if (d_uv > bound) {
      keep[e] = 1;
      adj[ed.u].emplace_back(ed.v, ed.w);
      adj[ed.v].emplace_back(ed.u, ed.w);
    }
  }
  return keep;
}

Graph MakeHubHeavy() {
  Rng rng(501);
  return BarabasiAlbert(1000, 5, rng);
}

// Weights from {1, 2, 3}: many equal keys, so the stable greedy order and
// the heap's (distance, vertex) tie-breaking both matter.
Graph MakeTiedWeights() {
  Rng rng(502);
  std::vector<Edge> edges = ErdosRenyi(200, 900, false, rng).Edges();
  for (size_t i = 0; i < edges.size(); ++i) edges[i].w = 1.0 + (i % 3);
  return Graph::FromEdges(200, edges, false, /*weighted=*/true);
}

// Flagged weighted but every weight is 1: takes the unit-weight BFS path.
Graph MakeUnitWeighted() {
  Rng rng(503);
  std::vector<Edge> edges = ErdosRenyi(300, 1200, false, rng).Edges();
  return Graph::FromEdges(300, edges, false, /*weighted=*/true);
}

const std::vector<GraphCase>& SpannerCases() {
  static const std::vector<GraphCase> cases = [] {
    std::vector<GraphCase> all = UndirectedCases();
    all.push_back({"hub_ba", MakeHubHeavy});
    all.push_back({"tied_weights", MakeTiedWeights});
    all.push_back({"unit_weighted", MakeUnitWeighted});
    return all;
  }();
  return cases;
}

class TSpannerGreedyTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {
 protected:
  const GraphCase& Case() const {
    return SpannerCases()[std::get<0>(GetParam())];
  }
  double Stretch() const { return std::get<1>(GetParam()); }
  std::vector<uint8_t> Mask(const Graph& g) const {
    TSpannerSparsifier sp(Stretch());
    Rng rng(16);
    return sp.MaskForRate(*sp.PrepareScores(g, rng), 0.0).keep;
  }
};

// t = 2.5 pins the floor(t) hop rule: on unit weights a 3-hop detour is
// 3 > 2.5, so the edge stays.
TEST_P(TSpannerGreedyTest, MatchesReferenceGreedyBitForBit) {
  Graph g = Case().make();
  EXPECT_EQ(Mask(g), ReferenceSpannerMask(g, Stretch()))
      << Case().name << " t=" << Stretch();
}

// Stretch oracle: every dropped edge (u, v) has a path of length at most
// t * w(u, v) among the kept edges.
TEST_P(TSpannerGreedyTest, DroppedEdgesHaveStretchPaths) {
  Graph g = Case().make();
  std::vector<uint8_t> keep = Mask(g);
  Graph h = g.Subgraph(keep);
  NodeId source = kInvalidNode;
  std::vector<double> dist;
  // Canonical edges are sorted by u, so one SSSP serves each source.
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (keep[e]) continue;
    const Edge& ed = g.CanonicalEdge(e);
    if (ed.u != source) {
      source = ed.u;
      dist = ShortestPathDistances(h, source);
    }
    EXPECT_LE(dist[ed.v], Stretch() * ed.w * (1.0 + 1e-12))
        << Case().name << " t=" << Stretch() << " dropped " << ed.u << "-"
        << ed.v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TSpannerGreedyTest,
    ::testing::Combine(::testing::Range<size_t>(0, SpannerCases().size()),
                       ::testing::Values(2.5, 3.0, 5.0, 7.0)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, double>>& i) {
      return SpannerCases()[std::get<0>(i.param)].name + "_t" +
             std::to_string(static_cast<int>(std::get<1>(i.param) * 10));
    });

// --------------------------------------------------------------------------
// Similarity scores

TEST(JaccardTest, TriangleVsPendant) {
  // Triangle 0-1-2 plus pendant 2-3: triangle edges have Jaccard 1/3
  // (share one neighbor of union 3); pendant edge has 0.
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false,
                             false);
  std::vector<double> jac = JaccardEdgeScores(g);
  EXPECT_NEAR(jac[g.FindEdge(0, 1)], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(jac[g.FindEdge(2, 3)], 0.0, 1e-12);
}

TEST(JaccardTest, CliqueEdgesHaveHighScores) {
  // K5: every edge's endpoints share the other 3 vertices;
  // union = 8 - 2*3 = ... |N(u) u N(v)| = 5 (all but none). Score 3/5.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) edges.push_back({u, v});
  }
  Graph g = Graph::FromEdges(5, edges, false, false);
  for (double s : JaccardEdgeScores(g)) EXPECT_NEAR(s, 3.0 / 5.0, 1e-12);
}

TEST(ScanScoreTest, MatchesFormula) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false,
                             false);
  std::vector<double> scan = ScanEdgeScores(g);
  // Edge (0,1): 1 common neighbor, degrees 2 and 2 -> 2/3.
  EXPECT_NEAR(scan[g.FindEdge(0, 1)], 2.0 / 3.0, 1e-12);
  // Edge (2,3): 0 common, degrees 3 and 1 -> 1/sqrt(8).
  EXPECT_NEAR(scan[g.FindEdge(2, 3)], 1.0 / std::sqrt(8.0), 1e-12);
}

TEST(GSparTest, KeepsIntraCommunityEdges) {
  Rng gen(16);
  std::vector<int> comm;
  Graph g = PlantedPartition(200, 4, 0.4, 0.02, gen, &comm);
  Rng rng(17);
  Graph h = GSparSparsifier().Sparsify(g, 0.5, rng);
  int intra_kept = 0, inter_kept = 0;
  for (const Edge& e : h.Edges()) {
    (comm[e.u] == comm[e.v] ? intra_kept : inter_kept)++;
  }
  int intra_orig = 0, inter_orig = 0;
  for (const Edge& e : g.Edges()) {
    (comm[e.u] == comm[e.v] ? intra_orig : inter_orig)++;
  }
  double intra_rate = static_cast<double>(intra_kept) / intra_orig;
  double inter_rate = static_cast<double>(inter_kept) /
                      std::max(1, inter_orig);
  EXPECT_GT(intra_rate, inter_rate + 0.2);
}

TEST(LSparTest, EveryVertexKeepsAtLeastOneEdge) {
  Graph g = SocialGraph();
  LSparSparsifier ls;
  Graph h = ls.SparsifyWithExponent(g, 0.1);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0) {
      EXPECT_GE(h.OutDegree(v), 1u);
    }
  }
}

TEST(LSparTest, ExponentOneKeepsEverything) {
  Graph g = SocialGraph();
  Graph h = LSparSparsifier().SparsifyWithExponent(g, 1.0);
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
}

// --------------------------------------------------------------------------
// Effective Resistance

TEST(EffectiveResistanceTest, PathGraphResistances) {
  // On a tree, the effective resistance of every edge is exactly its
  // resistance w^{-1}... for unit weights, exactly 1.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, false,
                             false);
  Rng rng(18);
  std::vector<double> r = ApproxEffectiveResistances(g, rng, 64, 1e-10);
  for (double ri : r) EXPECT_NEAR(ri, 1.0, 0.35);  // JL approximation
}

TEST(EffectiveResistanceTest, SumRule) {
  // sum_e w_e R_e = n - #components for any graph.
  Rng gen(19);
  Graph g = BarabasiAlbert(150, 3, gen);
  Rng rng(20);
  std::vector<double> r = ApproxEffectiveResistances(g, rng, 96, 1e-9);
  double sum = 0.0;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) sum += g.EdgeWeight(e) * r[e];
  EXPECT_NEAR(sum, static_cast<double>(g.NumVertices() - 1),
              0.15 * g.NumVertices());
}

TEST(EffectiveResistanceTest, FosterTheoremOnEveryShape) {
  // Foster: sum_e w_e R_e = rank(L) = n - #components exactly. The JL sum
  // is trace(Q P Q^T) for the projection P onto L's edge space, so it is
  // exact on trees (P = I) and within a few percent at k = 400 elsewhere.
  for (const GraphCase& gc : UndirectedCases()) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    const double rank = static_cast<double>(
        g.NumVertices() - ConnectedComponents(g).num_components);
    const bool tree = gc.name == "path" || gc.name == "star";
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      std::vector<double> r = ApproxEffectiveResistances(g, rng, 400);
      double sum = 0.0;
      for (EdgeId e = 0; e < g.NumEdges(); ++e) {
        sum += g.EdgeWeight(e) * r[e];
      }
      EXPECT_LE(std::abs(sum - rank), (tree ? 1e-6 : 0.06) * rank)
          << "seed " << seed;
    }
  }
}

TEST(EffectiveResistanceTest, BridgeHasHighestResistance) {
  // Two K4 cliques joined by one bridge: the bridge has R ~ 1, clique
  // edges far less.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) {
      edges.push_back({u, v});
      edges.push_back({u + 4, v + 4});
    }
  }
  edges.push_back({3, 4});  // bridge
  Graph g = Graph::FromEdges(8, edges, false, false);
  Rng rng(21);
  std::vector<double> r = ApproxEffectiveResistances(g, rng, 128, 1e-10);
  EdgeId bridge = g.FindEdge(3, 4);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (e != bridge) {
      EXPECT_GT(r[bridge], r[e]);
    }
  }
}

TEST(EffectiveResistanceTest, WeightedVariantPreservesQuadraticForm) {
  Rng gen(22);
  Graph g = BarabasiAlbert(300, 6, gen);
  Rng rng(23);
  EffectiveResistanceSparsifier er(true);
  Graph h = er.Sparsify(g, 0.5, rng);
  // Mean quadratic-form ratio over random vectors should be near 1.
  Rng probe(24);
  double ratio_sum = 0.0;
  int count = 0;
  for (int i = 0; i < 30; ++i) {
    Vec x(g.NumVertices());
    for (double& xi : x) xi = probe.NextGaussian();
    double qo = QuadraticForm(g, x);
    if (qo <= 0.0) continue;
    ratio_sum += QuadraticForm(h, x) / qo;
    ++count;
  }
  double mean_ratio = ratio_sum / count;
  EXPECT_GT(mean_ratio, 0.6);
  EXPECT_LT(mean_ratio, 1.4);
}

TEST(EffectiveResistanceTest, UnweightedVariantDoesNotPreserveQuadraticForm) {
  Rng gen(25);
  Graph g = BarabasiAlbert(300, 6, gen);
  Rng rng(26);
  Graph h = EffectiveResistanceSparsifier(false).Sparsify(g, 0.7, rng);
  Rng probe(27);
  double ratio_sum = 0.0;
  int count = 0;
  for (int i = 0; i < 30; ++i) {
    Vec x(g.NumVertices());
    for (double& xi : x) xi = probe.NextGaussian();
    double qo = QuadraticForm(g, x);
    if (qo <= 0.0) continue;
    ratio_sum += QuadraticForm(h, x) / qo;
    ++count;
  }
  // Without reweighting, the form shrinks roughly with the kept fraction.
  EXPECT_LT(ratio_sum / count, 0.6);
}

// Bit-identity oracle. The scalar CG, the one-solve-per-row JL loop and the
// std::lower_bound sampling race as first written are kept below as the
// reference; the production block CG and guide-table race must reproduce
// hit_order, draws_at and p bit for bit and leave the RNG in the same state.

CgResult ReferenceSolveLaplacian(const Graph& g, const Vec& b, Vec* x,
                                 double tol, int max_iters = 2000) {
  const size_t n = g.NumVertices();
  CgResult result;
  Vec deg = WeightedDegrees(g);
  Vec minv(n);
  for (size_t i = 0; i < n; ++i) minv[i] = deg[i] > 0.0 ? 1.0 / deg[i] : 1.0;
  Vec r(n), z(n), p(n), lp(n);
  LaplacianMultiply(g, *x, &lp);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - lp[i];
  double bnorm = Norm2(b);
  if (bnorm == 0.0) {
    x->assign(n, 0.0);
    result.converged = true;
    return result;
  }
  for (size_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
  p = z;
  double rz = Dot(r, z);
  for (int it = 0; it < max_iters; ++it) {
    result.iterations = it + 1;
    LaplacianMultiply(g, p, &lp);
    double plp = Dot(p, lp);
    if (plp <= 0.0) break;
    double alpha = rz / plp;
    Axpy(alpha, p, x);
    Axpy(-alpha, lp, &r);
    double rnorm = Norm2(r);
    result.residual_norm = rnorm;
    if (rnorm <= tol * bnorm) {
      result.converged = true;
      break;
    }
    for (size_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
    double rz_next = Dot(r, z);
    double beta = rz_next / rz;
    rz = rz_next;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    if ((it & 63) == 63) RemoveMean(x);
  }
  return result;
}

std::vector<double> ReferenceResistances(const Graph& g, Rng& rng, int k,
                                         double tol = 1e-6) {
  const size_t n = g.NumVertices();
  const EdgeId m = g.NumEdges();
  if (k <= 0) {
    k = std::max(8, static_cast<int>(std::ceil(
                        8.0 * std::log(std::max<size_t>(2, n)))));
  }
  std::vector<double> resistance(m, 0.0);
  Vec b(n), z(n);
  for (int i = 0; i < k; ++i) {
    std::fill(b.begin(), b.end(), 0.0);
    double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
    for (EdgeId e = 0; e < m; ++e) {
      const double q = rng.NextBernoulli(0.5) ? inv_sqrt_k : -inv_sqrt_k;
      const Edge& ed = g.CanonicalEdge(e);
      double c = q * std::sqrt(ed.w);
      b[ed.u] += c;
      b[ed.v] -= c;
    }
    z.assign(n, 0.0);
    ReferenceSolveLaplacian(g, b, &z, tol);
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& ed = g.CanonicalEdge(e);
      double diff = z[ed.u] - z[ed.v];
      resistance[e] += diff * diff;
    }
  }
  return resistance;
}

struct ReferenceRace {
  std::vector<EdgeId> hit_order;
  std::vector<uint64_t> draws_at;
  std::vector<double> p;
  bool topped_up = false;  // the draw cap stopped the race early
};

ReferenceRace ReferenceErScores(const Graph& g, Rng& rng, bool reweight) {
  ReferenceRace out;
  const EdgeId m = g.NumEdges();
  if (m == 0) return out;
  std::vector<double> p = ReferenceResistances(g, rng, 0);
  double total = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    p[e] = std::max(1e-300, g.EdgeWeight(e) * p[e]);
    total += p[e];
  }
  for (double& pe : p) pe /= total;
  std::vector<double> cum(m);
  double acc = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    acc += p[e];
    cum[e] = acc;
  }
  std::vector<uint8_t> hit(m, 0);
  EdgeId distinct = 0;
  uint64_t draws = 0;
  const uint64_t max_draws = 400ULL * m + 1000000ULL;
  while (distinct < m && draws < max_draws) {
    double r = rng.NextDouble() * acc;
    auto it = std::lower_bound(cum.begin(), cum.end(), r);
    EdgeId e = static_cast<EdgeId>(it - cum.begin());
    if (e >= m) e = m - 1;
    ++draws;
    if (!hit[e]) {
      hit[e] = 1;
      out.hit_order.push_back(e);
      if (reweight) out.draws_at.push_back(draws);
      ++distinct;
    }
  }
  if (distinct < m) {
    out.topped_up = true;
    std::vector<EdgeId> rest;
    for (EdgeId e = 0; e < m; ++e) {
      if (!hit[e]) rest.push_back(e);
    }
    std::sort(rest.begin(), rest.end(), [&](EdgeId a, EdgeId b) {
      return p[a] != p[b] ? p[a] > p[b] : a < b;
    });
    for (EdgeId e : rest) {
      ++draws;
      out.hit_order.push_back(e);
      if (reweight) out.draws_at.push_back(draws);
    }
  }
  if (reweight) out.p = std::move(p);
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Runs both variants on `g` with `seed` against the reference; returns
// whether the reference race hit the draw cap.
bool ExpectErMatchesReference(const Graph& g, uint64_t seed) {
  bool topped_up = false;
  for (bool reweight : {false, true}) {
    SCOPED_TRACE(reweight ? "ER-w" : "ER-uw");
    Rng ref_rng(seed), rng(seed);
    ReferenceRace ref = ReferenceErScores(g, ref_rng, reweight);
    EffectiveResistanceSparsifier er(reweight);
    std::unique_ptr<ScoreState> state = er.PrepareScores(g, rng);
    const auto& got = dynamic_cast<const ErSampleState&>(*state);
    EXPECT_EQ(got.hit_order(), ref.hit_order);
    EXPECT_EQ(got.draws_at(), ref.draws_at);
    EXPECT_TRUE(SameBits(got.p(), ref.p));
    EXPECT_EQ(rng(), ref_rng()) << "RNG streams diverged";
    topped_up = ref.topped_up;
  }
  return topped_up;
}

// Log-uniform weights over 1e-12 .. 1e6: the lightest edges get p ~ 1e-20,
// so the race hits its draw cap and tops up, and the CG columns of one
// block stop at different iterations.
Graph MakeWeightSkewed() {
  Rng rng(504);
  std::vector<Edge> edges = ErdosRenyi(40, 120, false, rng).Edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    const double f = static_cast<double>((i * 37) % edges.size()) /
                     static_cast<double>(edges.size() - 1);
    edges[i].w = std::pow(10.0, -12.0 + 18.0 * f);
  }
  return Graph::FromEdges(40, edges, false, /*weighted=*/true);
}

TEST(EffectiveResistanceTest, RaceMatchesReferenceBitForBitOnEveryShape) {
  for (const GraphCase& gc : UndirectedCases()) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(seed);
      ExpectErMatchesReference(g, seed);
    }
  }
}

TEST(EffectiveResistanceTest, RaceMatchesReferenceThroughDrawCapAndTopUp) {
  Graph g = MakeWeightSkewed();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    EXPECT_TRUE(ExpectErMatchesReference(g, seed))
        << "the skewed graph no longer reaches the top-up path";
  }
}

TEST(EffectiveResistanceTest, RaceMatchesReferenceOnTinyAndIsolatedGraphs) {
  const Graph single = Graph::FromEdges(2, {{0, 1}}, false, false);
  // m = 1 among isolated vertices.
  const Graph lone_edge = Graph::FromEdges(6, {{1, 4, 2.5}}, false, true);
  // A triangle, a separate edge and three isolated vertices.
  const Graph split = Graph::FromEdges(
      8, {{0, 1}, {1, 2}, {0, 2}, {4, 6}}, false, false);
  for (const Graph* g : {&single, &lone_edge, &split}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(seed);
      ExpectErMatchesReference(*g, seed);
    }
  }
}

// Registry graphs at a size the scalar reference solves quickly:
// ego-Facebook is unweighted and human_gene2 weighted, so both the unit and
// the sqrt(w_e) right-hand-side scales are covered on real degree spreads.
TEST(EffectiveResistanceTest, RaceMatchesReferenceOnRegistryGraphs) {
  for (const char* name : {"ego-Facebook", "human_gene2"}) {
    SCOPED_TRACE(name);
    const Graph g = LoadDatasetScaled(name, 0.25).graph;
    ASSERT_FALSE(g.IsDirected());
    ExpectErMatchesReference(g, 41);
  }
}

// k = 1 and 5 leave a last block of one column; 61 (15 full blocks + 1)
// is the ~8 ln n default on ego-Facebook-sized graphs.
TEST(EffectiveResistanceTest, BlockedResistancesMatchScalarReference) {
  std::vector<GraphCase> cases = UndirectedCases();
  cases.push_back({"weight_skewed", MakeWeightSkewed});
  for (const GraphCase& gc : cases) {
    SCOPED_TRACE(gc.name);
    Graph g = gc.make();
    for (int k : {1, 5, 61}) {
      SCOPED_TRACE(k);
      Rng ref_rng(k), rng(k);
      std::vector<double> ref = ReferenceResistances(g, ref_rng, k);
      std::vector<double> got = ApproxEffectiveResistances(g, rng, k);
      EXPECT_TRUE(SameBits(got, ref));
      EXPECT_EQ(rng(), ref_rng());
    }
  }
}

TEST(EffectiveResistanceTest, DirectedThrows) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, true, false);
  Rng rng(28);
  EXPECT_THROW(EffectiveResistanceSparsifier(true).Sparsify(g, 0.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace sparsify
