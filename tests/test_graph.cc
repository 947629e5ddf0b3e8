// Unit tests for the CSR graph core: construction invariants, normalization,
// adjacency queries, subgraphs, symmetrization, preprocessing, and I/O.
#include "src/graph/graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/io.h"
#include "src/graph/union_find.h"
#include "src/util/thread_pool.h"

namespace sparsify {
namespace {

Graph TriangleWithTail() {
  // 0-1, 1-2, 0-2 triangle plus tail 2-3.
  return Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false, false);
}

TEST(GraphTest, BasicCounts) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_FALSE(g.IsDirected());
  EXPECT_FALSE(g.IsWeighted());
}

TEST(GraphTest, UndirectedDegrees) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(1), 2u);
  EXPECT_EQ(g.OutDegree(2), 3u);
  EXPECT_EQ(g.OutDegree(3), 1u);
  EXPECT_EQ(g.MaxDegree(), 3u);
}

TEST(GraphTest, SelfLoopsDropped) {
  Graph g = Graph::FromEdges(3, {{0, 0}, {0, 1}, {1, 1}}, false, false);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, ParallelEdgesMergedUnweighted) {
  Graph g = Graph::FromEdges(2, {{0, 1}, {1, 0}, {0, 1}}, false, false);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0), 1.0);
}

TEST(GraphTest, ParallelEdgesSummedWeighted) {
  Graph g = Graph::FromEdges(2, {{0, 1, 2.0}, {1, 0, 3.0}}, false, true);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0), 5.0);
}

// Every canonical edge with its weight's bits: equal vectors mean the
// same graph, bit for bit.
std::vector<std::tuple<NodeId, NodeId, uint64_t>> EdgeBits(const Graph& g) {
  std::vector<std::tuple<NodeId, NodeId, uint64_t>> out;
  for (const Edge& e : g.Edges()) {
    out.emplace_back(e.u, e.v, std::bit_cast<uint64_t>(e.w));
  }
  return out;
}

// FromEdges' contract: parallel edges sum their weights in input order,
// at any thread count. Each key gets four copies whose weights span many
// magnitudes, so their sum depends on the order (two copies would
// commute), and the input is large enough for the pooled sort to split.
TEST(GraphTest, FromEdgesSumsParallelWeightsInInputOrderAtAnyThreadCount) {
  constexpr NodeId kN = 4000;
  constexpr size_t kKeys = 12000;
  constexpr int kCopies = 4;  // 48,000 edges
  std::mt19937_64 gen(21);
  std::uniform_int_distribution<NodeId> vertex(0, kN - 1);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  std::uniform_int_distribution<int> exponent(-20, 20);
  std::vector<Edge> edges;
  for (size_t k = 0; k < kKeys; ++k) {
    const NodeId u = vertex(gen);
    const NodeId v = vertex(gen);
    for (int c = 0; c < kCopies; ++c) {
      const double w = std::ldexp(mantissa(gen), exponent(gen));
      edges.push_back(c % 2 == 0 ? Edge{u, v, w} : Edge{v, u, w});
    }
  }
  std::shuffle(edges.begin(), edges.end(), gen);
  ASSERT_GE(edges.size(), size_t{1} << 15);

  for (bool directed : {false, true}) {
    // The oracle: sums accumulated in input order.
    std::map<std::pair<NodeId, NodeId>, double> want;
    for (const Edge& e : edges) {
      if (e.u == e.v) continue;
      std::pair<NodeId, NodeId> key(e.u, e.v);
      if (!directed && key.first > key.second) std::swap(key.first, key.second);
      auto [it, inserted] = want.try_emplace(key, e.w);
      if (!inserted) it->second += e.w;
    }
    Graph serial = Graph::FromEdges(kN, edges, directed, true);
    ASSERT_EQ(serial.NumEdges(), want.size());
    size_t i = 0;
    for (const auto& [key, w] : want) {
      const Edge& e = serial.CanonicalEdge(static_cast<EdgeId>(i++));
      ASSERT_EQ(std::make_pair(e.u, e.v), key);
      ASSERT_EQ(std::bit_cast<uint64_t>(e.w), std::bit_cast<uint64_t>(w))
          << "edge " << e.u << "-" << e.v << " directed=" << directed;
    }
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      Graph pooled = Graph::FromEdges(kN, edges, directed, true, &pool);
      EXPECT_EQ(EdgeBits(pooled), EdgeBits(serial))
          << "directed=" << directed << " threads=" << threads;
    }
  }
}

TEST(GraphTest, DirectedKeepsBothArcs) {
  Graph g = Graph::FromEdges(2, {{0, 1}, {1, 0}}, true, false);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, DirectedInOutDegree) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {0, 2}, {1, 2}}, true, false);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_EQ(g.OutDegree(2), 0u);
}

TEST(GraphTest, AdjacencySorted) {
  Graph g = Graph::FromEdges(5, {{0, 4}, {0, 2}, {0, 1}, {0, 3}}, false,
                             false);
  auto nbrs = g.OutNeighborNodes(0);
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(GraphTest, EdgeIdsConsistentBetweenDirections) {
  Graph g = TriangleWithTail();
  EdgeId e = g.FindEdge(0, 1);
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.FindEdge(1, 0), e);  // undirected: same canonical edge
  const Edge& ed = g.CanonicalEdge(e);
  EXPECT_EQ(ed.u, 0u);
  EXPECT_EQ(ed.v, 1u);
}

TEST(GraphTest, FindEdgeMissing) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.FindEdge(0, 3), kInvalidEdge);
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphTest, OutOfRangeEndpointThrows) {
  EXPECT_THROW(Graph::FromEdges(2, {{0, 2}}, false, false),
               std::invalid_argument);
}

TEST(GraphTest, SubgraphKeepsVertexSet) {
  Graph g = TriangleWithTail();
  std::vector<uint8_t> keep(g.NumEdges(), 0);
  keep[0] = 1;
  Graph h = g.Subgraph(keep);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.NumEdges(), 1u);
}

TEST(GraphTest, SubgraphEmptyMask) {
  Graph g = TriangleWithTail();
  Graph h = g.Subgraph(std::vector<uint8_t>(g.NumEdges(), 0));
  EXPECT_EQ(h.NumEdges(), 0u);
  EXPECT_EQ(h.CountIsolated(), 4u);
}

TEST(GraphTest, ReweightedSubgraph) {
  Graph g = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}}, false, true);
  std::vector<uint8_t> keep = {1, 1};
  std::vector<double> w = {2.5, 4.0};
  Graph h = g.ReweightedSubgraph(keep, w);
  EXPECT_TRUE(h.IsWeighted());
  EXPECT_DOUBLE_EQ(h.EdgeWeight(h.FindEdge(0, 1)), 2.5);
  EXPECT_DOUBLE_EQ(h.EdgeWeight(h.FindEdge(1, 2)), 4.0);
}

TEST(GraphTest, SymmetrizedMergesArcs) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}}, true, false);
  Graph u = g.Symmetrized();
  EXPECT_FALSE(u.IsDirected());
  EXPECT_EQ(u.NumEdges(), 2u);
  EXPECT_TRUE(u.HasEdge(2, 1));
}

TEST(GraphTest, SymmetrizedKeepsMaxWeight) {
  Graph g = Graph::FromEdges(2, {{0, 1, 2.0}, {1, 0, 5.0}}, true, true);
  Graph u = g.Symmetrized();
  EXPECT_EQ(u.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(u.EdgeWeight(0), 5.0);
}

TEST(GraphTest, SymmetrizedOnUndirectedIsCopy) {
  Graph g = TriangleWithTail();
  Graph u = g.Symmetrized();
  EXPECT_EQ(u.NumEdges(), g.NumEdges());
}

TEST(GraphTest, UnweightedStripsWeights) {
  Graph g = Graph::FromEdges(2, {{0, 1, 7.0}}, false, true);
  Graph u = g.Unweighted();
  EXPECT_FALSE(u.IsWeighted());
  EXPECT_DOUBLE_EQ(u.EdgeWeight(0), 1.0);
}

TEST(GraphTest, TotalEdgeWeight) {
  Graph g = Graph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}}, false, true);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 5.0);
}

TEST(GraphTest, CountIsolated) {
  Graph g = Graph::FromEdges(5, {{0, 1}}, false, false);
  EXPECT_EQ(g.CountIsolated(), 3u);
}

TEST(RemoveIsolatedVerticesTest, RemovesAndReindexes) {
  Graph g = Graph::FromEdges(6, {{1, 3}, {3, 5}}, false, false);
  std::vector<NodeId> map;
  Graph h = RemoveIsolatedVertices(g, &map);
  EXPECT_EQ(h.NumVertices(), 3u);
  EXPECT_EQ(h.NumEdges(), 2u);
  EXPECT_EQ(h.CountIsolated(), 0u);
  EXPECT_EQ(map[0], kInvalidNode);
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[3], 1u);
  EXPECT_EQ(map[5], 2u);
}

TEST(RemoveIsolatedVerticesTest, NoOpOnCleanGraph) {
  Graph g = TriangleWithTail();
  Graph h = RemoveIsolatedVertices(g);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
}

TEST(IoTest, RoundTripUnweighted) {
  Graph g = TriangleWithTail();
  std::stringstream ss;
  WriteEdgeListStream(g, ss);
  Graph h = ParseEdgeList(ss.str(), false, false);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  for (const Edge& e : g.Edges()) EXPECT_TRUE(h.HasEdge(e.u, e.v));
}

TEST(IoTest, RoundTripWeighted) {
  Graph g = Graph::FromEdges(3, {{0, 1, 2.5}, {1, 2, 0.5}}, true, true);
  std::stringstream ss;
  WriteEdgeListStream(g, ss);
  Graph h = ParseEdgeList(ss.str(), true, true);
  EXPECT_EQ(h.NumEdges(), 2u);
  EXPECT_DOUBLE_EQ(h.EdgeWeight(h.FindEdge(0, 1)), 2.5);
}

// Parser contract (io.h): blank lines hold only ' ', '\t' or '\r' and are
// skipped like comments.
TEST(IoTest, CommentsSkipped) {
  for (const char* text :
       {"# header\n% other comment\n0 1\n1 2\n",
        "\r\n \t\r\n0 1\r\n\t\n \t1\t2 \r\n\r",
        "# header\n\n0 1\n\n1 2"}) {
    Graph g = ParseEdgeList(text, false, false);
    EXPECT_EQ(g.NumVertices(), 3u) << text;
    EXPECT_EQ(g.NumEdges(), 2u) << text;
  }
  EXPECT_EQ(ParseEdgeList("", false, false).NumVertices(), 0u);
}

// Both ids must be on their line and below kInvalidNode (no wrapping).
TEST(IoTest, MalformedLineThrows) {
  const std::pair<const char*, const char*> bad[] = {
      {"0 1\nbogus\n", "bad edge at line 2"},
      {"0 1\n1\n2 3\n", "bad edge at line 2"},  // v on the next line
      {"0 1\n\n2\r\n3 4\n", "bad edge at line 3"},
      {"4294967297 2\n", "bad edge at line 1"},  // 2^32 + 1
      {"0 4294967295\n", "bad edge at line 1"},  // kInvalidNode
      {"0 18446744073709551616\n", "bad edge at line 1"},
      {"-1 2\n", "bad edge at line 1"},
      {"0,1\n", "bad edge at line 1"},
      {" # indented comment\n", "bad edge at line 1"},
  };
  for (const auto& [text, what] : bad) {
    try {
      ParseEdgeList(text, false, false);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what) << text;
    }
  }
}

TEST(IoTest, MissingWeightIsOne) {
  Graph w = ParseEdgeList(
      "0 1 2.5\n1 2\n2 3 \t\r\n3 4 +0.25\n4 5\t1e-3 junk\n5 6 -2\n",
      true, true);
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(0, 1)), 2.5);
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(1, 2)), 1.0);
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(2, 3)), 1.0);  // only blanks after v
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(3, 4)), 0.25);
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(4, 5)), 1e-3);  // later fields ignored
  EXPECT_EQ(w.EdgeWeight(w.FindEdge(5, 6)), -2.0);
  // Unweighted parsing never reads a third field.
  Graph u = ParseEdgeList("0 1 abc\n", true, false);
  EXPECT_EQ(u.NumEdges(), 1u);
}

TEST(IoTest, MalformedWeightThrows) {
  for (const char* weight :
       {"abc", "2.5abc", "1e400", "-1e400", "nan", "inf", "+", "+-1", "++1",
        "0x1p3", "1,5"}) {
    const std::string text = "0 1 2\n1 2 " + std::string(weight) + " x\n";
    try {
      ParseEdgeList(text, false, true);
      ADD_FAILURE() << "weight '" << weight << "' parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "bad weight at line 2") << weight;
    }
  }
}

TEST(UnionFindTest, BasicMerge) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));
  EXPECT_EQ(uf.NumSets(), 3u);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.SetSize(1), 3u);
}

}  // namespace
}  // namespace sparsify
