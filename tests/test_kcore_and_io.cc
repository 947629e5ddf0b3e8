// Tests for k-core decomposition, the LFR generator, and binary graph
// serialization.
#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "src/graph/binary_io.h"
#include "src/graph/generators.h"
#include "src/metrics/clustering.h"
#include "src/metrics/kcore.h"
#include "src/metrics/louvain.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

TEST(KCoreTest, TriangleWithTail) {
  // Triangle (core 2) with a pendant (core 1).
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}}, false,
                             false);
  std::vector<NodeId> core = CoreNumbers(g);
  EXPECT_EQ(core[0], 2u);
  EXPECT_EQ(core[1], 2u);
  EXPECT_EQ(core[2], 2u);
  EXPECT_EQ(core[3], 1u);
  EXPECT_EQ(Degeneracy(g), 2u);
}

TEST(KCoreTest, CompleteGraph) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) edges.push_back({u, v});
  }
  Graph g = Graph::FromEdges(6, edges, false, false);
  for (NodeId c : CoreNumbers(g)) EXPECT_EQ(c, 5u);
}

TEST(KCoreTest, TreeIsOneCore) {
  Rng rng(1);
  Graph g = BarabasiAlbert(100, 1, rng);
  // m=1 BA graph is a tree.
  EXPECT_EQ(Degeneracy(g), 1u);
}

TEST(KCoreTest, CoreBoundedByDegree) {
  Rng rng(2);
  Graph g = PowerLawConfiguration(200, 2.2, 1, 40, rng);
  std::vector<NodeId> core = CoreNumbers(g);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_LE(core[v], g.OutDegree(v));
  }
}

TEST(LfrTest, CommunitiesAndMixing) {
  Rng rng(4);
  std::vector<int> comm;
  Graph g = LfrBenchmark(600, 2.5, 4, 40, 2.0, 20, 0.15, rng, &comm);
  ASSERT_EQ(comm.size(), 600u);
  int intra = 0;
  for (const Edge& e : g.Edges()) {
    if (comm[e.u] == comm[e.v]) ++intra;
  }
  double intra_frac = static_cast<double>(intra) / g.NumEdges();
  // mu = 0.15 -> ~85% intra (stub matching adds a little noise).
  EXPECT_GT(intra_frac, 0.7);
  // Heterogeneous community sizes.
  std::map<int, int> sizes;
  for (int c : comm) ++sizes[c];
  int min_size = 1 << 30, max_size = 0;
  for (const auto& [c, s] : sizes) {
    min_size = std::min(min_size, s);
    max_size = std::max(max_size, s);
  }
  EXPECT_GT(max_size, 2 * min_size);
}

TEST(LfrTest, LouvainRecoversLowMixing) {
  Rng rng(5);
  std::vector<int> comm;
  Graph g = LfrBenchmark(500, 2.5, 6, 30, 2.0, 30, 0.05, rng, &comm);
  Rng lrng(6);
  Clustering c = LouvainCommunities(g, lrng);
  EXPECT_GT(ClusteringF1(c.label, comm), 0.6);
}

TEST(LfrTest, RejectsBadMu) {
  Rng rng(7);
  EXPECT_THROW(LfrBenchmark(100, 2.5, 2, 10, 2.0, 10, 1.5, rng),
               std::invalid_argument);
}

TEST(BinaryIoTest, RoundTripUnweighted) {
  Rng rng(8);
  Graph g = BarabasiAlbert(120, 3, rng);
  std::stringstream ss;
  WriteBinaryGraphStream(g, ss);
  Graph h = ReadBinaryGraphStream(ss);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.Edges(), g.Edges());
  EXPECT_EQ(h.IsDirected(), g.IsDirected());
  EXPECT_EQ(h.IsWeighted(), g.IsWeighted());
}

TEST(BinaryIoTest, RoundTripWeightedDirected) {
  Rng rng(9);
  Graph base = ErdosRenyi(80, 250, true, rng);
  Graph g = WithRandomWeights(base, 9.0, rng);
  std::stringstream ss;
  WriteBinaryGraphStream(g, ss);
  Graph h = ReadBinaryGraphStream(ss);
  EXPECT_TRUE(h.IsDirected());
  EXPECT_TRUE(h.IsWeighted());
  EXPECT_EQ(h.Edges(), g.Edges());
}

TEST(BinaryIoTest, BadMagicRejected) {
  std::stringstream ss("NOPEnotagraph");
  EXPECT_THROW(ReadBinaryGraphStream(ss), std::runtime_error);
}

TEST(BinaryIoTest, TruncationRejected) {
  Rng rng(10);
  Graph g = BarabasiAlbert(50, 2, rng);
  std::stringstream ss;
  WriteBinaryGraphStream(g, ss);
  std::string data = ss.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_THROW(ReadBinaryGraphStream(truncated), std::runtime_error);
}

TEST(BinaryIoTest, CorruptEndpointRejected) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false, false);
  std::stringstream ss;
  WriteBinaryGraphStream(g, ss);
  std::string data = ss.str();
  // num_vertices field: bytes [10, 14). Shrink the vertex count so stored
  // edges point out of range.
  data[10] = 1;
  data[11] = data[12] = data[13] = 0;
  std::stringstream corrupt(data);
  EXPECT_THROW(ReadBinaryGraphStream(corrupt), std::runtime_error);
}

TEST(BinaryIoTest, FileRoundTrip) {
  Rng rng(11);
  Graph g = WattsStrogatz(100, 3, 0.1, rng);
  std::string path = "/tmp/sparsify_binary_io_test.bin";
  WriteBinaryGraph(g, path);
  Graph h = ReadBinaryGraph(path);
  EXPECT_EQ(h.Edges(), g.Edges());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sparsify
