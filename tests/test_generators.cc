// Tests for the synthetic graph generators and the dataset registry that
// stands in for the paper's Table 3.
#include "src/graph/generators.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/metrics/components.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

TEST(ErdosRenyiTest, EdgeCountAndRange) {
  Rng rng(1);
  Graph g = ErdosRenyi(100, 300, false, rng);
  EXPECT_EQ(g.NumVertices(), 100u);
  EXPECT_EQ(g.NumEdges(), 300u);
}

TEST(ErdosRenyiTest, DirectedVariant) {
  Rng rng(2);
  Graph g = ErdosRenyi(50, 200, true, rng);
  EXPECT_TRUE(g.IsDirected());
  EXPECT_EQ(g.NumEdges(), 200u);
}

TEST(ErdosRenyiTest, CapsAtCompleteGraph) {
  Rng rng(3);
  Graph g = ErdosRenyi(5, 1000, false, rng);
  EXPECT_EQ(g.NumEdges(), 10u);
}

TEST(ErdosRenyiTest, Deterministic) {
  Rng a(7), b(7);
  Graph g1 = ErdosRenyi(60, 120, false, a);
  Graph g2 = ErdosRenyi(60, 120, false, b);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

TEST(BarabasiAlbertTest, ConnectedPowerLaw) {
  Rng rng(4);
  Graph g = BarabasiAlbert(500, 3, rng);
  EXPECT_EQ(g.NumVertices(), 500u);
  // Connected by construction.
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
  // Power-law-ish: max degree far above the mean.
  double mean_deg = 2.0 * g.NumEdges() / g.NumVertices();
  EXPECT_GT(g.MaxDegree(), 4 * mean_deg);
}

TEST(BarabasiAlbertTest, EdgesPerNode) {
  Rng rng(5);
  Graph g = BarabasiAlbert(200, 5, rng);
  // Roughly m edges per arriving vertex.
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), 5.0 * 200, 60.0);
}

TEST(WattsStrogatzTest, HighClustering) {
  Rng rng(6);
  Graph g = WattsStrogatz(300, 5, 0.05, rng);
  EXPECT_EQ(g.NumVertices(), 300u);
  // Ring lattice keeps ~k*n edges.
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), 5.0 * 300, 100.0);
}

TEST(WattsStrogatzTest, RejectsBadK) {
  Rng rng(7);
  EXPECT_THROW(WattsStrogatz(10, 5, 0.1, rng), std::invalid_argument);
}

TEST(RMatTest, SkewAndSize) {
  Rng rng(8);
  Graph g = RMat(10, 4000, 0.57, 0.19, 0.19, true, rng);
  EXPECT_EQ(g.NumVertices(), 1024u);
  EXPECT_EQ(g.NumEdges(), 4000u);
  EXPECT_TRUE(g.IsDirected());
  // Skewed: some vertex has a much larger out-degree than average.
  EXPECT_GT(g.MaxDegree(), 20u);
}

TEST(PlantedPartitionTest, CommunityStructure) {
  Rng rng(9);
  std::vector<int> comm;
  Graph g = PlantedPartition(400, 8, 0.3, 0.005, rng, &comm);
  ASSERT_EQ(comm.size(), 400u);
  // Most edges should be intra-community.
  int intra = 0;
  for (const Edge& e : g.Edges()) {
    if (comm[e.u] == comm[e.v]) ++intra;
  }
  EXPECT_GT(static_cast<double>(intra) / g.NumEdges(), 0.7);
}

TEST(PowerLawConfigurationTest, DegreeBounds) {
  Rng rng(10);
  Graph g = PowerLawConfiguration(500, 2.2, 2, 50, rng);
  EXPECT_EQ(g.NumVertices(), 500u);
  EXPECT_LE(g.MaxDegree(), 50u);
  EXPECT_GT(g.NumEdges(), 400u);
}

TEST(ForestFireModelTest, GrowsConnectedish) {
  Rng rng(11);
  Graph g = ForestFireModel(300, 0.3, true, rng);
  EXPECT_EQ(g.NumVertices(), 300u);
  EXPECT_GE(g.NumEdges(), 299u);  // at least the ambassador edges
  // Weakly connected by construction (every vertex linked on arrival).
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(WithRandomWeightsTest, WeightsInRange) {
  Rng rng(12);
  Graph base = ErdosRenyi(50, 100, false, rng);
  Graph g = WithRandomWeights(base, 10.0, rng);
  EXPECT_TRUE(g.IsWeighted());
  for (const Edge& e : g.Edges()) {
    EXPECT_GE(e.w, 1.0);
    EXPECT_LE(e.w, 10.0);
  }
}

// --------------------------------------------------------------------------
// Dataset registry

TEST(DatasetsTest, FourteenDatasets) {
  EXPECT_EQ(DatasetNames().size(), 14u);
  EXPECT_EQ(AllDatasetInfos().size(), 14u);
}

TEST(DatasetsTest, UnknownNameThrows) {
  EXPECT_THROW(LoadDataset("no-such-graph"), std::invalid_argument);
}

TEST(DatasetsTest, ScaleMustBeFiniteAndPositive) {
  // The scale sizes the recipe (n * scale vertices) and names the dataset
  // in store keys; a NaN would reach an undefined float-to-int cast.
  for (double scale : {0.0, -1.0, std::nan(""),
                       std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(LoadDatasetScaled("ego-Facebook", scale),
                 std::invalid_argument)
        << scale;
  }
  EXPECT_GT(LoadDatasetScaled("ego-Facebook", 1e-9).graph.NumVertices(), 0u);
}

TEST(DatasetsTest, LoadIsDeterministic) {
  Dataset a = LoadDatasetScaled("ca-HepPh", 0.1);
  Dataset b = LoadDatasetScaled("ca-HepPh", 0.1);
  EXPECT_EQ(a.graph.NumVertices(), b.graph.NumVertices());
  EXPECT_EQ(a.graph.Edges(), b.graph.Edges());
}

TEST(DatasetsTest, NoIsolatedVerticesAfterPreprocessing) {
  for (const std::string& name :
       {std::string("email-Enron"), std::string("web-Google"),
        std::string("com-DBLP")}) {
    Dataset d = LoadDatasetScaled(name, 0.1);
    EXPECT_EQ(d.graph.CountIsolated(), 0u) << name;
  }
}

TEST(DatasetsTest, FlagsMatchTable3) {
  Dataset web = LoadDatasetScaled("web-Google", 0.05);
  EXPECT_TRUE(web.graph.IsDirected());
  EXPECT_TRUE(web.info.directed);
  Dataset gene = LoadDatasetScaled("human_gene2", 0.1);
  EXPECT_TRUE(gene.graph.IsWeighted());
  EXPECT_TRUE(gene.info.weighted);
  Dataset fb = LoadDatasetScaled("ego-Facebook", 0.1);
  EXPECT_FALSE(fb.graph.IsDirected());
  EXPECT_FALSE(fb.graph.IsWeighted());
}

TEST(DatasetsTest, CommunityDatasetsCarryLabels) {
  Dataset d = LoadDatasetScaled("com-DBLP", 0.1);
  ASSERT_EQ(d.communities.size(), d.graph.NumVertices());
  Dataset r = LoadDatasetScaled("Reddit", 0.1);
  ASSERT_EQ(r.communities.size(), r.graph.NumVertices());
}

TEST(DatasetsTest, AllLoadableAtSmallScale) {
  for (const std::string& name : DatasetNames()) {
    Dataset d = LoadDatasetScaled(name, 0.05);
    EXPECT_GT(d.graph.NumVertices(), 0u) << name;
    EXPECT_GT(d.graph.NumEdges(), 0u) << name;
  }
}

}  // namespace
}  // namespace sparsify
