// Shape-fidelity regression tests: the paper's section 4.7 summary claims,
// encoded as assertions at test scale. These are the contract the
// regenerated figures (`sparsify_cli figure`) must keep satisfying — if a
// refactor breaks "ER-weighted preserves the quadratic form" or "Local
// Degree beats Random on distance", these tests catch it in seconds
// without regenerating the figures.
#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/metrics/louvain.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

Graph Sparsify(const Graph& g, const std::string& algo, double rate,
               uint64_t seed) {
  Rng rng(seed);
  return CreateSparsifier(algo)->Sparsify(g, rate, rng);
}

// Paper 4.7 bullet "Random preserves relative properties": degree
// distribution under Random stays closer than under Local Degree.
TEST(PaperInsights, RandomPreservesDegreeDistributionBetterThanLocalDegree) {
  // Scale 0.5 / prune 0.5: the operating point verified against Fig. 2
  // (`sparsify_cli figure 2`); smaller graphs make the 100-bin
  // histograms too sparse for a stable comparison.
  Graph g = LoadDatasetScaled("ogbn-proteins", 0.5).graph;
  Graph rn = Sparsify(g, "RN", 0.5, 1);
  Graph ld = Sparsify(g, "LD", 0.5, 2);
  EXPECT_LT(DegreeDistributionDistance(g, rn),
            DegreeDistributionDistance(g, ld));
}

// Paper 4.7 bullet "K-Neighbor, SF, SP preserve connectivity".
TEST(PaperInsights, ConnectivityPreserversKeepIsolatedRatioZero) {
  Graph g = LoadDatasetScaled("ca-AstroPh", 0.25).graph;
  for (const char* algo : {"KN", "LD", "LS", "LSim"}) {
    Graph h = Sparsify(g, algo, 0.8, 3);
    EXPECT_DOUBLE_EQ(IsolatedRatio(h), 0.0) << algo;
  }
  // Spanning forest / spanner: connectivity IDENTICAL to the original.
  for (const char* algo : {"SF", "SP-3"}) {
    Graph h = Sparsify(g, algo, 0.0, 4);
    EXPECT_DOUBLE_EQ(UnreachableRatio(h), UnreachableRatio(g)) << algo;
  }
}

// Paper 4.1: G-Spar and SCAN disconnect graphs fastest.
TEST(PaperInsights, GlobalSimilarityDisconnectsWorseThanKNeighbor) {
  Graph g = LoadDatasetScaled("ca-AstroPh", 0.25).graph;
  Graph gs = Sparsify(g, "GS", 0.8, 5);
  Graph kn = Sparsify(g, "KN", 0.8, 6);
  EXPECT_GT(UnreachableRatio(gs), UnreachableRatio(kn) + 0.1);
}

// Paper 4.1 / Fig. 3: ONLY ER-weighted preserves the quadratic form.
TEST(PaperInsights, OnlyWeightedErPreservesQuadraticForm) {
  Graph g = LoadDatasetScaled("com-Amazon", 0.25).graph;
  Rng qrng(7);
  double erw = QuadraticFormSimilarity(g, Sparsify(g, "ER-w", 0.7, 8), 30,
                                       qrng);
  Rng qrng2(9);
  double rn = QuadraticFormSimilarity(g, Sparsify(g, "RN", 0.7, 10), 30,
                                      qrng2);
  Rng qrng3(11);
  double eruw = QuadraticFormSimilarity(g, Sparsify(g, "ER-uw", 0.7, 12),
                                        30, qrng3);
  EXPECT_NEAR(erw, 1.0, 0.15);
  EXPECT_NEAR(rn, 0.3, 0.1);   // tracks the kept fraction
  EXPECT_NEAR(eruw, 0.3, 0.1);
}

// Paper 4.2 / Fig. 4: LD and RD beat Random on distance preservation.
TEST(PaperInsights, HubPreserversBeatRandomOnSpsp) {
  Graph g = LoadDatasetScaled("ca-AstroPh", 0.25).graph;
  Rng m1(13), m2(14), m3(15);
  double ld = SpspStretch(g, Sparsify(g, "LD", 0.6, 16), 500, m1)
                  .mean_stretch;
  double rd = SpspStretch(g, Sparsify(g, "RD", 0.6, 17), 500, m2)
                  .mean_stretch;
  double rn = SpspStretch(g, Sparsify(g, "RN", 0.6, 18), 500, m3)
                  .mean_stretch;
  EXPECT_LT(ld, rn);
  EXPECT_LT(rd, rn);
  EXPECT_GE(ld, 1.0);
}

// Paper 4.3 / Fig. 5: LD/RD keep centrality rankings better than GS/SCAN.
TEST(PaperInsights, HubPreserversKeepClosenessRanking) {
  Graph g = LoadDatasetScaled("ca-AstroPh", 0.2).graph;
  std::vector<double> reference = ClosenessCentrality(g);
  auto precision = [&](const std::string& algo) {
    return TopKPrecision(reference,
                         ClosenessCentrality(Sparsify(g, algo, 0.6, 19)),
                         50);
  };
  EXPECT_GT(precision("LD"), precision("SCAN") + 0.2);
  EXPECT_GT(precision("RD"), precision("GS") + 0.2);
}

// Paper 4.4 / Fig. 8: LD tracks the community count; RD/GS explode it.
TEST(PaperInsights, LocalDegreeTracksCommunityCount) {
  Graph g = LoadDatasetScaled("com-DBLP", 0.3).graph;
  Rng lrng(20);
  int truth = LouvainCommunities(g, lrng).num_clusters;
  auto count = [&](const std::string& algo) {
    Rng r(21);
    return LouvainCommunities(Sparsify(g, algo, 0.8, 22), r).num_clusters;
  };
  int ld = count("LD");
  int gs = count("GS");
  EXPECT_LT(std::abs(ld - truth), std::abs(gs - truth));
  EXPECT_GT(gs, 3 * truth);  // fragmentation
}

// Paper 4.4 / Fig. 9: nobody preserves clustering coefficients, and
// spanning forests have none at all.
TEST(PaperInsights, ClusteringCoefficientsDecayForEveryone) {
  Graph g = LoadDatasetScaled("ca-HepPh", 0.25).graph;
  double full = MeanClusteringCoefficient(g);
  ASSERT_GT(full, 0.05);
  for (const char* algo : {"RN", "KN", "LD"}) {
    double mcc = MeanClusteringCoefficient(Sparsify(g, algo, 0.8, 23));
    EXPECT_LT(mcc, 0.8 * full) << algo;
  }
  EXPECT_DOUBLE_EQ(
      MeanClusteringCoefficient(Sparsify(g, "SF", 0.0, 24)), 0.0);
}

// Paper 4.4 / Fig. 10: local-similarity sparsifiers preserve clustering
// better than Random at high prune rates.
TEST(PaperInsights, LocalSimilarityPreservesClusters) {
  Dataset d = LoadDatasetScaled("com-DBLP", 0.3);
  auto ground_truth_f1 = [&](const std::string& algo) {
    Rng r(25);
    Clustering c =
        LouvainCommunities(Sparsify(d.graph, algo, 0.7, 26), r);
    return ClusteringF1(c.label, d.communities);
  };
  EXPECT_GT(ground_truth_f1("LS"), ground_truth_f1("RN"));
}

// Paper 4.5 / Fig. 12: ER-weighted dominates max-flow-style (spectral)
// metrics; verified here via the quadratic form on a weighted graph.
TEST(PaperInsights, WeightedErBeatsUnweightedOnWeightedGraphs) {
  Rng gen(27);
  Graph g = WithRandomWeights(BarabasiAlbert(400, 5, gen), 20.0, gen);
  Rng q1(28), q2(29);
  double erw = QuadraticFormSimilarity(g, Sparsify(g, "ER-w", 0.6, 30), 30,
                                       q1);
  double eruw = QuadraticFormSimilarity(g, Sparsify(g, "ER-uw", 0.6, 31),
                                        30, q2);
  EXPECT_GT(erw, eruw + 0.3);
}

// Paper 4.7 "elbow" observation: Local Degree saturates at its maximum
// prune rate — requesting more pruning yields the same graph.
TEST(PaperInsights, LocalDegreeSaturatesAtMaxPruneRate) {
  Graph g = LoadDatasetScaled("ego-Facebook", 0.2).graph;
  Graph at95 = Sparsify(g, "LD", 0.95, 32);
  Graph at99 = Sparsify(g, "LD", 0.99, 33);
  EXPECT_EQ(at95.NumEdges(), at99.NumEdges());
  // The floor is one edge per vertex: at least n/2 edges survive.
  EXPECT_GE(at99.NumEdges(), g.NumVertices() / 2);
}

// Directed reachability: weak components overstate reachability on
// directed web graphs; the directed sampler must report more unreachable
// pairs.
TEST(PaperInsights, DirectedReachabilityStricterThanWeak) {
  Graph g = LoadDatasetScaled("web-Google", 0.2).graph;
  ASSERT_TRUE(g.IsDirected());
  Rng rng(34);
  double directed = SampledDirectedUnreachableRatio(g, 2000, rng);
  double weak = UnreachableRatio(g);
  EXPECT_GE(directed, weak);
  EXPECT_GT(directed, 0.1);  // R-MAT web graphs are far from strongly
                             // connected
}

TEST(PaperInsights, DirectedSamplerMatchesExactOnUndirected) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}}, false, false);
  Rng rng(35);
  EXPECT_NEAR(SampledDirectedUnreachableRatio(g, 5000, rng),
              UnreachableRatio(g), 0.05);
}

}  // namespace
}  // namespace sparsify
