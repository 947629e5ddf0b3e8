// Edge-case and failure-injection tests: degenerate graphs (empty, single
// edge, star, complete) through every sparsifier and the key metrics, RNG
// contract tests, and the Table 1 metric registry.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/metric_info.h"
#include "src/graph/generators.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/metrics/clustering.h"
#include "src/metrics/components.h"
#include "src/metrics/distance.h"
#include "src/metrics/louvain.h"
#include "src/metrics/maxflow.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

// --------------------------------------------------------------------------
// Degenerate graphs through every sparsifier.

class DegenerateGraphTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DegenerateGraphTest, EmptyEdgeSet) {
  Graph g = Graph::FromEdges(10, {}, false, false);
  Rng rng(1);
  Graph h = CreateSparsifier(GetParam())->Sparsify(g, 0.5, rng);
  EXPECT_EQ(h.NumVertices(), 10u);
  EXPECT_EQ(h.NumEdges(), 0u);
}

TEST_P(DegenerateGraphTest, SingleEdge) {
  Graph g = Graph::FromEdges(2, {{0, 1}}, false, false);
  Rng rng(2);
  Graph h = CreateSparsifier(GetParam())->Sparsify(g, 0.1, rng);
  // Keep count rounds to 1: the single edge must survive.
  EXPECT_EQ(h.NumEdges(), 1u);
}

TEST_P(DegenerateGraphTest, StarGraph) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= 12; ++v) edges.push_back({0, v});
  Graph g = Graph::FromEdges(13, edges, false, false);
  Rng rng(3);
  Graph h = CreateSparsifier(GetParam())->Sparsify(g, 0.5, rng);
  EXPECT_LE(h.NumEdges(), g.NumEdges());
  for (const Edge& e : h.Edges()) EXPECT_TRUE(g.HasEdge(e.u, e.v));
}

TEST_P(DegenerateGraphTest, CompleteGraph) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) edges.push_back({u, v});
  }
  Graph g = Graph::FromEdges(12, edges, false, false);
  Rng rng(4);
  Graph h = CreateSparsifier(GetParam())->Sparsify(g, 0.7, rng);
  EXPECT_LE(h.NumEdges(), g.NumEdges());
  EXPECT_EQ(h.NumVertices(), 12u);
}

INSTANTIATE_TEST_SUITE_P(AllSparsifiers, DegenerateGraphTest,
                         ::testing::ValuesIn(SparsifierNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --------------------------------------------------------------------------
// Metrics on degenerate graphs must not crash and must return sane values.

TEST(DegenerateMetricsTest, EmptyGraphMetrics) {
  Graph g = Graph::FromEdges(5, {}, false, false);
  EXPECT_DOUBLE_EQ(UnreachableRatio(g), 1.0);
  EXPECT_DOUBLE_EQ(IsolatedRatio(g), 1.0);
  EXPECT_DOUBLE_EQ(MeanClusteringCoefficient(g), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
  Rng rng(5);
  EXPECT_DOUBLE_EQ(ApproxDiameter(g, 2, rng), 0.0);
  std::vector<double> pr = PageRank(g);
  for (double p : pr) EXPECT_NEAR(p, 0.2, 1e-9);
  Rng lrng(6);
  EXPECT_EQ(LouvainCommunities(g, lrng).num_clusters, 5);
}

TEST(DegenerateMetricsTest, SingleVertexGraph) {
  Graph g = Graph::FromEdges(1, {}, false, false);
  EXPECT_DOUBLE_EQ(UnreachableRatio(g), 0.0);
  std::vector<double> d = ShortestPathDistances(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(BetweennessCentrality(g)[0], 0.0);
}

TEST(DegenerateMetricsTest, ZeroVertexGraph) {
  Graph g = Graph::FromEdges(0, {}, false, false);
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_DOUBLE_EQ(IsolatedRatio(g), 0.0);
  EXPECT_TRUE(PageRank(g).empty());
}

TEST(DegenerateMetricsTest, MaxFlowSelfPair) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}}, false, false);
  EXPECT_DOUBLE_EQ(MaxFlow(g, 1, 1), 0.0);
}

TEST(DegenerateMetricsTest, StretchOnEmptySparsified) {
  Rng gen(7);
  Graph g = BarabasiAlbert(50, 2, gen);
  Graph empty = g.Subgraph(std::vector<uint8_t>(g.NumEdges(), 0));
  Rng rng(8);
  StretchResult r = SpspStretch(g, empty, 100, rng);
  EXPECT_DOUBLE_EQ(r.unreachable, 1.0);
  EXPECT_EQ(r.pairs_evaluated, 0);
}

TEST(DegenerateMetricsTest, QuadraticFormOnEmptySparsifiedIsZero) {
  Rng gen(9);
  Graph g = BarabasiAlbert(50, 2, gen);
  Graph empty = g.Subgraph(std::vector<uint8_t>(g.NumEdges(), 0));
  Rng rng(10);
  EXPECT_DOUBLE_EQ(QuadraticFormSimilarity(g, empty, 10, rng), 0.0);
}

// --------------------------------------------------------------------------
// RNG contract.

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, ForksAreIndependentStreams) {
  Rng parent(7);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Children produce different streams (first draws differ with
  // overwhelming probability for a 64-bit space).
  EXPECT_NE(child1(), child2());
}

TEST(RngTest, NextUintInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  auto sample = rng.SampleWithoutReplacement(1000, 300);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 300u);
  for (uint64_t x : sample) EXPECT_LT(x, 1000u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKGeN) {
  Rng rng(12);
  auto sample = rng.SampleWithoutReplacement(10, 50);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementUniformish) {
  // Each element of [0, 10) should be picked ~50% of the time at k = 5.
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    Rng rng(5000 + trial);
    for (uint64_t x : rng.SampleWithoutReplacement(10, 5)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// Differential oracle: the engine replicates std::mt19937_64, so Rng(seed)
// must draw what a std::mt19937_64 seeded with Rng::Mix(seed) draws.
TEST(RngTest, StreamMatchesStdMt19937_64) {
  static_assert(sizeof(Mt19937_64) == sizeof(std::mt19937_64));
  constexpr int kDraws = 1'000'000;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{123}, UINT64_MAX}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::mt19937_64 oracle(Rng::Mix(seed));
    // The engine alone, seeded with the raw word.
    Mt19937_64 engine(seed);
    std::mt19937_64 raw_oracle(seed);
    int mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      mismatches += rng() != oracle();
      mismatches += engine() != raw_oracle();
    }
    EXPECT_EQ(mismatches, 0);
  }
  // The C++ standard fixes the 10000th output of a default-seeded engine.
  Mt19937_64 standard(std::mt19937_64::default_seed);
  for (int i = 1; i < 10000; ++i) standard();
  EXPECT_EQ(standard(), 9981545732273789042ULL);
  // A chain of forks: each child is seeded from its parent's next draw.
  Rng rng(77);
  std::mt19937_64 oracle(Rng::Mix(77));
  for (int depth = 0; depth < 8; ++depth) {
    SCOPED_TRACE(depth);
    rng = rng.Fork();
    oracle.seed(Rng::Mix(oracle()));
    int mismatches = 0;
    for (int i = 0; i < 1000; ++i) mismatches += rng() != oracle();
    EXPECT_EQ(mismatches, 0);
  }
}

// Every sampler against the same call on the oracle engine. Rng builds a
// fresh distribution per call, so the oracle side does too: a kept
// std::normal_distribution would hand out its cached second value.
TEST(RngTest, SamplersMatchStdDistributionsOnStdMt19937_64) {
  Rng rng(2024);
  std::mt19937_64 oracle(Rng::Mix(2024));
  const uint64_t bounds[] = {1, 2, 3, 17, 1000, (uint64_t{1} << 32) + 1,
                             (uint64_t{1} << 63) + 5, UINT64_MAX};
  const std::pair<int64_t, int64_t> ranges[] = {
      {0, 0}, {-5, 5}, {-1000000007, 3}, {INT64_MIN, INT64_MAX}};
  for (int i = 0; i < 20000; ++i) {
    SCOPED_TRACE(i);
    const uint64_t bound = bounds[i % std::size(bounds)];
    ASSERT_EQ(rng.NextUint(bound),
              std::uniform_int_distribution<uint64_t>(0, bound - 1)(oracle));
    const auto [lo, hi] = ranges[i % std::size(ranges)];
    ASSERT_EQ(rng.NextInt(lo, hi),
              std::uniform_int_distribution<int64_t>(lo, hi)(oracle));
    const double u =
        std::uniform_real_distribution<double>(0.0, 1.0)(oracle);
    ASSERT_EQ(std::bit_cast<uint64_t>(rng.NextDouble()),
              std::bit_cast<uint64_t>(u));
    ASSERT_EQ(rng.NextBernoulli(0.3),
              std::uniform_real_distribution<double>(0.0, 1.0)(oracle) < 0.3);
    const double z = std::normal_distribution<double>(0.0, 1.0)(oracle);
    ASSERT_EQ(std::bit_cast<uint64_t>(rng.NextGaussian()),
              std::bit_cast<uint64_t>(z));
    const double p = (i % 2 == 0) ? 0.5 : 0.001;
    ASSERT_EQ(rng.NextGeometric(p),
              std::geometric_distribution<uint64_t>(p)(oracle));
  }
  // Shuffle and SampleWithoutReplacement, replayed on the oracle engine.
  std::vector<int> shuffled(1000), expected(1000);
  std::iota(shuffled.begin(), shuffled.end(), 0);
  std::iota(expected.begin(), expected.end(), 0);
  rng.Shuffle(&shuffled);
  for (size_t i = expected.size(); i > 1; --i) {
    std::swap(expected[i - 1],
              expected[std::uniform_int_distribution<uint64_t>(0, i - 1)(
                  oracle)]);
  }
  EXPECT_EQ(shuffled, expected);
  const uint64_t n = 100000, k = 3000;
  std::vector<uint64_t> sample = rng.SampleWithoutReplacement(n, k);
  std::set<uint64_t> chosen;
  std::vector<uint64_t> floyd;
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = std::uniform_int_distribution<uint64_t>(0, j)(oracle);
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    floyd.push_back(t);
  }
  EXPECT_EQ(sample, floyd);
  EXPECT_EQ(rng(), oracle()) << "streams diverged";
}

// Hands a fixed word to libstdc++'s distribution.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }
  result_type operator()() const { return word; }
  uint64_t word;
};

// The words where converting to double rounds to a tie, crosses a power of
// two, or rounds up to 2^64 (which the clamp must catch).
TEST(RngTest, NextDoubleMatchesLibstdcxxAtRoundingEdges) {
  constexpr uint64_t k53 = uint64_t{1} << 53;
  constexpr uint64_t k54 = uint64_t{1} << 54;
  constexpr uint64_t k63 = uint64_t{1} << 63;
  constexpr uint64_t kTop = UINT64_MAX;  // 2^64 - 1
  for (uint64_t word :
       {uint64_t{0}, uint64_t{1}, k53 - 1, k53 + 1, k54 + 1, k63 - 513,
        k63 - 512, k63 - 511, k63, k63 + 1025, kTop - 1024, kTop - 1023,
        kTop}) {
    SCOPED_TRACE(word);
    FixedWord source{word};
    const double want =
        std::uniform_real_distribution<double>(0.0, 1.0)(source);
    EXPECT_EQ(std::bit_cast<uint64_t>(ToUnitDouble(word)),
              std::bit_cast<uint64_t>(want));
    EXPECT_LT(ToUnitDouble(word), 1.0);
  }
  // 2^64 - 1024 is a tie that rounds (to even) up to 2^64, so it and every
  // word above it reach the clamp; 2^64 - 1025 rounds down to 2^64 - 2048.
  // Both give the largest double below 1.
  EXPECT_EQ(static_cast<double>(kTop - 1023), 0x1p64);
  EXPECT_EQ(static_cast<double>(kTop - 1024), 0x1p64 - 2048);
  EXPECT_EQ(ToUnitDouble(kTop - 1023), std::nextafter(1.0, 0.0));
  EXPECT_EQ(ToUnitDouble(kTop - 1024), std::nextafter(1.0, 0.0));
  // NextBernoulli(0.5) is NextDouble() < 0.5. 2^63 - 513 rounds down to
  // 2^63 - 1024, while the tie 2^63 - 512 rounds to even, 2^63: the coin
  // flips there.
  EXPECT_LT(ToUnitDouble(k63 - 513), 0.5);
  EXPECT_EQ(ToUnitDouble(k63 - 512), 0.5);
}

// --------------------------------------------------------------------------
// Table 1 metric registry.

TEST(MetricInfoTest, SixteenMetrics) {
  EXPECT_EQ(AllMetricInfos().size(), 16u);
}

TEST(MetricInfoTest, GroupsCoverPaperSections) {
  std::set<std::string> groups;
  for (const MetricInfo& m : AllMetricInfos()) groups.insert(m.group);
  EXPECT_TRUE(groups.contains("Basic"));
  EXPECT_TRUE(groups.contains("Distance"));
  EXPECT_TRUE(groups.contains("Centrality"));
  EXPECT_TRUE(groups.contains("Clustering"));
  EXPECT_TRUE(groups.contains("Application"));
}

TEST(MetricInfoTest, Table1FlagsMatchPaper) {
  auto find = [](const std::string& name) {
    for (const MetricInfo& m : AllMetricInfos()) {
      if (m.name == name) return m;
    }
    ADD_FAILURE() << "missing metric " << name;
    return MetricInfo{};
  };
  EXPECT_EQ(find("#Communities").directed, Applicability::kNo);
  EXPECT_EQ(find("Clustering F1 Sim").directed, Applicability::kNo);
  EXPECT_EQ(find("LCC").weighted, Applicability::kIgnored);
  EXPECT_EQ(find("APSP").unconnected, Applicability::kExcluded);
  EXPECT_EQ(find("GNN").directed, Applicability::kYes);
}

}  // namespace
}  // namespace sparsify
