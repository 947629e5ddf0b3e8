// Property-test matrix: every registered sparsifier crossed with a grid of
// structurally distinct graphs (path, star, triangle+tail, ER random,
// weighted ER, disconnected, directed-where-supported). Complements
// test_sparsifiers_properties.cc, which sweeps prune rates on one large
// graph family: this file pins behavior on degenerate shapes (tiny graphs,
// hubs, chains) and verifies that every SparsifierInfo capability flag
// matches the implementation's actual accept/throw behavior.
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/rng.h"
#include "tests/test_graphs.h"

namespace sparsify {
namespace {

Graph MakeDirected() {
  Rng rng(304);
  return ErdosRenyi(40, 200, true, rng);
}

class SparsifierMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {
 protected:
  std::string SparsifierName() const { return std::get<0>(GetParam()); }
  const GraphCase& Case() const {
    return UndirectedCases()[std::get<1>(GetParam())];
  }
};

TEST_P(SparsifierMatrixTest, VertexSetPreserved) {
  Graph g = Case().make();
  for (double rate : {0.3, 0.6}) {
    Rng rng(41);
    Graph h = CreateSparsifier(SparsifierName())->Sparsify(g, rate, rng);
    EXPECT_EQ(h.NumVertices(), g.NumVertices())
        << SparsifierName() << " on " << Case().name << " at " << rate;
    EXPECT_EQ(h.IsDirected(), g.IsDirected());
  }
}

TEST_P(SparsifierMatrixTest, EdgesAreSubset) {
  Graph g = Case().make();
  Rng rng(42);
  Graph h = CreateSparsifier(SparsifierName())->Sparsify(g, 0.4, rng);
  for (const Edge& e : h.Edges()) {
    EXPECT_TRUE(g.HasEdge(e.u, e.v))
        << SparsifierName() << " on " << Case().name << " invented edge "
        << e.u << "-" << e.v;
  }
}

TEST_P(SparsifierMatrixTest, AchievedRateTracksTargetKeepCount) {
  auto sparsifier = CreateSparsifier(SparsifierName());
  const SparsifierInfo& info = sparsifier->Info();
  Graph g = Case().make();
  for (double rate : {0.2, 0.5, 0.8}) {
    Rng rng(43);
    Graph h = sparsifier->Sparsify(g, rate, rng);
    EdgeId target = TargetKeepCount(g.NumEdges(), rate);
    switch (info.prune_rate_control) {
      case PruneRateControl::kFine:
        // Fine control means the exact keep-count is achievable on any
        // graph, including degenerate shapes (Table 2).
        EXPECT_EQ(h.NumEdges(), target)
            << info.short_name << " on " << Case().name << " at " << rate;
        break;
      case PruneRateControl::kConstrained:
        // Coarse knob with per-vertex floors: never prunes more than
        // requested (beyond rounding), may keep extra.
        EXPECT_GE(h.NumEdges() + 1, target)
            << info.short_name << " on " << Case().name << " at " << rate;
        break;
      case PruneRateControl::kNone:
        break;  // output size is the algorithm's own
    }
  }
}

TEST_P(SparsifierMatrixTest, CapabilityFlagsMatchBehavior) {
  auto sparsifier = CreateSparsifier(SparsifierName());
  const SparsifierInfo& info = sparsifier->Info();
  Graph g = Case().make();
  Rng rng(44);
  bool needs_weighted = g.IsWeighted();
  bool needs_unconnected = g.CountIsolated() > 0 || Case().name == "disconnected";
  bool supported = (!needs_weighted || info.supports_weighted) &&
                   (!needs_unconnected || info.supports_unconnected);
  if (supported) {
    EXPECT_NO_THROW(sparsifier->Sparsify(g, 0.5, rng))
        << info.short_name << " rejected supported input " << Case().name;
  } else {
    EXPECT_THROW(sparsifier->Sparsify(g, 0.5, rng), std::invalid_argument)
        << info.short_name << " accepted input its Table 2 flags disclaim: "
        << Case().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SparsifierMatrixTest,
    ::testing::Combine(::testing::ValuesIn(SparsifierNames()),
                       ::testing::Range<size_t>(0, UndirectedCases().size())),
    [](const ::testing::TestParamInfo<std::tuple<std::string, size_t>>& i) {
      std::string name = std::get<0>(i.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + UndirectedCases()[std::get<1>(i.param)].name;
    });

// --------------------------------------------------------------------------
// Directed support: the flag must match accept/throw exactly, per
// sparsifier (one directed graph, not crossed with the undirected cases).

class SparsifierDirectedTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(SparsifierDirectedTest, DirectedFlagMatchesBehavior) {
  auto sparsifier = CreateSparsifier(GetParam());
  const SparsifierInfo& info = sparsifier->Info();
  Graph g = MakeDirected();
  Rng rng(45);
  if (info.supports_directed) {
    Graph h = sparsifier->Sparsify(g, 0.5, rng);
    EXPECT_TRUE(h.IsDirected()) << info.short_name;
    EXPECT_EQ(h.NumVertices(), g.NumVertices()) << info.short_name;
  } else {
    EXPECT_THROW(sparsifier->Sparsify(g, 0.5, rng), std::invalid_argument)
        << info.short_name << " accepted directed input its flags disclaim";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSparsifiers, SparsifierDirectedTest,
                         ::testing::ValuesIn(SparsifierNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sparsify
