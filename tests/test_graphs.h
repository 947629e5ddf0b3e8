// Shared test graphs: the structurally distinct undirected shapes (path,
// star, triangle+tail, ER random, weighted ER, disconnected) that the
// sparsifier property matrix crosses with every registered sparsifier and
// that the t-Spanner equivalence and stretch tests reuse.
#ifndef SPARSIFY_TESTS_TEST_GRAPHS_H_
#define SPARSIFY_TESTS_TEST_GRAPHS_H_

#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace sparsify {

struct GraphCase {
  std::string name;
  Graph (*make)();
};

inline Graph MakePath() {
  // P9: 8 edges in a chain.
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < 9; ++i) edges.push_back({i, i + 1});
  return Graph::FromEdges(9, edges, false, false);
}

inline Graph MakeStar() {
  // Hub 0 with 10 leaves.
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf <= 10; ++leaf) edges.push_back({0, leaf});
  return Graph::FromEdges(11, edges, false, false);
}

inline Graph MakeTriangleWithTail() {
  return Graph::FromEdges(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}, false,
                          false);
}

inline Graph MakeErdosRenyi() {
  Rng rng(301);
  return ErdosRenyi(60, 180, false, rng);
}

inline Graph MakeWeighted() {
  Rng rng(302);
  Graph base = ErdosRenyi(50, 160, false, rng);
  return WithRandomWeights(base, 10.0, rng);
}

inline Graph MakeDisconnected() {
  // Two disjoint ER blobs plus two isolated vertices.
  Rng rng(303);
  Graph a = ErdosRenyi(30, 80, false, rng);
  Graph b = ErdosRenyi(30, 80, false, rng);
  std::vector<Edge> edges = a.Edges();
  for (const Edge& e : b.Edges()) edges.push_back({e.u + 30, e.v + 30, e.w});
  return Graph::FromEdges(62, edges, false, false);
}

inline const std::vector<GraphCase>& UndirectedCases() {
  static const std::vector<GraphCase> cases = {
      {"path", MakePath},
      {"star", MakeStar},
      {"triangle_tail", MakeTriangleWithTail},
      {"er", MakeErdosRenyi},
      {"weighted", MakeWeighted},
      {"disconnected", MakeDisconnected},
  };
  return cases;
}

}  // namespace sparsify

#endif  // SPARSIFY_TESTS_TEST_GRAPHS_H_
