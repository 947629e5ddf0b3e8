// Tests for the shared traversal kernel (src/graph/traversal.h): push-only
// == hybrid == legacy queue BFS on every graph shape, Dijkstra parity,
// scratch reuse across graph sizes and threads, the SoA CSR spans, the
// TraversalSummary folds, the cached MaxDegree, the multi-source BFS
// against BfsLevels from each of its sources, and full-metric
// bit-identity of a distance-heavy multi-metric run at 1/2/8 threads.
#include "src/graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <span>
#include <stdexcept>

#include "src/engine/batch_runner.h"
#include "src/graph/generators.h"
#include "src/metrics/distance.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_graphs.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

// The seed implementation, verbatim: per-call allocating queue BFS /
// priority-queue Dijkstra. The kernel must reproduce its output bitwise.
std::vector<double> LegacyShortestPathDistances(const Graph& g, NodeId src) {
  std::vector<double> dist(g.NumVertices(), kInfDistance);
  dist[src] = 0.0;
  if (!g.IsWeighted()) {
    std::queue<NodeId> q;
    q.push(src);
    while (!q.empty()) {
      NodeId v = q.front();
      q.pop();
      for (NodeId u : g.OutNeighborNodes(v)) {
        if (dist[u] == kInfDistance) {
          dist[u] = dist[v] + 1.0;
          q.push(u);
        }
      }
    }
    return dist;
  }
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    auto nodes = g.OutNeighborNodes(v);
    auto edges = g.OutNeighborEdges(v);
    for (size_t i = 0; i < nodes.size(); ++i) {
      double nd = d + g.EdgeWeight(edges[i]);
      if (nd < dist[nodes[i]]) {
        dist[nodes[i]] = nd;
        pq.emplace(nd, nodes[i]);
      }
    }
  }
  return dist;
}

Graph PathGraph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1), 1.0});
  return Graph::FromEdges(n, std::move(edges), false, false);
}

Graph StarGraph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  return Graph::FromEdges(n, std::move(edges), false, false);
}

Graph TriangleWithTail() {
  return Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}}, false, false);
}

// All graph shapes the distance tests sweep, by name for failure output.
struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> TestGraphs() {
  Rng rng(7);
  std::vector<NamedGraph> graphs;
  graphs.push_back({"path", PathGraph(24)});
  graphs.push_back({"star", StarGraph(40)});
  graphs.push_back({"triangle_tail", TriangleWithTail()});
  graphs.push_back({"er", ErdosRenyi(80, 200, false, rng)});
  graphs.push_back(
      {"disconnected",
       Graph::FromEdges(9, {{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}}, false,
                        false)});
  graphs.push_back({"directed", ErdosRenyi(60, 220, true, rng)});
  graphs.push_back({"directed_star",
                    Graph::FromEdges(12,
                                     {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                                      {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10},
                                      {0, 11}},
                                     true, false)});
  graphs.push_back(
      {"weighted", WithRandomWeights(ErdosRenyi(50, 140, false, rng), 4.0,
                                     rng)});
  graphs.push_back({"ba", BarabasiAlbert(120, 3, rng)});
  return graphs;
}

TEST(TraversalKernelTest, PushHybridAndLegacyAgreeOnAllShapes) {
  TraversalScratch scratch;  // shared across every graph: reuse is the point
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId src = 0; src < g.NumVertices();
         src += std::max<NodeId>(1, g.NumVertices() / 7)) {
      std::vector<double> legacy = LegacyShortestPathDistances(g, src);
      std::vector<double> hybrid = ShortestPathDistances(g, src, scratch);
      EXPECT_EQ(legacy, hybrid) << ng.name << " src=" << src << " (hybrid)";
      if (!g.IsWeighted()) {
        BfsLevels(g, src, scratch, BfsMode::kPushOnly);
        for (NodeId v = 0; v < g.NumVertices(); ++v) {
          EXPECT_EQ(scratch.DistanceOf(v), legacy[v])
              << ng.name << " src=" << src << " v=" << v << " (push-only)";
        }
      }
    }
  }
}

TEST(TraversalKernelTest, SummaryMatchesReferenceScan) {
  TraversalScratch scratch;
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId src = 0; src < g.NumVertices();
         src += std::max<NodeId>(1, g.NumVertices() / 5)) {
      TraversalSummary sum = Traverse(g, src, scratch);
      std::vector<double> dist = LegacyShortestPathDistances(g, src);
      // The exact reduction the legacy consumers ran over the vector:
      // ascending scan, strict `>`, farthest defaults to the source.
      NodeId reached = 0;
      double far_d = 0.0;
      NodeId far_v = src;
      for (NodeId u = 0; u < g.NumVertices(); ++u) {
        if (dist[u] == kInfDistance) continue;
        ++reached;
        if (u != src && dist[u] > far_d) {
          far_d = dist[u];
          far_v = u;
        }
      }
      EXPECT_EQ(sum.reached, reached) << ng.name << " src=" << src;
      EXPECT_EQ(sum.max_dist, far_d) << ng.name << " src=" << src;
      EXPECT_EQ(sum.farthest, far_v) << ng.name << " src=" << src;
    }
  }
}

TEST(TraversalKernelTest, HybridActuallySwitchesToPullOnStar) {
  // From a leaf, round 2's frontier is the hub: scout = n-1 out-edges
  // always exceeds edges_to_check/alpha, so the heuristic must take the
  // pull direction at least once (this guards the CI jq assertion too).
  Graph g = StarGraph(64);
  TraversalScratch scratch;
  TraversalSummary sum = BfsLevels(g, 1, scratch);
  EXPECT_GE(sum.pull_rounds, 1);
  EXPECT_EQ(sum.reached, 64u);
}

TEST(TraversalKernelTest, DirectedPullScansInNeighbors) {
  // Directed hub->leaf star: from the hub the only correct pull source is
  // the IN-neighbor list of each leaf. A pull over out-neighbors would
  // find nothing.
  Graph g = Graph::FromEdges(
      40, [] {
        std::vector<Edge> edges;
        for (NodeId v = 1; v < 40; ++v) edges.push_back({0, v, 1.0});
        return edges;
      }(), true, false);
  TraversalScratch scratch;
  TraversalSummary sum = BfsLevels(g, 0, scratch);
  EXPECT_EQ(sum.reached, 40u);
  EXPECT_GE(sum.pull_rounds, 1);
  for (NodeId v = 1; v < 40; ++v) EXPECT_EQ(scratch.LevelOf(v), 1u);
  // And from a leaf nothing is reachable along out-arcs.
  sum = BfsLevels(g, 3, scratch);
  EXPECT_EQ(sum.reached, 1u);
  EXPECT_EQ(sum.max_dist, 0.0);
  EXPECT_EQ(sum.farthest, 3u);
}

TEST(TraversalKernelTest, ScratchReuseAcrossSizesAndEpochs) {
  TraversalScratch scratch;
  Rng rng(11);
  Graph big = ErdosRenyi(300, 900, false, rng);
  Graph small = PathGraph(5);
  Graph medium = ErdosRenyi(100, 150, false, rng);  // sparse: many unreached
  // Interleave sizes; every traversal must match a fresh-scratch run.
  for (int round = 0; round < 5; ++round) {
    for (const Graph* g : {&big, &small, &medium}) {
      NodeId src = static_cast<NodeId>((round * 13) % g->NumVertices());
      TraversalScratch fresh;
      EXPECT_EQ(ShortestPathDistances(*g, src, scratch),
                ShortestPathDistances(*g, src, fresh))
          << "round=" << round << " n=" << g->NumVertices();
    }
  }
}

TEST(TraversalKernelTest, PerThreadScratchUnderNestedParallelFor) {
  Rng rng(23);
  Graph g = BarabasiAlbert(200, 3, rng);
  std::vector<std::vector<double>> serial(g.NumVertices());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    serial[v] = ShortestPathDistances(g, v);
  }
  ThreadPool pool(8);
  std::vector<std::vector<double>> parallel(g.NumVertices());
  NestedParallelFor(&pool, g.NumVertices(), [&](size_t v) {
    // LocalTraversalScratch hands every claiming thread its own scratch.
    parallel[v] = ShortestPathDistances(g, static_cast<NodeId>(v),
                                        LocalTraversalScratch());
  });
  EXPECT_EQ(serial, parallel);
}

TEST(SoaCsrTest, SpansAgreeWithCanonicalEdges) {
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      auto nodes = g.OutNeighborNodes(v);
      auto edges = g.OutNeighborEdges(v);
      ASSERT_EQ(nodes.size(), edges.size());
      ASSERT_EQ(nodes.size(), g.OutDegree(v));
      EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end())) << ng.name;
      for (size_t i = 0; i < nodes.size(); ++i) {
        const Edge& e = g.CanonicalEdge(edges[i]);
        // The entry's edge must connect v to the entry's neighbor.
        if (g.IsDirected()) {
          EXPECT_EQ(e.u, v);
          EXPECT_EQ(e.v, nodes[i]);
        } else {
          EXPECT_TRUE((e.u == v && e.v == nodes[i]) ||
                      (e.v == v && e.u == nodes[i]))
              << ng.name;
        }
        EXPECT_EQ(g.FindEdge(v, nodes[i]), edges[i]) << ng.name;
      }
      // In-adjacency mirrors the arcs.
      auto in_nodes = g.InNeighborNodes(v);
      auto in_edges = g.InNeighborEdges(v);
      ASSERT_EQ(in_nodes.size(), in_edges.size());
      ASSERT_EQ(in_nodes.size(), g.InDegree(v));
      EXPECT_TRUE(std::is_sorted(in_nodes.begin(), in_nodes.end()));
      for (size_t i = 0; i < in_nodes.size(); ++i) {
        const Edge& e = g.CanonicalEdge(in_edges[i]);
        if (g.IsDirected()) {
          EXPECT_EQ(e.v, v);
          EXPECT_EQ(e.u, in_nodes[i]);
        }
      }
    }
  }
}

TEST(SoaCsrTest, MaxDegreeCachedMatchesScan) {
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    NodeId scan = 0;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      scan = std::max(scan, g.OutDegree(v));
    }
    EXPECT_EQ(g.MaxDegree(), scan) << ng.name;
    // The cache must be rebuilt by Subgraph's BuildCsr too.
    std::vector<uint8_t> keep(g.NumEdges(), 0);
    for (EdgeId e = 0; e < g.NumEdges(); e += 2) keep[e] = 1;
    Graph sub = g.Subgraph(keep);
    NodeId sub_scan = 0;
    for (NodeId v = 0; v < sub.NumVertices(); ++v) {
      sub_scan = std::max(sub_scan, sub.OutDegree(v));
    }
    EXPECT_EQ(sub.MaxDegree(), sub_scan) << ng.name;
  }
}

TEST(TraversalKernelTest, EccentricityMatchesVectorFold) {
  TraversalScratch scratch;
  for (const NamedGraph& ng : TestGraphs()) {
    const Graph& g = ng.graph;
    for (NodeId v = 0; v < g.NumVertices();
         v += std::max<NodeId>(1, g.NumVertices() / 9)) {
      std::vector<double> dist = LegacyShortestPathDistances(g, v);
      double ecc = -1.0;
      for (NodeId u = 0; u < g.NumVertices(); ++u) {
        if (u != v && dist[u] != kInfDistance) ecc = std::max(ecc, dist[u]);
      }
      double want = ecc < 0.0 ? kInfDistance : ecc;
      EXPECT_EQ(Eccentricity(g, v), want) << ng.name << " v=" << v;
    }
  }
}

// Graphs the multi-source BFS oracle sweeps: every UndirectedCases() shape
// without its weights (the disconnected one has isolated vertices),
// directed RMat and forest-fire graphs, and n = 0 and n = 1. Apart from
// n = 0, only the RMat graph has a multiple of 64 vertices.
std::vector<NamedGraph> MultiSourceGraphs() {
  std::vector<NamedGraph> graphs;
  for (const GraphCase& c : UndirectedCases()) {
    graphs.push_back({c.name, c.make().Unweighted()});
  }
  Rng rng(41);
  graphs.push_back(
      {"rmat_directed", RMat(7, 500, 0.57, 0.19, 0.19, true, rng)});
  graphs.push_back(
      {"forest_fire_directed", ForestFireModel(150, 0.35, true, rng)});
  graphs.push_back({"n0", Graph::FromEdges(0, {}, false, false)});
  graphs.push_back({"n1", Graph::FromEdges(1, {}, false, false)});
  return graphs;
}

// What MultiSourceBfs must report for `src`, read off BfsLevels.
MultiBfsStats OneSourceStats(const Graph& g, NodeId src,
                             TraversalScratch& scratch) {
  const TraversalSummary sum = BfsLevels(g, src, scratch);
  MultiBfsStats stats;
  stats.reached = sum.reached;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (scratch.Reached(v)) stats.level_sum += scratch.LevelOf(v);
  }
  stats.max_level = static_cast<uint32_t>(sum.max_dist);
  return stats;
}

TEST(MultiSourceBfsTest, MatchesBfsLevelsForEverySource) {
  TraversalScratch multi;  // shared across graphs and batch sizes
  TraversalScratch single;
  for (const NamedGraph& ng : MultiSourceGraphs()) {
    const Graph& g = ng.graph;
    const NodeId n = g.NumVertices();
    if (n == 0) {
      MultiSourceBfs(g, {}, multi, {});  // no sources: nothing to do
      continue;
    }
    for (size_t count : {1, 63, 64, 65}) {
      // Sources stride through the vertices, so the small graphs repeat
      // some; 65 sources take a second call of one.
      std::vector<NodeId> sources(count);
      for (size_t i = 0; i < count; ++i) {
        sources[i] = static_cast<NodeId>((i * 7) % n);
      }
      std::vector<MultiBfsStats> got(count);
      for (size_t first = 0; first < count; first += kMaxMultiBfsSources) {
        const size_t k = std::min(kMaxMultiBfsSources, count - first);
        MultiSourceBfs(g, std::span(sources).subspan(first, k), multi,
                       std::span(got).subspan(first, k));
      }
      for (size_t i = 0; i < count; ++i) {
        const MultiBfsStats want = OneSourceStats(g, sources[i], single);
        EXPECT_EQ(got[i].reached, want.reached)
            << ng.name << " count=" << count << " src=" << sources[i];
        EXPECT_EQ(got[i].level_sum, want.level_sum)
            << ng.name << " count=" << count << " src=" << sources[i];
        EXPECT_EQ(got[i].max_level, want.max_level)
            << ng.name << " count=" << count << " src=" << sources[i];
      }
    }
  }
}

// The oracle above must cover both directions: 64 sources on a dense
// graph pull, and one source on a path only pushes.
TEST(MultiSourceBfsTest, TakesBothDirections) {
  TraversalScratch scratch;
  Rng rng(43);
  Graph dense = ErdosRenyi(200, 2000, false, rng);
  std::vector<NodeId> sources(kMaxMultiBfsSources);
  for (size_t i = 0; i < sources.size(); ++i) sources[i] = 3 * i;
  std::vector<MultiBfsStats> out(sources.size());
  EXPECT_GT(MultiSourceBfs(dense, sources, scratch, out), 0);

  Graph path = PathGraph(100);
  const NodeId src = 0;
  MultiBfsStats one;
  EXPECT_EQ(
      MultiSourceBfs(path, std::span(&src, 1), scratch, std::span(&one, 1)),
      0);
  EXPECT_EQ(one.reached, 100u);
  EXPECT_EQ(one.max_level, 99u);
  EXPECT_EQ(one.level_sum, 99u * 100u / 2);
}

TEST(MultiSourceBfsTest, RejectsMoreThan64SourcesOrAMismatchedOutput) {
  Graph g = PathGraph(80);
  TraversalScratch scratch;
  std::vector<NodeId> sources(65);
  for (size_t i = 0; i < sources.size(); ++i) sources[i] = i;
  std::vector<MultiBfsStats> out(65);
  EXPECT_THROW(MultiSourceBfs(g, sources, scratch, out),
               std::invalid_argument);
  EXPECT_THROW(MultiSourceBfs(g, std::span(sources).first(3), scratch,
                              std::span(out).first(2)),
               std::invalid_argument);
}

// Distance-heavy multi-metric run must stay bit-identical at every thread
// count: the kernel fans per-source traversals out through
// NestedParallelFor with per-thread scratches, and all folds are
// thread-count-independent by construction.
TEST(TraversalKernelTest, DistanceMetricsBitIdenticalAcrossThreadCounts) {
  Rng rng(5);
  Graph g = BarabasiAlbert(150, 3, rng);
  std::vector<BatchMetric> metrics = {
      {"spsp",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return SpspStretch(orig, sp, 400, r).mean_stretch;
       }},
      {"eccentricity",
       [](const Graph& orig, const Graph& sp, Rng& r) {
         return EccentricityStretch(orig, sp, 20, r).mean_stretch;
       }},
      {"diameter",
       [](const Graph&, const Graph& sp, Rng& r) {
         return ApproxDiameter(sp, 4, r);
       }},
  };
  BatchSpec spec;
  spec.sparsifiers = {"RN", "LD"};
  spec.prune_rates = {0.3, 0.6};
  spec.runs = 2;
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);
  auto run_at = [&](int threads) {
    BatchRunner runner(threads);
    std::vector<double> values;
    for (const CellValues& r : CollectValues(runner, g, "bitident", tasks,
                                             spec.master_seed, metrics)) {
      values.insert(values.end(), r.values.begin(), r.values.end());
    }
    return values;
  };
  std::vector<double> one = run_at(1);
  EXPECT_EQ(one, run_at(2));
  EXPECT_EQ(one, run_at(8));
}

}  // namespace
}  // namespace sparsify
