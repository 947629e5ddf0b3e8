// Two-phase metrics: the engine's reference stage prepares a metric's
// full-graph reference once per (metric, input graph), and every unit
// scores against it.
//   - Oracle: every top-k precision metric scores G against itself as 1.
//   - The deterministic references are bit-identical to the per-cell form
//     they replaced (kept below as the reference implementation).
//   - The sampled references (betweenness pivots, f1's Louvain run) are
//     bit-identical across thread counts, submitted subsets and metric-set
//     compositions.
//   - Scheduling: one stage per (metric, input graph) a submitted unit
//     needs, none on a warm resume. (A failed reference is a site of the
//     failure matrix in test_fault_tolerant_sweep.cc.)
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/metrics.h"
#include "src/engine/batch_runner.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/metrics/basic.h"
#include "src/metrics/centrality.h"
#include "src/store/result_store.h"
#include "src/util/stats.h"
#include "tests/test_graphs.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

// The per-cell form of the deterministic two-phase metrics: the reference
// recomputed on `original` inside every unit.
const std::map<std::string, BatchMetricFn>& PerCellReferenceMetrics() {
  static const std::map<std::string, BatchMetricFn> metrics = {
      {"degree",
       [](const Graph& g, const Graph& h, Rng&) {
         return BhattacharyyaDistance(DegreeHistogram(g, 100, g.MaxDegree()),
                                      DegreeHistogram(h, 100, h.MaxDegree()));
       }},
      {"closeness",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(ClosenessCentrality(g), ClosenessCentrality(h),
                              100);
       }},
      {"eigenvector",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(EigenvectorCentrality(g),
                              EigenvectorCentrality(h), 100);
       }},
      {"katz",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(KatzCentrality(g), KatzCentrality(h), 100);
       }},
      {"pagerank",
       [](const Graph& g, const Graph& h, Rng&) {
         return TopKPrecision(PageRank(g), PageRank(h), 100);
       }},
  };
  return metrics;
}

Graph MakeDirected() {
  Rng rng(304);
  return ErdosRenyi(80, 320, /*directed=*/true, rng);
}

// RN takes directed input, SF the symmetrized copy: on a directed graph
// the grid has two input graphs.
BatchSpec MixedSpec(uint64_t seed) {
  BatchSpec spec;
  spec.sparsifiers = {"RN", "SF"};
  spec.prune_rates = {0.2, 0.5, 0.8};
  spec.runs = 2;
  spec.master_seed = seed;
  return spec;
}

// CollectValues already fails the test on any failed unit.
void ExpectSameValues(const std::vector<CellValues>& a,
                      const std::vector<CellValues>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].values.size(), b[i].values.size()) << what;
    for (size_t s = 0; s < a[i].values.size(); ++s) {
      // EXPECT_EQ on doubles is exact: the contract is bit-identical.
      EXPECT_EQ(a[i].values[s], b[i].values[s])
          << what << " cell " << i << " slot " << s;
    }
  }
}

TEST(MetricReferenceTest, TopKPrecisionOfGraphAgainstItselfIsOne) {
  // n <= 300, so betweenness's 300 pivots are every vertex on both sides
  // and its two rankings are exact.
  Rng gen(305);
  Graph g = ErdosRenyi(250, 1000, false, gen);
  for (const char* name :
       {"betweenness", "closeness", "eigenvector", "katz", "pagerank"}) {
    Rng rng(7);
    EXPECT_EQ(EvaluateMetric(cli::FindMetric(name), g, g, rng), 1.0) << name;
  }
}

TEST(MetricReferenceTest, RegistryTwoPhaseSetMatchesItsDocumentation) {
  for (const auto& [name, named] : cli::NamedMetrics()) {
    const bool two_phase = name == "closeness" || name == "betweenness" ||
                           name == "eigenvector" || name == "katz" ||
                           name == "pagerank" || name == "f1" ||
                           name == "degree";
    EXPECT_EQ(static_cast<bool>(named.metric.prepare), two_phase) << name;
    EXPECT_NE(static_cast<bool>(named.metric.fn), two_phase) << name;
    EXPECT_EQ(named.metric.name, name);
  }
}

// Each deterministic two-phase metric equals its per-cell form bit for
// bit, evaluated directly and through the engine, on every undirected
// shape and on a directed graph (where SF's cells see the symmetrized
// copy and RN's the directed graph).
TEST(MetricReferenceTest, DeterministicReferencesMatchPerCellFormBitForBit) {
  std::vector<GraphCase> cases = UndirectedCases();
  cases.push_back({"directed", MakeDirected});
  BatchRunner runner(3);
  for (const GraphCase& c : cases) {
    Graph g = c.make();
    BatchSpec spec = MixedSpec(17);
    std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);
    for (const auto& [name, per_cell] : PerCellReferenceMetrics()) {
      const BatchMetric& metric = cli::FindMetric(name);
      ASSERT_TRUE(metric.prepare) << name;
      std::string what = c.name + "/" + name;

      Rng sparsify_rng(3);
      Graph h = CreateSparsifier("RN")->Sparsify(g, 0.5, sparsify_rng);
      Rng rng_a(9), rng_b(9);
      EXPECT_EQ(EvaluateMetric(metric, g, h, rng_a), per_cell(g, h, rng_b))
          << what;

      BatchRunStats stats;
      std::vector<CellValues> two_phase = CollectValues(
          runner, g, c.name, tasks, spec.master_seed, {metric}, &stats);
      std::vector<CellValues> one_call =
          CollectValues(runner, g, c.name, tasks, spec.master_seed,
                        {BatchMetric{name, per_cell, nullptr}});
      ExpectSameValues(two_phase, one_call, what);
      EXPECT_EQ(stats.reference_stages, g.IsDirected() ? 2u : 1u) << what;
    }
  }
}

// The sampled references draw from ReferenceSeed, which names no cell,
// thread count or metric set.
TEST(MetricReferenceTest, SampledReferencesAreIndependentOfScheduling) {
  Graph g = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  BatchSpec spec = MixedSpec(23);
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);
  for (const char* name : {"betweenness", "f1"}) {
    const BatchMetric& metric = cli::FindMetric(name);
    BatchRunner one(1), four(4);
    std::vector<CellValues> serial =
        CollectValues(one, g, "fb@0.1", tasks, spec.master_seed, {metric});
    ExpectSameValues(serial,
                     CollectValues(four, g, "fb@0.1", tasks, spec.master_seed,
                                   {metric}),
                     std::string(name) + " 1 vs 4 threads");

    // {metric, other}: the metric keeps id 0, so its values line up.
    std::vector<CellValues> composed =
        CollectValues(four, g, "fb@0.1", tasks, spec.master_seed,
                      {metric, cli::FindMetric("closeness")});
    for (CellValues& r : composed) r.values.resize(1);
    ExpectSameValues(serial, composed, std::string(name) + " composition");

    // A subset: every other cell, alone.
    std::vector<BatchTask> subset;
    std::vector<CellValues> expected;
    for (size_t i = 0; i < tasks.size(); i += 2) {
      subset.push_back(tasks[i]);
      expected.push_back(serial[i]);
    }
    ExpectSameValues(expected,
                     CollectValues(four, g, "fb@0.1", subset, spec.master_seed,
                                   {metric}),
                     std::string(name) + " subset");
  }
}

TEST(MetricReferenceTest, StagesRunOnlyForReferencesSubmittedUnitsNeed) {
  Graph g = LoadDatasetScaled("ego-Facebook", 0.1).graph;
  BatchRunner runner(2);
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 2;
  config.seed = 5;
  std::vector<BatchMetric> metrics = {cli::FindMetric("closeness"),
                                      cli::FindMetric("f1"),
                                      cli::FindMetric("kcore")};
  ResultStore store(TestPath("store"));
  ResumableSweep sweep(runner, &store);
  sweep.set_reuse_cached(true);

  ResumableSweepStats cold;
  std::vector<MetricSweepSeries> cold_out =
      sweep.RunMulti(g, "fb@0.1", metrics, config, &cold);
  EXPECT_EQ(cold.submitted_cells, 18u);
  EXPECT_EQ(cold.reference_stages, 2u);  // closeness and f1; kcore has none

  ResumableSweepStats warm;
  std::vector<MetricSweepSeries> warm_out =
      sweep.RunMulti(g, "fb@0.1", metrics, config, &warm);
  EXPECT_EQ(warm.submitted_cells, 0u);
  EXPECT_EQ(warm.reference_stages, 0u);
  ASSERT_EQ(cold_out.size(), warm_out.size());
  for (size_t m = 0; m < cold_out.size(); ++m) {
    ASSERT_EQ(cold_out[m].series.size(), warm_out[m].series.size());
    for (size_t s = 0; s < cold_out[m].series.size(); ++s) {
      const std::vector<SweepPoint>& a = cold_out[m].series[s].points;
      const std::vector<SweepPoint>& b = warm_out[m].series[s].points;
      ASSERT_EQ(a.size(), b.size());
      for (size_t p = 0; p < a.size(); ++p) EXPECT_EQ(a[p].mean, b[p].mean);
    }
  }

  // Adding a one-call metric to the finished store prepares nothing.
  metrics.push_back(cli::FindMetric("isolated"));
  ResumableSweepStats more;
  sweep.RunMulti(g, "fb@0.1", metrics, config, &more);
  EXPECT_EQ(more.submitted_cells, 6u);
  EXPECT_EQ(more.reference_stages, 0u);
}

}  // namespace
}  // namespace sparsify
