// Integration tests for the sweep harness: end-to-end sparsifier x metric
// sweeps, determinism, symmetrization routing, and output formatting.
#include "src/eval/experiment.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/engine/resumable_sweep.h"
#include "src/graph/generators.h"
#include "src/metrics/components.h"
#include "src/util/rng.h"

namespace sparsify {
namespace {

// A cold, non-persistent sweep of one anonymous metric.
std::vector<SweepSeries> Sweep(const Graph& g, const SweepConfig& config,
                               const BatchMetricFn& metric) {
  BatchRunner runner;
  ResumableSweep sweep(runner, nullptr);
  return sweep.RunMulti(g, "", {BatchMetric{"", metric}}, config)[0].series;
}

BatchMetricFn KeptFractionMetric() {
  return [](const Graph& original, const Graph& sparsified, Rng&) {
    return static_cast<double>(sparsified.NumEdges()) /
           static_cast<double>(original.NumEdges());
  };
}

TEST(SweepTest, EndToEndSmall) {
  Rng gen(91);
  Graph g = BarabasiAlbert(150, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "LD", "SF"};
  config.prune_rates = {0.2, 0.5, 0.8};
  config.runs_nondeterministic = 3;
  auto series = Sweep(g, config, KeptFractionMetric());
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].sparsifier, "RN");
  ASSERT_EQ(series[0].points.size(), 3u);
  // Random: kept fraction = 1 - prune rate, exactly.
  EXPECT_NEAR(series[0].points[0].mean, 0.8, 0.01);
  EXPECT_NEAR(series[0].points[2].mean, 0.2, 0.01);
  EXPECT_EQ(series[0].points[0].runs, 3);
  // LD is deterministic: one run, zero stddev.
  EXPECT_EQ(series[1].points[0].runs, 1);
  EXPECT_DOUBLE_EQ(series[1].points[0].stddev, 0.0);
  // SF has no prune-rate control: a single point.
  EXPECT_EQ(series[2].points.size(), 1u);
}

TEST(SweepTest, DeterministicAcrossCalls) {
  Rng gen(92);
  Graph g = BarabasiAlbert(120, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "FF"};
  config.prune_rates = {0.5};
  config.runs_nondeterministic = 2;
  config.seed = 1234;
  auto a = Sweep(g, config, KeptFractionMetric());
  auto b = Sweep(g, config, KeptFractionMetric());
  for (size_t s = 0; s < a.size(); ++s) {
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      EXPECT_DOUBLE_EQ(a[s].points[p].mean, b[s].points[p].mean);
      EXPECT_DOUBLE_EQ(a[s].points[p].stddev, b[s].points[p].stddev);
    }
  }
}

TEST(SweepTest, DuplicateSparsifierEntriesYieldSeparateSeries) {
  Rng gen(98);
  Graph g = BarabasiAlbert(100, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "RN"};
  config.prune_rates = {0.3, 0.7};
  config.runs_nondeterministic = 2;
  auto series = Sweep(g, config, KeptFractionMetric());
  ASSERT_EQ(series.size(), 2u);
  for (const auto& s : series) {
    EXPECT_EQ(s.sparsifier, "RN");
    EXPECT_EQ(s.points.size(), 2u);
  }
}

TEST(SweepTest, DirectedGraphRoutedThroughSymmetrization) {
  Rng gen(93);
  Graph g = RMat(8, 900, 0.57, 0.19, 0.19, true, gen);
  SweepConfig config;
  config.sparsifiers = {"SF", "ER-uw", "RN"};  // SF/ER undirected-only
  config.prune_rates = {0.5};
  config.runs_nondeterministic = 1;
  // Must not throw: harness symmetrizes for undirected-only sparsifiers.
  auto series = Sweep(g, config, KeptFractionMetric());
  EXPECT_EQ(series.size(), 3u);
  for (const auto& s : series) {
    for (const auto& p : s.points) EXPECT_GT(p.mean, 0.0);
  }
}

TEST(SweepTest, AchievedPruneRateTracked) {
  Rng gen(94);
  Graph g = BarabasiAlbert(150, 4, gen);
  SweepConfig config;
  config.sparsifiers = {"GS"};
  config.prune_rates = {0.3, 0.6};
  auto series = Sweep(g, config, KeptFractionMetric());
  EXPECT_NEAR(series[0].points[0].achieved_prune_rate, 0.3, 0.02);
  EXPECT_NEAR(series[0].points[1].achieved_prune_rate, 0.6, 0.02);
}

TEST(SweepTest, CsvOutputWellFormed) {
  Rng gen(95);
  Graph g = BarabasiAlbert(100, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN"};
  config.prune_rates = {0.5};
  config.runs_nondeterministic = 2;
  auto series = Sweep(g, config, KeptFractionMetric());
  std::ostringstream os;
  PrintSeriesCsv(os, "test title", series);
  std::string out = os.str();
  EXPECT_NE(out.find("# test title"), std::string::npos);
  EXPECT_NE(out.find("sparsifier,prune_rate"), std::string::npos);
  EXPECT_NE(out.find("RN,0.5"), std::string::npos);
}

TEST(SweepTest, TableOutputContainsAllSparsifiers) {
  Rng gen(96);
  Graph g = BarabasiAlbert(100, 3, gen);
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.prune_rates = {0.3, 0.7};
  auto series = Sweep(g, config, KeptFractionMetric());
  std::ostringstream os;
  PrintSeriesTable(os, "Fig X", "val", series, 0.42);
  std::string out = os.str();
  EXPECT_NE(out.find("Fig X"), std::string::npos);
  EXPECT_NE(out.find("RN"), std::string::npos);
  EXPECT_NE(out.find("LD"), std::string::npos);
  EXPECT_NE(out.find("0.42"), std::string::npos);
}

TEST(SweepTest, MetricReceivesMatchingOriginal) {
  // The metric must be called with the same graph the sparsifier consumed:
  // for an undirected-only sparsifier on a directed input, both are the
  // symmetrized version, so the kept-fraction is still in (0, 1].
  Rng gen(97);
  Graph g = RMat(7, 400, 0.57, 0.19, 0.19, true, gen);
  SweepConfig config;
  config.sparsifiers = {"SP-3"};
  auto series = Sweep(
      g, config,
      [](const Graph& original, const Graph& sparsified, Rng& rng) {
        EXPECT_FALSE(original.IsDirected());
        EXPECT_FALSE(sparsified.IsDirected());
        return SampledUnreachableIncrease(original, sparsified, 100, rng);
      });
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].points.size(), 1u);  // SP-3 has no prune control
}

}  // namespace
}  // namespace sparsify
