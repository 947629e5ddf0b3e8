// Shard scheduler (src/engine/shard_scheduler.cc) driven in-process:
// multiple ResumableSweep instances with their own cooperative store
// handles on one directory must partition, claim, steal, and fold to
// output bit-identical to the unsharded sweep. The multi-process /
// kill -9 half of the contract lives in test_shard_torture.cc.

#include "gtest/gtest.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

BatchMetricFn SampledMetric() {
  return [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };
}

SweepConfig TestConfig() {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD", "SF"};
  config.runs_nondeterministic = 3;
  config.seed = 123;
  return config;
}

void ExpectMultiBitIdentical(const std::vector<MetricSweepSeries>& a,
                             const std::vector<MetricSweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].metric, b[m].metric);
    ASSERT_EQ(a[m].series.size(), b[m].series.size());
    for (size_t s = 0; s < a[m].series.size(); ++s) {
      EXPECT_EQ(a[m].series[s].sparsifier, b[m].series[s].sparsifier);
      ASSERT_EQ(a[m].series[s].points.size(), b[m].series[s].points.size());
      for (size_t p = 0; p < a[m].series[s].points.size(); ++p) {
        EXPECT_EQ(a[m].series[s].points[p].mean,
                  b[m].series[s].points[p].mean);
        EXPECT_EQ(a[m].series[s].points[p].stddev,
                  b[m].series[s].points[p].stddev);
        EXPECT_EQ(a[m].series[s].points[p].achieved_prune_rate,
                  b[m].series[s].points[p].achieved_prune_rate);
        EXPECT_EQ(a[m].series[s].points[p].runs,
                  b[m].series[s].points[p].runs);
      }
    }
  }
}

class ShardSchedulerTest : public ::testing::Test {
 protected:
  ShardSchedulerTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}

  std::vector<BatchMetric> Metrics() {
    return {BatchMetric{"quad5", SampledMetric()}};
  }

  std::vector<MetricSweepSeries> Unsharded() {
    ResumableSweep cold(runner_, nullptr, "test-rev");
    return cold.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), nullptr);
  }

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(ShardSchedulerTest, ShardRequiresStore) {
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  ShardSpec spec;
  spec.index = 0;
  spec.total = 2;
  sweep.set_shard(spec);
  EXPECT_THROW(
      sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), nullptr),
      std::invalid_argument);
}

TEST_F(ShardSchedulerTest, LoneWorkerStealsAbsentPeersChunksAndCompletes) {
  // Worker 0 of 3 launched alone: phase A covers its preferred chunks,
  // phase B finds the never-started peers' chunks unclaimed and steals
  // them all. The fold must equal the unsharded sweep bit-for-bit.
  std::string dir = TestPath("shard_lone");
  ResultStore store(dir);
  ResumableSweep sweep(runner_, &store, "test-rev");
  ShardSpec spec;
  spec.index = 0;
  spec.total = 3;
  sweep.set_shard(spec);
  ResumableSweepStats stats;
  std::vector<MetricSweepSeries> sharded =
      sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), &stats);

  EXPECT_GT(stats.shard_chunks, 1u);
  EXPECT_GT(stats.shard_claimed, 0u);
  EXPECT_GT(stats.shard_stolen, 0u);  // absent peers' chunks were taken
  EXPECT_EQ(stats.failed_units, 0u);
  ExpectMultiBitIdentical(sharded, Unsharded());
}

TEST_F(ShardSchedulerTest, SequentialWorkersPartitionWithoutOverlap) {
  // Two workers, no stealing, run back to back with separate store
  // handles: each computes only its own chunks (no unit is computed
  // twice) and the second worker's fold — which replays the first
  // worker's records at open — matches the unsharded sweep.
  std::string dir = TestPath("shard_seq");
  size_t first_submitted = 0;
  {
    ResultStore store(dir);
    ResumableSweep sweep(runner_, &store, "test-rev");
    ShardSpec spec;
    spec.index = 0;
    spec.total = 2;
    spec.steal = false;
    sweep.set_shard(spec);
    ResumableSweepStats stats;
    sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), &stats);
    first_submitted = stats.submitted_cells;
    EXPECT_GT(first_submitted, 0u);
    EXPECT_LT(first_submitted, stats.total_cells);  // a strict subset
    EXPECT_EQ(stats.shard_stolen, 0u);
  }
  ResultStore store(dir);
  ResumableSweep sweep(runner_, &store, "test-rev");
  ShardSpec spec;
  spec.index = 1;
  spec.total = 2;
  spec.steal = true;  // nothing left to steal; phase B just verifies
  sweep.set_shard(spec);
  ResumableSweepStats stats;
  std::vector<MetricSweepSeries> folded =
      sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), &stats);
  EXPECT_EQ(stats.submitted_cells + first_submitted, stats.total_cells);
  // Worker 0's records replayed at worker 1's open; after worker 1
  // fills the rest, the store holds the complete grid.
  EXPECT_EQ(store.Size(), stats.total_cells);
  ExpectMultiBitIdentical(folded, Unsharded());
}

TEST_F(ShardSchedulerTest, RerunOverCompleteStoreSubmitsNothing) {
  std::string dir = TestPath("shard_rerun");
  ShardSpec spec;
  spec.index = 0;
  spec.total = 2;
  {
    ResultStore store(dir);
    ResumableSweep sweep(runner_, &store, "test-rev");
    sweep.set_shard(spec);
    sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), nullptr);
  }
  ResultStore store(dir);
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_shard(spec);
  ResumableSweepStats stats;
  std::vector<MetricSweepSeries> again =
      sweep.RunMulti(graph_, "fb@0.1", Metrics(), TestConfig(), &stats);
  EXPECT_EQ(stats.submitted_cells, 0u);
  EXPECT_EQ(stats.shard_claimed, 0u);  // complete chunks are never claimed
  EXPECT_EQ(stats.shard_stolen, 0u);
  ExpectMultiBitIdentical(again, Unsharded());
}

}  // namespace
}  // namespace sparsify
