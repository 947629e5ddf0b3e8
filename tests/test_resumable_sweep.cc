// ResumableSweep: a sweep interrupted mid-run and resumed must reproduce
// the cold run bit-identically, submit only the missing cells to the
// engine (scheduling-count hook), and export byte-identical CSV.
#include "src/engine/resumable_sweep.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "gtest/gtest.h"
#include "src/cli/store_export.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// A metric that consumes the per-cell RNG stream, so any drift in cell
// seeding between cold and resumed runs changes the value.
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

void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                              const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      // Bits, not NEAR: the contract is bit-identical doubles (a point
      // without runs is NaN on both sides).
      auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
      };
      const SweepPoint& x = a[s].points[p];
      const SweepPoint& y = b[s].points[p];
      EXPECT_EQ(x.requested_prune_rate, y.requested_prune_rate);
      EXPECT_TRUE(same(x.achieved_prune_rate, y.achieved_prune_rate))
          << x.achieved_prune_rate << " vs " << y.achieved_prune_rate;
      EXPECT_TRUE(same(x.mean, y.mean)) << x.mean << " vs " << y.mean;
      EXPECT_TRUE(same(x.stddev, y.stddev))
          << x.stddev << " vs " << y.stddev;
      EXPECT_EQ(x.runs, y.runs);
    }
  }
}

// The "quad5" series of a one-metric sweep over "fb@0.1".
std::vector<SweepSeries> RunQuad5(ResumableSweep& sweep, const Graph& g,
                                  const SweepConfig& config,
                                  ResumableSweepStats* stats = nullptr) {
  return sweep
      .RunMulti(g, "fb@0.1", {BatchMetric{"quad5", SampledMetric()}}, config,
                stats)[0]
      .series;
}

class ResumableSweepTest : public ::testing::Test {
 protected:
  ResumableSweepTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(ResumableSweepTest, SubsetRunMatchesFullGridSeeds) {
  // Engine-level guarantee the resume path relies on: running a subset of
  // the grid (odd indices) computes the same values as the full run.
  BatchSpec spec = ToBatchSpec(TestConfig());
  std::vector<BatchMetric> metric = {BatchMetric{"quad5", SampledMetric()}};
  std::vector<BatchTask> tasks = BatchRunner::ExpandGrid(spec);
  std::vector<CellValues> full = CollectValues(
      runner_, graph_, "fb@0.1", tasks, spec.master_seed, metric);
  std::vector<BatchTask> odd;
  for (size_t i = 1; i < tasks.size(); i += 2) odd.push_back(tasks[i]);
  std::vector<CellValues> subset = CollectValues(
      runner_, graph_, "fb@0.1", odd, spec.master_seed, metric);
  ASSERT_EQ(subset.size(), odd.size());
  for (size_t j = 0; j < subset.size(); ++j) {
    EXPECT_EQ(subset[j].task.index, odd[j].index);
    EXPECT_EQ(subset[j].values[0], full[odd[j].index].values[0]);
    EXPECT_EQ(subset[j].achieved_prune_rate,
              full[odd[j].index].achieved_prune_rate);
  }
}

TEST_F(ResumableSweepTest, WarmStoreSubmitsZeroCells) {
  std::string dir = TestPath("warm_store");
  ResultStore store(dir);
  SweepConfig config = TestConfig();

  ResumableSweep sweep(runner_, &store, "test-rev");
  ResumableSweepStats first_stats;
  auto first = RunQuad5(sweep, graph_, config, &first_stats);
  size_t total = BatchRunner::ExpandGrid(ToBatchSpec(config)).size();
  EXPECT_EQ(first_stats.total_cells, total);
  EXPECT_EQ(first_stats.cached_cells, 0u);
  EXPECT_EQ(first_stats.submitted_cells, total);

  ResumableSweepStats second_stats;
  auto second = RunQuad5(sweep, graph_, config, &second_stats);
  EXPECT_EQ(second_stats.cached_cells, total);
  EXPECT_EQ(second_stats.submitted_cells, 0u);
  ExpectSeriesBitIdentical(first, second);

  // A different config dimension (seed, metric name, dataset) is a miss.
  SweepConfig other_seed = config;
  other_seed.seed = 999;
  ResumableSweepStats other_stats;
  RunQuad5(sweep, graph_, other_seed, &other_stats);
  EXPECT_EQ(other_stats.cached_cells, 0u);
}

TEST_F(ResumableSweepTest, InterruptedThenResumedIsBitIdenticalToColdRun) {
  SweepConfig config = TestConfig();

  // Cold baseline: the same sweep with no store involved at all.
  ResumableSweep cold_sweep(runner_, nullptr, "test-rev");
  std::vector<SweepSeries> cold =
      RunQuad5(cold_sweep, graph_, config);

  // Uninterrupted store-backed run -> store A.
  std::string dir_a = TestPath("cold_store");
  ResultStore store_a(dir_a);
  {
    ResumableSweep sweep(runner_, &store_a, "test-rev");
    auto series = RunQuad5(sweep, graph_, config);
    ExpectSeriesBitIdentical(cold, series);
  }

  // Simulate a crash after roughly half the cells: store B holds one gone
  // writer's segment with store A's header + first half of its records +
  // a torn fragment of the next.
  const fs::path segment_a = OnlySegment(dir_a);
  std::string content = ReadFile(segment_a.string());
  std::vector<size_t> line_starts;
  for (size_t pos = 0; pos < content.size();) {
    line_starts.push_back(pos);
    pos = content.find('\n', pos) + 1;
  }
  size_t num_records = line_starts.size() - 1;  // minus header
  ASSERT_GT(num_records, 4u);
  size_t keep_records = num_records / 2;
  size_t keep_end = line_starts[1 + keep_records];
  std::string torn = content.substr(0, keep_end + 25);  // mid-next-record
  ASSERT_LT(keep_end + 25, content.size());

  std::string dir_b = TestPath("resume_store");
  fs::create_directories(dir_b);
  WriteFile((fs::path(dir_b) / segment_a.filename()).string(), torn);

  // Resume: replay must drop the torn record, schedule exactly the missing
  // cells, and reassemble the cold-run series bit-identically.
  ResultStore store_b(dir_b);
  EXPECT_EQ(store_b.Size(), keep_records);
  size_t total = BatchRunner::ExpandGrid(ToBatchSpec(config)).size();
  ResumableSweep sweep(runner_, &store_b, "test-rev");
  ResumableSweepStats stats;
  std::vector<SweepSeries> resumed =
      RunQuad5(sweep, graph_, config, &stats);
  EXPECT_EQ(stats.total_cells, total);
  EXPECT_EQ(stats.cached_cells, keep_records);
  EXPECT_EQ(stats.submitted_cells, total - keep_records);
  ExpectSeriesBitIdentical(cold, resumed);

  // The acceptance criterion: exported CSV byte-identical between the
  // uninterrupted and the interrupted+resumed store.
  std::ostringstream csv_a, csv_b;
  cli::ExportStore(store_a, csv_a, /*csv=*/true);
  cli::ExportStore(store_b, csv_b, /*csv=*/true);
  EXPECT_GT(csv_a.str().size(), 0u);
  EXPECT_EQ(csv_a.str(), csv_b.str());

  // And a second resume schedules nothing.
  ResumableSweepStats again;
  RunQuad5(sweep, graph_, config, &again);
  EXPECT_EQ(again.submitted_cells, 0u);
}

TEST_F(ResumableSweepTest, DifferentGridShapeReusesCells) {
  // Since r4 the CellKey carries no grid position: the same (sparsifier,
  // rate, run) under a different --algos list is the SAME cell. This is
  // safe because every RNG stream has been grid-shape independent
  // (GroupSeed + MetricSeed) since r3, and it is load-bearing for
  // sharding — shards compute different task subsets, and merging their
  // stores needs every unit's identity to agree. This test pins the
  // reuse contract.
  std::string dir = TestPath("gridshape_store");
  ResultStore store(dir);

  SweepConfig two_algos = TestConfig();
  two_algos.sparsifiers = {"LD", "RN"};
  ResumableSweep sweep(runner_, &store, "test-rev");
  RunQuad5(sweep, graph_, two_algos);

  SweepConfig rn_only = TestConfig();
  rn_only.sparsifiers = {"RN"};  // subset grid: every RN cell is cached
  ResumableSweepStats stats;
  std::vector<SweepSeries> resumed =
      RunQuad5(sweep, graph_, rn_only, &stats);
  EXPECT_EQ(stats.submitted_cells, 0u);
  EXPECT_EQ(stats.cached_cells, stats.total_cells);
  // The cached fold matches a cold RN-only sweep bit-for-bit — the
  // grid-shape-independent streams are what make the reuse sound.
  ResumableSweep cold_sweep(runner_, nullptr, "test-rev");
  ExpectSeriesBitIdentical(
      RunQuad5(cold_sweep, graph_, rn_only), resumed);

  // Re-running the superset grid is also fully cached.
  RunQuad5(sweep, graph_, two_algos, &stats);
  EXPECT_EQ(stats.submitted_cells, 0u);

  // One store cell per (sparsifier, rate, run): the export's RN series
  // folds exactly the RN-only grid's cells, run counts not inflated.
  std::vector<cli::StoreGroup> groups = cli::RebuildSeries(store);
  ASSERT_EQ(groups.size(), 1u);
  const SweepSeries* rn_series = nullptr;
  for (const SweepSeries& s : groups[0].series) {
    if (s.sparsifier == "RN") rn_series = &s;
  }
  ASSERT_NE(rn_series, nullptr);
  for (const SweepPoint& p : rn_series->points) {
    EXPECT_EQ(p.runs, 3);  // not 6
  }
  ExpectSeriesBitIdentical({resumed[0]}, {*rn_series});
}

TEST_F(ResumableSweepTest, WriteOnlyModeRecomputesButPersists) {
  std::string dir = TestPath("writeonly_store");
  ResultStore store(dir);
  SweepConfig config = TestConfig();
  size_t total = BatchRunner::ExpandGrid(ToBatchSpec(config)).size();

  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_reuse_cached(false);
  ResumableSweepStats stats;
  RunQuad5(sweep, graph_, config, &stats);
  EXPECT_EQ(stats.submitted_cells, total);
  RunQuad5(sweep, graph_, config, &stats);
  EXPECT_EQ(stats.submitted_cells, total);  // never consults the store
  EXPECT_EQ(store.Size(), total);           // but everything is persisted
}

TEST_F(ResumableSweepTest, NullStoreRunsCold) {
  // A null store computes every cell and writes nothing — and its output
  // is bit-identical to a store-backed cold run of the same named sweep.
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  SweepConfig config = TestConfig();
  ResumableSweepStats stats;
  auto series = RunQuad5(sweep, graph_, config, &stats);
  EXPECT_EQ(stats.cached_cells, 0u);

  std::string dir = TestPath("nullstore_ref");
  ResultStore store(dir);
  ResumableSweep backed(runner_, &store, "test-rev");
  ExpectSeriesBitIdentical(
      RunQuad5(backed, graph_, config), series);
}

TEST_F(ResumableSweepTest, FailedUnitIsLeftOutOfItsPoint) {
  // A unit that fails in a tolerant sweep has no value: its point keeps
  // its rate, and mean, achieved rate and runs come from the surviving
  // unit alone. Each k fails the k-th unit to run on one thread, so k = 1..4
  // fails every unit of the 2-rate x 2-run grid once, run 0 and run 1 alike;
  // the store's error record says which unit it was.
  SweepConfig config;
  config.sparsifiers = {"RN"};
  config.prune_rates = {0.3, 0.6};
  config.runs_nondeterministic = 2;
  config.seed = 123;
  struct DisarmGuard {
    ~DisarmGuard() { fail::DisarmAll(); }
  } disarm;
  BatchRunner runner(1);
  ResumableSweep clean_sweep(runner, nullptr, "test-rev");
  const std::vector<SweepSeries> clean = RunQuad5(clean_sweep, graph_, config);
  // The clean value and achieved rate of every (rate, run) unit.
  std::map<std::pair<double, int>, std::pair<double, double>> unit;
  for (const CellValues& r : CollectValues(
           runner, graph_, "fb@0.1",
           BatchRunner::ExpandGrid(ToBatchSpec(config)), config.seed,
           {BatchMetric{"quad5", SampledMetric()}})) {
    unit[{r.task.prune_rate, r.task.run}] = {r.values[0],
                                             r.achieved_prune_rate};
  }
  ASSERT_EQ(unit.size(), 4u);

  std::set<std::pair<double, int>> failed_units;
  for (int k = 1; k <= 4; ++k) {
    SCOPED_TRACE("failing hit " + std::to_string(k));
    ResultStore store(TestPath("failed_unit_" + std::to_string(k)));
    ResumableSweep sweep(runner, &store, "test-rev");
    fail::ArmFromSpec("engine.metric_unit/quad5=throw@" + std::to_string(k));
    std::vector<SweepSeries> series = RunQuad5(sweep, graph_, config);
    fail::DisarmAll();

    std::vector<StoredCell> errors;
    for (const StoredCell& cell : store.Cells()) {
      if (cell.is_error) errors.push_back(cell);
    }
    ASSERT_EQ(errors.size(), 1u);
    const std::pair<double, int> failed = {errors[0].key.prune_rate,
                                           errors[0].key.run};
    failed_units.insert(failed);

    ASSERT_EQ(series.size(), 1u);
    ASSERT_EQ(series[0].points.size(), clean[0].points.size());
    for (size_t p = 0; p < series[0].points.size(); ++p) {
      const SweepPoint& got = series[0].points[p];
      const SweepPoint& want = clean[0].points[p];
      EXPECT_EQ(got.requested_prune_rate, want.requested_prune_rate);
      if (got.requested_prune_rate != failed.first) {
        EXPECT_EQ(got.mean, want.mean);
        EXPECT_EQ(got.runs, 2);
        continue;
      }
      const auto& [value, achieved] =
          unit.at({failed.first, 1 - failed.second});
      EXPECT_EQ(got.runs, 1);
      EXPECT_EQ(got.mean, value);
      EXPECT_EQ(got.stddev, 0.0);
      EXPECT_EQ(got.achieved_prune_rate, achieved);
    }
  }
  EXPECT_EQ(failed_units.size(), 4u);  // run 0 and run 1 at both rates

  // With every unit failed, each point keeps its rate and reports runs 0.
  ResumableSweep sweep(runner, nullptr, "test-rev");
  fail::ArmFromSpec("engine.metric_unit/quad5=throw");
  std::vector<SweepSeries> none = RunQuad5(sweep, graph_, config);
  ASSERT_EQ(none[0].points.size(), clean[0].points.size());
  for (size_t p = 0; p < none[0].points.size(); ++p) {
    EXPECT_EQ(none[0].points[p].requested_prune_rate,
              clean[0].points[p].requested_prune_rate);
    EXPECT_EQ(none[0].points[p].runs, 0);
    EXPECT_TRUE(std::isnan(none[0].points[p].mean));
  }
}

// Static shards (ShardSpec): each shard computes only the cells of its
// own score groups, into its own store, and the stores fold to the
// unsharded sweep.
class ShardSchedulerTest : public ResumableSweepTest {
 protected:
  std::vector<SweepSeries> Run(ResultStore* store, size_t index,
                               size_t total, ResumableSweepStats* stats) {
    ResumableSweep sweep(runner_, store, "test-rev");
    sweep.set_shard({index, total});
    return RunQuad5(sweep, graph_, TestConfig(), stats);
  }
};

TEST_F(ShardSchedulerTest, ShardRequiresStore) {
  EXPECT_THROW(Run(nullptr, 0, 2, nullptr), std::invalid_argument);
}

TEST_F(ShardSchedulerTest, SequentialWorkersPartitionWithoutOverlap) {
  ResumableSweepStats whole;
  const std::vector<SweepSeries> cold = Run(nullptr, 0, 1, &whole);

  // Each shard computes a strict share, no unit twice and no score group
  // twice, into its own directory.
  ResultStoreOptions snapshot;
  snapshot.read_only = true;
  std::vector<std::unique_ptr<ResultStore>> shards;
  size_t units = 0, groups = 0;
  for (size_t i = 0; i < 2; ++i) {
    const std::string dir = TestPath("shard_" + std::to_string(i));
    {
      ResultStore store(dir);
      ResumableSweepStats stats;
      Run(&store, i, 2, &stats);
      EXPECT_GT(stats.submitted_cells, 0u);
      EXPECT_LT(stats.submitted_cells, whole.total_cells);
      EXPECT_EQ(stats.submitted_cells, stats.total_cells);
      EXPECT_EQ(store.Size(), stats.submitted_cells);
      units += stats.submitted_cells;
      groups += stats.score_groups;
    }
    shards.push_back(std::make_unique<ResultStore>(dir, snapshot));
  }
  EXPECT_EQ(units, whole.total_cells);
  EXPECT_EQ(groups, whole.score_groups);

  // Merged, they hold the whole grid: an unsharded resume computes
  // nothing and folds the cold series.
  ResultStore merged(TestPath("shard_merged"));
  merged.Merge({shards[0].get(), shards[1].get()});
  EXPECT_EQ(merged.Size(), whole.total_cells);
  ResumableSweep sweep(runner_, &merged, "test-rev");
  ResumableSweepStats resumed;
  ExpectSeriesBitIdentical(RunQuad5(sweep, graph_, TestConfig(), &resumed),
                           cold);
  EXPECT_EQ(resumed.submitted_cells, 0u);
}

TEST_F(ShardSchedulerTest, RerunOverCompleteStoreSubmitsNothing) {
  ResultStore store(TestPath("shard_rerun"));
  ResumableSweepStats first;
  const std::vector<SweepSeries> want = Run(&store, 1, 2, &first);
  ResumableSweepStats again;
  ExpectSeriesBitIdentical(Run(&store, 1, 2, &again), want);
  EXPECT_EQ(again.total_cells, first.total_cells);
  EXPECT_EQ(again.cached_cells, again.total_cells);
  EXPECT_EQ(again.submitted_cells, 0u);
  EXPECT_EQ(again.score_groups, 0u);
}

}  // namespace
}  // namespace sparsify
