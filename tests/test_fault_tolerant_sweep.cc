// Error-tolerant sweeps: a unit that throws must not take the sweep down
// with it — the other units complete, the failure lands in the store as a
// typed error record, the next resume resubmits EXACTLY the failed units,
// and the healed sweep is bit-identical to a cold run that never failed.
// Faults are injected through the failpoint subsystem, so the engine code
// under test is the shipped code, not a test double.
#include <cctype>
#include <chrono>
#include <exception>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/engine/resumable_sweep.h"
#include "src/graph/datasets.h"
#include "src/metrics/basic.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

// Consumes the per-unit RNG stream: any seed drift between a cold run, a
// retried run, and a resumed run changes the value.
BatchMetricFn SampledMetric() {
  return [](const Graph& g, const Graph& h, Rng& rng) {
    return QuadraticFormSimilarity(g, h, 5, rng);
  };
}

// m_bad is the same computation in two-phase form (its "reference" is the
// original graph itself), so a fault can also hit its reference stage.
std::vector<BatchMetric> TwoMetrics() {
  MetricPrepareFn prepare = [](const Graph& g, Rng&) -> MetricEvaluator {
    return [g = &g](const Graph& h, Rng& rng) {
      return QuadraticFormSimilarity(*g, h, 5, rng);
    };
  };
  return {BatchMetric{"m_good", SampledMetric(), nullptr},
          BatchMetric{"m_bad", nullptr, prepare}};
}

SweepConfig TestConfig() {
  SweepConfig config;
  config.sparsifiers = {"RN", "LD"};
  config.runs_nondeterministic = 2;
  config.seed = 321;
  return config;
}

void ExpectSeriesBitIdentical(const std::vector<SweepSeries>& a,
                              const std::vector<SweepSeries>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].sparsifier, b[s].sparsifier);
    ASSERT_EQ(a[s].points.size(), b[s].points.size());
    for (size_t p = 0; p < a[s].points.size(); ++p) {
      EXPECT_EQ(a[s].points[p].mean, b[s].points[p].mean);
      EXPECT_EQ(a[s].points[p].stddev, b[s].points[p].stddev);
      EXPECT_EQ(a[s].points[p].runs, b[s].points[p].runs);
    }
  }
}

class FaultTolerantSweepTest : public ::testing::Test {
 protected:
  FaultTolerantSweepTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(2) {}
  void TearDown() override { fail::DisarmAll(); }

  Graph graph_;
  BatchRunner runner_;
};

TEST_F(FaultTolerantSweepTest, ResultCodeRevCurrent) {
  // Error records share CellKey identity with results. Fault tolerance
  // itself never bumps the revision (same computation, same streams);
  // the r3 -> r4 bump came from the key-schema change that dropped
  // grid_index, r4 -> r5 from the two-phase metrics' reference streams
  // (see cell_key.h history).
  EXPECT_STREQ(kResultCodeRev, "r5");
}

TEST_F(FaultTolerantSweepTest, FailedMetricIsRecordedAndOthersComplete) {
  std::string dir = TestPath("ft_store");
  ResultStore store(dir);
  SweepConfig config = TestConfig();

  // Cold reference for the surviving metric, no store, no faults.
  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  fail::ArmFromSpec("engine.metric_unit/m_bad=throw");
  ResumableSweep sweep(runner_, &store, "test-rev");
  ResumableSweepStats stats;
  auto out = sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);

  const size_t cells = stats.total_cells / 2;  // two metrics
  EXPECT_EQ(stats.failed_units, cells);
  EXPECT_EQ(stats.transient_failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), cells);
  // The sweep finished: the good metric's series match the cold run even
  // though every m_bad unit on the same cells threw.
  ASSERT_EQ(out.size(), 2u);
  ExpectSeriesBitIdentical(out[0].series, reference[0].series);
  for (const StoredCell& cell : store.Cells()) {
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.key.metric, "m_bad");
    EXPECT_EQ(cell.error_class, "permanent");
    EXPECT_EQ(cell.attempts, 1);  // permanent failures never retry
  }

  // Resume with the fault gone: exactly the failed units are submitted,
  // the errors heal, and the recovered series are bit-identical to the
  // cold reference.
  fail::DisarmAll();
  ResumableSweep resume(runner_, &store, "test-rev");
  ResumableSweepStats resume_stats;
  auto healed =
      resume.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &resume_stats);
  EXPECT_EQ(resume_stats.submitted_cells, cells);
  EXPECT_EQ(resume_stats.cached_cells, cells);
  EXPECT_EQ(resume_stats.failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), 0u);
  ExpectSeriesBitIdentical(healed[0].series, reference[0].series);
  ExpectSeriesBitIdentical(healed[1].series, reference[1].series);
}

TEST_F(FaultTolerantSweepTest, TransientFailureRetriesToBitIdenticalValue) {
  SweepConfig config = TestConfig();
  ResumableSweep cold(runner_, nullptr, "test-rev");
  auto reference =
      cold.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, nullptr);

  // One transient fault on some unit's first attempt: the retry must
  // reproduce the exact value the cold run computed (the unit's RNG
  // re-derives from MetricSeed on every attempt).
  fail::ArmFromSpec("engine.metric_unit=throw-transient@1");
  ResumableSweep sweep(runner_, nullptr, "test-rev");
  ResumableSweepStats stats;
  auto out = sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);
  EXPECT_EQ(stats.failed_units, 0u);
  EXPECT_GE(stats.retried_units, 1u);
  ExpectSeriesBitIdentical(out[0].series, reference[0].series);
  ExpectSeriesBitIdentical(out[1].series, reference[1].series);
}

TEST_F(FaultTolerantSweepTest, ExhaustedRetriesRecordTheTransientClass) {
  std::string dir = TestPath("ft_transient_store");
  ResultStore store(dir);
  fail::ArmFromSpec("engine.metric_unit/m_bad=throw-transient");
  ResumableSweep sweep(runner_, &store, "test-rev");
  ResumableSweepStats stats;
  sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
  const size_t cells = stats.total_cells / 2;
  EXPECT_EQ(stats.failed_units, cells);
  EXPECT_EQ(stats.transient_failed_units, cells);
  EXPECT_EQ(stats.retried_units, 2 * cells);  // 2 extra attempts per unit
  for (const StoredCell& cell : store.Cells()) {
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.error_class, "transient");
    EXPECT_EQ(cell.attempts, 3);  // 1 initial + kMaxUnitRetries
  }
}

TEST_F(FaultTolerantSweepTest, SparsifierFailureFailsItsCellsWithoutRetry) {
  std::string dir = TestPath("ft_score_store");
  ResultStore store(dir);
  // Score-group faults hit everything downstream of one sparsifier; they
  // are structural (not per-unit), so no retry — the cells just fail.
  fail::ArmFromSpec("engine.score_group/RN=throw");
  ResumableSweep sweep(runner_, &store, "test-rev");
  ResumableSweepStats stats;
  auto out =
      sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), TestConfig(), &stats);
  EXPECT_GT(stats.failed_units, 0u);
  EXPECT_EQ(store.ErrorCount(), stats.failed_units);
  for (const StoredCell& cell : store.Cells()) {
    if (cell.is_error) {
      EXPECT_EQ(cell.key.sparsifier, "RN");
    } else {
      EXPECT_EQ(cell.key.sparsifier, "LD");
    }
  }
  // LD series survive in both metrics.
  for (const auto& per_metric : out) {
    bool saw_ld = false;
    for (const SweepSeries& s : per_metric.series) {
      saw_ld = saw_ld || (s.sparsifier == "LD" && !s.points.empty());
    }
    EXPECT_TRUE(saw_ld);
  }
}

// ---------------------------------------------------------------------------
// Failure-classification matrix: every stage site x every failure kind.
// Every site feeds one classifier, so a fault injected at score_group,
// reference, subgraph or metric_unit must end its units the same way: the
// class, the attempts and the store records below.

struct FaultCase {
  const char* site;    // failpoint site/scope
  const char* action;  // throw | throw-transient | cancel | hang
};

void PrintTo(const FaultCase& c, std::ostream* os) {
  *os << c.site << " " << c.action;
}

// Instance names end in "_tolerant": every engine run tolerates failures.
std::string FaultCaseName(const ::testing::TestParamInfo<FaultCase>& info) {
  std::string name =
      std::string(info.param.site) + "_" + info.param.action + "_tolerant";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class FailureMatrixTest : public ::testing::TestWithParam<FaultCase> {
 protected:
  // One worker: a stage parked at a cancel site holds the only worker, so
  // nothing else runs until the run token trips.
  FailureMatrixTest()
      : graph_(LoadDatasetScaled("ego-Facebook", 0.1).graph), runner_(1) {}
  void TearDown() override { fail::DisarmAll(); }

  Graph graph_;
  BatchRunner runner_;
};

TEST_P(FailureMatrixTest, OneClassifierAtEverySite) {
  const FaultCase& c = GetParam();
  const std::string site = c.site;
  const std::string action = c.action;
  const bool unit_site = site.rfind("engine.metric_unit", 0) == 0;
  const bool metric_site =
      unit_site || site.rfind("engine.reference", 0) == 0;

  // RN: 2 rates x 2 runs, LD: 2 rates; two metrics -> 12 units. Score
  // group and subgraph faults target RN (its 4 cells, 8 units); unit and
  // reference faults target m_bad (6 units).
  SweepConfig config = TestConfig();
  config.prune_rates = {0.3, 0.6};
  const size_t units = 12;
  const size_t hit_units = metric_site ? 6 : 8;

  ResultStore store(TestPath("store"));
  CancelToken run_token;
  ResumableSweep sweep(runner_, &store, "test-rev");
  sweep.set_cancel_token(&run_token);
  std::thread canceller;
  if (action == "cancel") {
    // The first stage to reach the site parks there until the run token
    // trips; the canceller trips it once the park has begun.
    fail::ArmFromSpec(site + "=hang@1");
    canceller = std::thread([&] {
      while (fail::FiredCount(site) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      run_token.Cancel();
    });
  } else if (action == "hang") {
    fail::ArmFromSpec(site + "=hang");
    sweep.set_unit_timeout(0.05);
  } else {
    fail::ArmFromSpec(site + "=" + action);
  }

  ResumableSweepStats stats;
  std::exception_ptr thrown;
  try {
    sweep.RunMulti(graph_, "fb@0.1", TwoMetrics(), config, &stats);
  } catch (...) {
    thrown = std::current_exception();
  }
  if (canceller.joinable()) canceller.join();

  size_t results = 0;
  for (const StoredCell& cell : store.Cells()) {
    if (!cell.is_error) ++results;
  }

  if (action == "cancel") {
    // A cancelled run is no failure: nothing thrown, nothing recorded,
    // every unit either completed or was cancelled.
    EXPECT_FALSE(thrown);
    EXPECT_EQ(stats.failed_units, 0u);
    EXPECT_EQ(stats.retried_units, 0u);
    EXPECT_GE(stats.cancelled_units, 1u);
    EXPECT_EQ(store.ErrorCount(), 0u);
    EXPECT_EQ(results + stats.cancelled_units, units);
    return;
  }

  ASSERT_FALSE(thrown);
  std::string want_class = "permanent";
  int want_attempts = 1;
  if (action == "throw-transient") {
    want_class = "transient";
    if (unit_site) want_attempts = 3;  // stage faults never retry
  }
  if (action == "hang") want_class = "deadline";
  EXPECT_EQ(stats.failed_units, hit_units);
  EXPECT_EQ(stats.cancelled_units, 0u);
  EXPECT_EQ(stats.transient_failed_units,
            want_class == "transient" ? hit_units : 0u);
  EXPECT_EQ(stats.deadline_exceeded_units,
            want_class == "deadline" ? hit_units : 0u);
  EXPECT_EQ(stats.retried_units, hit_units * (want_attempts - 1));
  EXPECT_EQ(store.ErrorCount(), hit_units);
  EXPECT_EQ(results, units - hit_units);
  for (const StoredCell& cell : store.Cells()) {
    const bool hit = metric_site ? cell.key.metric == "m_bad"
                                 : cell.key.sparsifier == "RN";
    EXPECT_EQ(cell.is_error, hit) << cell.key.Canonical();
    if (!cell.is_error) continue;
    EXPECT_EQ(cell.error_class, want_class);
    EXPECT_EQ(cell.attempts, want_attempts);
  }
}

std::vector<FaultCase> FaultCases() {
  std::vector<FaultCase> cases;
  for (const char* site : {"engine.score_group/RN", "engine.subgraph/RN",
                           "engine.metric_unit/m_bad",
                           "engine.reference/m_bad"}) {
    for (const char* action : {"throw", "throw-transient", "cancel"}) {
      cases.push_back({site, action});
    }
  }
  cases.push_back({"engine.metric_unit/m_bad", "hang"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sites, FailureMatrixTest,
                         ::testing::ValuesIn(FaultCases()), FaultCaseName);

}  // namespace
}  // namespace sparsify
