// The figure registry (src/cli/figures.h): every entry names real
// datasets, sparsifiers, metrics and rates, and every figure, 1a to 13b,
// regenerates end to end through `sparsify_cli figure`, a preset of the
// sweep driver with its store, resume and fault policy.
#include "src/cli/figures.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/sparsify_cli.h"
#include "src/graph/datasets.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/store/result_store.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify::cli {
namespace {

// Runs `sparsify_cli figure <args>` at the smoke-test operating point
// (every figure together takes about a second on a 4-core host); returns
// stdout and sets `*rc`.
std::string RunFigure(std::vector<std::string> args, int* rc) {
  args.insert(args.begin(), {"sparsify_cli", "figure"});
  args.push_back("--scale=0.05");
  args.push_back("--runs=1");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  ::testing::internal::CaptureStdout();
  *rc = RunSparsifyCli(static_cast<int>(argv.size()), argv.data());
  return ::testing::internal::GetCapturedStdout();
}

// `out` without its `# store` banner lines, which only a --store run
// prints.
std::string WithoutStoreBanner(const std::string& out) {
  std::istringstream in(out);
  std::string kept, line;
  while (std::getline(in, line)) {
    if (line.rfind("# store ", 0) != 0) kept += line + "\n";
  }
  return kept;
}

std::vector<double> Rates(const FigureSpec& f) {
  return f.rates.empty() ? SweepConfig{}.prune_rates : f.rates;
}

TEST(FiguresTest, IdsAreUnique) {
  std::set<std::string> ids;
  for (const FigureSpec& f : AllFigures()) {
    EXPECT_TRUE(ids.insert(f.id).second) << f.id;
    EXPECT_EQ(FindFigure(f.id), &f);
  }
  EXPECT_TRUE(ids.contains("13a"));
  EXPECT_TRUE(ids.contains("13b"));
  EXPECT_EQ(FindFigure("no-such-figure"), nullptr);
}

TEST(FiguresTest, EntriesNameKnownDatasetsSparsifiersMetricsAndRates) {
  const std::vector<std::string> datasets = DatasetNames();
  const std::vector<std::string> sparsifiers = SparsifierNames();
  for (const FigureSpec& f : AllFigures()) {
    SCOPED_TRACE(f.id);
    EXPECT_NE(std::find(datasets.begin(), datasets.end(), f.dataset),
              datasets.end());
    EXPECT_FALSE(f.sparsifiers.empty());
    for (const std::string& s : f.sparsifiers) {
      EXPECT_NE(std::find(sparsifiers.begin(), sparsifiers.end(), s),
                sparsifiers.end())
          << s;
    }
    for (double rate : f.rates) {
      EXPECT_GT(rate, 0.0);
      EXPECT_LT(rate, 1.0);
    }
    EXPECT_GT(f.default_scale, 0.0);
    Dataset d = LoadDatasetScaled(f.dataset, 0.05);
    BatchMetric metric = FigureMetric(f.metric, d);
    EXPECT_EQ(metric.name, f.metric);
    EXPECT_TRUE(static_cast<bool>(metric.fn) !=
                static_cast<bool>(metric.prepare));
  }
}

TEST(FiguresTest, EveryFigureRegeneratesOneRowPerSparsifierAndRate) {
  for (const FigureSpec& f : AllFigures()) {
    SCOPED_TRACE(f.id);
    int rc = -1;
    std::istringstream out(RunFigure({f.id, "--csv"}, &rc));
    EXPECT_EQ(rc, 0);
    // Sparsifiers without prune-rate control have one point, not one per
    // rate; with --runs=1 every point averages exactly one unit.
    std::vector<std::string> want;
    for (const std::string& s : f.sparsifiers) {
      bool one_point = CreateSparsifier(s)->Info().prune_rate_control ==
                       PruneRateControl::kNone;
      want.insert(want.end(), one_point ? 1 : Rates(f).size(), s);
    }
    std::vector<std::string> got;
    std::string line;
    while (std::getline(out, line)) {
      size_t comma = line.find(',');
      if (comma == std::string::npos || line.rfind("# ", 0) == 0 ||
          line.rfind("sparsifier,", 0) == 0) {
        continue;  // not a data row: dataset line, title or CSV header
      }
      got.push_back(line.substr(0, comma));
      EXPECT_EQ(line.substr(line.rfind(',')), ",1") << line;
    }
    EXPECT_EQ(got, want);
  }
}

TEST(FiguresTest, GnnFiguresAreIdenticalAtAnyThreadCount) {
  int rc1 = -1, rc4 = -1;
  std::string one = RunFigure({"13a", "13b", "--csv", "--threads=1"}, &rc1);
  std::string four = RunFigure({"13a", "13b", "--csv", "--threads=4"}, &rc4);
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc4, 0);
  EXPECT_EQ(one, four);
}

TEST(FiguresTest, GnnFigureResumesFromItsStore) {
  const std::vector<std::string> args = {
      "13a", "--csv", "--store=" + TestPath("fig13a_store"), "--resume"};
  int rc = -1;
  std::string cold = RunFigure(args, &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(cold.find("submitted=0"), std::string::npos);
  std::string warm = RunFigure(args, &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(warm.find("submitted=0"), std::string::npos);
  // Below the store banner the output is the cold run's.
  auto body = [](const std::string& s) { return s.substr(s.find("\n# F")); };
  EXPECT_EQ(body(warm), body(cold));
}

TEST(FiguresTest, TableShowsGnnReferenceAndBaselineLines) {
  int rc = -1;
  std::string out = RunFigure({"13b"}, &rc);
  EXPECT_EQ(rc, 0);
  size_t reference = out.find("(reference on full graph: ");
  size_t baseline = out.find("(baseline on empty graph: ");
  ASSERT_NE(reference, std::string::npos);
  ASSERT_NE(baseline, std::string::npos);
  EXPECT_LT(reference, baseline);
}

// `figure` runs under the sweep driver's fault policy: a failing unit is
// recorded as an error record while every other unit completes, the run
// exits with the unit-failure code, and --resume retries just that unit
// and prints what a cold run prints.
TEST(FiguresTest, FailedUnitIsRecordedAndResumeHealsIt) {
  const std::string dir = TestPath("fig1a_fault_store");
  const std::vector<std::string> args = {"1a", "--csv", "--store=" + dir};
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/connectivity=throw@3", 1),
            0);
  int rc = -1;
  std::string failed = RunFigure(args, &rc);
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();
  EXPECT_EQ(rc, kExitUnitFailures);
  const size_t total_at = failed.find("total=");
  ASSERT_NE(total_at, std::string::npos) << failed;
  const size_t total = std::strtoull(failed.c_str() + total_at + 6, nullptr,
                                     10);
  {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore store(dir, snapshot);
    EXPECT_EQ(store.Size(), total);
    EXPECT_EQ(store.ErrorCount(), 1u);
  }

  std::vector<std::string> resume_args = args;
  resume_args.push_back("--resume");
  std::string resumed = RunFigure(resume_args, &rc);
  EXPECT_EQ(rc, kExitOk);
  EXPECT_NE(resumed.find("submitted=1"), std::string::npos) << resumed;
  std::string cold = RunFigure({"1a", "--csv"}, &rc);
  EXPECT_EQ(rc, kExitOk);
  EXPECT_EQ(WithoutStoreBanner(resumed), cold);
}

}  // namespace
}  // namespace sparsify::cli
