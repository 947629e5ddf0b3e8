// The figure registry (src/cli/figures.h): every entry names real
// datasets, sparsifiers, metrics and rates, and every figure, 1a to 13b,
// regenerates end to end through RunFigures — the one figure path.
#include "src/cli/figures.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/graph/datasets.h"
#include "src/sparsifiers/sparsifier.h"
#include "tests/test_util.h"

namespace sparsify::cli {
namespace {

// The smoke-test operating point: every figure together takes about a
// second on a 4-core host.
FigureRunOptions SmokeOptions() {
  FigureRunOptions opt;
  opt.scale = 0.05;
  opt.runs = 1;
  opt.csv = true;
  return opt;
}

std::string RunIds(const std::vector<std::string>& ids,
                const FigureRunOptions& opt, int* rc) {
  std::ostringstream os;
  *rc = RunFigures(ids, opt, os);
  return os.str();
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
    std::istringstream out(RunIds({f.id}, SmokeOptions(), &rc));
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
  FigureRunOptions opt = SmokeOptions();
  opt.threads = 1;
  int rc1 = -1, rc4 = -1;
  std::string one = RunIds({"13a", "13b"}, opt, &rc1);
  opt.threads = 4;
  std::string four = RunIds({"13a", "13b"}, opt, &rc4);
  EXPECT_EQ(rc1, 0);
  EXPECT_EQ(rc4, 0);
  EXPECT_EQ(one, four);
}

TEST(FiguresTest, GnnFigureResumesFromItsStore) {
  FigureRunOptions opt = SmokeOptions();
  opt.store_dir = TestPath("fig13a_store");
  opt.resume = true;
  int rc = -1;
  std::string cold = RunIds({"13a"}, opt, &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(cold.find("submitted=0"), std::string::npos);
  std::string warm = RunIds({"13a"}, opt, &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_NE(warm.find("submitted=0"), std::string::npos);
  // Below the store banner the output is the cold run's.
  auto body = [](const std::string& s) { return s.substr(s.find("\n# F")); };
  EXPECT_EQ(body(warm), body(cold));
}

TEST(FiguresTest, TableShowsGnnReferenceAndBaselineLines) {
  FigureRunOptions opt = SmokeOptions();
  opt.csv = false;
  int rc = -1;
  std::string out = RunIds({"13b"}, opt, &rc);
  EXPECT_EQ(rc, 0);
  size_t reference = out.find("(reference on full graph: ");
  size_t baseline = out.find("(baseline on empty graph: ");
  ASSERT_NE(reference, std::string::npos);
  ASSERT_NE(baseline, std::string::npos);
  EXPECT_LT(reference, baseline);
}

}  // namespace
}  // namespace sparsify::cli
