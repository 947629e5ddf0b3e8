// sparsify_cli driver: strict flag validation and the sweep/export/ls
// subcommands end-to-end against a temp store (the same paths the binary
// runs — RunSparsifyCli is the binary's main).
#include "src/cli/sparsify_cli.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/store/result_store.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

namespace fs = std::filesystem;

int RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), "sparsify_cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return cli::RunSparsifyCli(static_cast<int>(argv.size()), argv.data());
}

std::string StoreDir() { return TestPath("cli_store"); }

TEST(CliTest, UnknownFlagIsAnErrorNotANoop) {
  // The classic typo: --thread instead of --threads must abort.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--thread=8"}),
            0);
  EXPECT_NE(RunCli({"export", "--stor=/tmp/x"}), 0);
  EXPECT_NE(RunCli({"nonsense"}), 0);
}

TEST(CliTest, MalformedNumericValueIsAnError) {
  // A garbage value must abort, not silently parse as 0.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--scale=abc"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--runs=3x", "--scale=0.1"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--rates=0.1,oops", "--scale=0.1"}),
            0);
}

TEST(CliTest, ScaleAndRunsThatCannotBeRightAreErrors) {
  // A zero, negative or NaN scale is rejected where the dataset loads, so
  // nothing is stored under a key like "ego-Facebook@0".
  const std::string dir = TestPath("bad_scale_store");
  for (const char* scale : {"--scale=0", "--scale=-1", "--scale=nan"}) {
    EXPECT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                      "--algos=SF", scale, "--store=" + dir}),
              cli::kExitUsage)
        << scale;
  }
  {
    ResultStore store(dir);
    EXPECT_EQ(store.Size(), 0u);
  }
  // `figure` falls back to a figure's default scale only when --scale is
  // absent; an explicit bad one is an error.
  EXPECT_EQ(RunCli({"figure", "2", "--scale=-1", "--runs=1"}),
            cli::kExitUsage);
  EXPECT_EQ(RunCli({"figure", "2", "--scale=0", "--runs=1"}),
            cli::kExitUsage);
  // --runs below 1 is not quietly one run.
  for (const char* cmd : {"sweep", "profile"}) {
    EXPECT_EQ(RunCli({cmd, "--dataset=ego-Facebook", "--metric=degree",
                      "--scale=0.1", "--runs=0"}),
              cli::kExitUsage)
        << cmd;
  }
  EXPECT_EQ(RunCli({"figure", "2", "--scale=0.1", "--runs=0"}),
            cli::kExitUsage);
  EXPECT_EQ(RunCli({"figure", "2", "--scale=0.1", "--runs=-3"}),
            cli::kExitUsage);
}

TEST(CliTest, ValueFlagWithoutValueIsAnError) {
  // `--store` with the value forgotten must not become a directory named
  // "true".
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--scale=0.1", "--store"}),
            0);
  EXPECT_FALSE(fs::exists("true"));
}

TEST(CliTest, ListSucceeds) {
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"list"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("Sparsifiers"), std::string::npos);
  EXPECT_NE(out.find("Figures"), std::string::npos);
}

TEST(CliTest, BooleanFlagDoesNotSwallowPositionalArg) {
  // `figure --csv 2` must run figure 2, not consume "2" as --csv's value.
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"figure", "--csv", "2", "--runs=1", "--scale=0.1"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("Figure 2"), std::string::npos);
}

TEST(CliTest, SeedAboveIntMaxIsPreserved) {
  std::string dir = TestPath("bigseed_store");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--algos=SF", "--runs=1", "--scale=0.1",
                    "--seed=5000000000", "--store=" + dir}),
            0);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"ls", "--store=" + dir}), 0);
  std::string ls = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(ls.find("seed=5000000000"), std::string::npos);
}

TEST(CliTest, UnknownMetricAndDatasetReportErrors) {
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=nope",
                    "--scale=0.1"}),
            0);
  EXPECT_NE(RunCli({"sweep", "--dataset=no-such-dataset", "--metric=degree",
                    "--scale=0.1"}),
            0);
}

TEST(CliTest, MetricsSubcommandListsRegistry) {
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"metrics"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("spsp"), std::string::npos);
  EXPECT_NE(out.find("sampled"), std::string::npos);
  EXPECT_NE(out.find("deterministic"), std::string::npos);
  EXPECT_NE(out.find("kcore"), std::string::npos);
}

TEST(CliTest, MultiMetricSweepSharesSubgraphs) {
  // --metrics=a,b over one grid: units = 2 x cells, but each cell's
  // subgraph is built once (RN 3x2 + LD 3x1 = 9 cells on a 3-rate grid).
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"sweep", "--dataset=ego-Facebook",
                   "--metrics=degree,kcore", "--algos=RN,LD",
                   "--rates=0.2,0.5,0.8", "--runs=2", "--scale=0.1",
                   "--csv"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("total=18"), std::string::npos);
  EXPECT_NE(out.find("submitted=18"), std::string::npos);
  EXPECT_NE(out.find("subgraph_builds=9"), std::string::npos);
  // Both metrics' series are printed.
  EXPECT_NE(out.find("# degree on ego-Facebook@0.1"), std::string::npos);
  EXPECT_NE(out.find("# kcore on ego-Facebook@0.1"), std::string::npos);
  // --metric and --metrics together is an error.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--metrics=kcore", "--scale=0.1"}),
            0);
}

TEST(CliTest, ReferenceStageShowsInBannerProfileAndTrace) {
  // closeness is two-phase, kcore one-call: one reference stage, reported
  // by the banner counter, the profile table and the trace's spans.
  const std::vector<std::string> grid = {
      "--dataset=ego-Facebook", "--metrics=closeness,kcore", "--algos=RN,LD",
      "--rates=0.5", "--runs=1", "--scale=0.1"};
  std::vector<std::string> profile = {"profile"};
  profile.insert(profile.end(), grid.begin(), grid.end());
  ::testing::internal::CaptureStdout();
  int rc = RunCli(profile);
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("reference_stages=1"), std::string::npos) << out;
  EXPECT_NE(out.find("\nreference    closeness "), std::string::npos) << out;

  std::string trace = TestPath("trace.json");
  std::vector<std::string> sweep = {"sweep", "--trace=" + trace};
  sweep.insert(sweep.end(), grid.begin(), grid.end());
  ::testing::internal::CaptureStdout();
  rc = RunCli(sweep);
  out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("reference_stages=1"), std::string::npos) << out;
  std::ifstream in(trace);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"name\":\"reference\""), std::string::npos);
}

TEST(CliTest, PaperPresetPinsRunsAndPerDatasetScaleOverrides) {
  // --paper defaults runs to 10 (RN alone: 9 rates x 10 runs = 90 cells);
  // the dataset/metric lists stay overridable, and --scale accepts
  // per-dataset overrides whose value lands in the dataset key.
  ::testing::internal::CaptureStdout();
  int rc = RunCli({"sweep", "--paper", "--dataset=ego-Facebook",
                   "--metrics=kcore", "--algos=RN", "--rates=0.2,0.5",
                   "--scale=0.2,ego-Facebook=0.1", "--csv"});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("ego-Facebook@0.1"), std::string::npos);  // override
  EXPECT_NE(out.find("total=20"), std::string::npos);  // 2 rates x 10 runs
  // An override naming a dataset outside the sweep is a hard error.
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=kcore",
                    "--scale=0.1,web-Google=0.2"}),
            0);
  // Without --paper, --dataset and --metrics stay required.
  EXPECT_NE(RunCli({"sweep", "--metrics=kcore", "--scale=0.1"}), 0);
  EXPECT_NE(RunCli({"sweep", "--dataset=ego-Facebook", "--scale=0.1"}), 0);
}

TEST(CliTest, SweepResumeExportLsEndToEnd) {
  fs::remove_all(StoreDir());
  std::vector<std::string> sweep_args = {
      "sweep",       "--dataset=ego-Facebook", "--metric=degree",
      "--algos=RN",  "--runs=2",               "--scale=0.1",
      "--store=" + StoreDir(),                 "--resume",
      "--csv"};

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(sweep_args), 0);
  std::string first = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(first.find("cached=0"), std::string::npos);
  EXPECT_NE(first.find("submitted=18"), std::string::npos);

  // Second run against the same store: everything cached, nothing
  // scheduled, identical CSV below the scheduling banner.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(sweep_args), 0);
  std::string second = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(second.find("cached=18"), std::string::npos);
  EXPECT_NE(second.find("submitted=0"), std::string::npos);
  EXPECT_EQ(first.substr(first.find('\n')), second.substr(second.find('\n')));

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"ls", "--store=" + StoreDir()}), 0);
  std::string ls = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(ls.find("cells: 18"), std::string::npos);
  EXPECT_NE(ls.find("ego-Facebook@0.1 degree"), std::string::npos);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + StoreDir()}), 0);
  std::string exported = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(exported.find("sparsifier,prune_rate,achieved_prune_rate,value,"
                          "stddev,runs"),
            std::string::npos);
  EXPECT_NE(exported.find("RN,"), std::string::npos);

  EXPECT_NE(RunCli({"export", "--store=" + StoreDir(), "--format=bogus"}),
            0);
}

// Exit codes are the torture harness's (and CI's) contract: each failure
// class maps to a distinct documented code.
class CliExitCodeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("SPARSIFY_FAILPOINTS");
    fail::DisarmAll();
  }

  std::vector<std::string> SweepArgs(const std::string& dir) {
    return {"sweep",      "--dataset=ego-Facebook",
            "--metrics=degree,kcore", "--algos=RN",
            "--rates=0.5", "--runs=1",
            "--scale=0.1", "--store=" + dir,
            "--resume",    "--csv"};
  }
};

TEST_F(CliExitCodeTest, BusyStoreExitsWithLockHeldCode) {
  // Appending is cooperative since the lease protocol, so `ls` (and a
  // second sweep) proceed alongside a live writer; only exclusive
  // whole-store rewrites — compact — refuse with the busy exit code.
  std::string dir = TestPath("exit_lock_store");
  ResultStore holder(dir);
  holder.Append(
      CellKey{"ego-Facebook@0.1", "RN", 0.5, 0, 1234567u, "degree", "x"},
      0.5, 1.0);
  EXPECT_EQ(RunCli({"ls", "--store=" + dir}), cli::kExitOk);
  EXPECT_EQ(RunCli({"compact", "--store=" + dir}), cli::kExitLockHeld);
}

TEST_F(CliExitCodeTest, CorruptStoreExitsWithCorruptCode) {
  std::string dir = TestPath("exit_corrupt_store");
  ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  // Flip a digit inside the first record of the sweep's segment; the line
  // stays terminated, so replay must classify it as corruption, not a torn
  // tail.
  std::string path = OnlySegment(dir);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  size_t pos = bytes.find("\"value\":") + 8;
  bytes[pos] = bytes[pos] == '2' ? '3' : '2';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_EQ(RunCli({"ls", "--store=" + dir}), cli::kExitCorruptStore);
}

TEST_F(CliExitCodeTest, PermanentUnitFailuresExitWithUnitFailureCode) {
  std::string dir = TestPath("exit_perm_store");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/degree=throw", 1),
            0);
  ::testing::internal::CaptureStdout();
  int rc = RunCli(SweepArgs(dir));
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, cli::kExitUnitFailures);
  EXPECT_NE(out.find("failed=1"), std::string::npos);

  // The failure-free metric completed and is in the store; the resume
  // (faults disarmed) submits only the failed unit and exits clean.
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  std::string healed = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(healed.find("submitted=1"), std::string::npos);
  EXPECT_NE(healed.find("cached=1"), std::string::npos);
}

// A store write that throws is the store's failure, not its unit's: no
// error record for a metric that succeeded, no unit-failure exit, and a
// resume recomputes exactly the units the store is missing.
TEST_F(CliExitCodeTest, StoreWriteFailureIsNoUnitFailure) {
  const std::string dir = TestPath("exit_store_write");
  const std::vector<std::string> args = {
      "sweep",          "--dataset=ego-Facebook", "--metrics=degree,kcore",
      "--algos=RN,LD",  "--rates=0.3,0.6",        "--runs=1",
      "--scale=0.2",    "--threads=1",            "--store=" + dir,
      "--resume",       "--csv"};
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS", "store.append=throw@3", 1), 0);
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(args);
  ::testing::internal::GetCapturedStdout();
  EXPECT_NE(rc, cli::kExitOk);
  EXPECT_NE(rc, cli::kExitUnitFailures);
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();

  size_t stored = 0;
  {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore store(dir, snapshot);
    EXPECT_EQ(store.ErrorCount(), 0u);
    stored = store.Size();
  }
  ASSERT_LT(stored, 8u);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli(args), cli::kExitOk);
  const std::string healed = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(healed.find("submitted=" + std::to_string(8 - stored)),
            std::string::npos)
      << healed;
}

TEST_F(CliExitCodeTest, AllTransientFailuresExitWithTransientCode) {
  std::string dir = TestPath("exit_trans_store");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit=throw-transient", 1),
            0);
  EXPECT_EQ(RunCli(SweepArgs(dir)), cli::kExitTransientFailures);
}

TEST_F(CliExitCodeTest, CompactSubcommandShrinksAndKeepsExport) {
  std::string dir = TestPath("exit_compact_store");
  // Two passes without --resume: every cell recomputed and re-appended,
  // so the log carries superseded records for compact to drop.
  std::vector<std::string> args = SweepArgs(dir);
  args.erase(std::find(args.begin(), args.end(), "--resume"));
  ASSERT_EQ(RunCli(args), cli::kExitOk);
  ASSERT_EQ(RunCli(args), cli::kExitOk);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  std::string before = ::testing::internal::GetCapturedStdout();

  const auto bytes_before = StoreBytes(dir);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"compact", "--store=" + dir}), cli::kExitOk);
  std::string compact_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(compact_out.find("compacted"), std::string::npos);
  EXPECT_LT(StoreBytes(dir), bytes_before);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), before);

  EXPECT_EQ(RunCli({"compact"}), cli::kExitUsage);  // --store required
}

TEST_F(CliExitCodeTest, MergeFoldsShardStoresIntoColdEquivalent) {
  // Two disjoint half-sweeps (different rates) into separate stores,
  // merged, must export exactly like one store that ran the full grid.
  std::string full = TestPath("merge_full");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.3,0.6", "--runs=1",
                    "--scale=0.1", "--store=" + full}),
            cli::kExitOk);
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + full}), cli::kExitOk);
  const std::string want = ::testing::internal::GetCapturedStdout();

  std::string a = TestPath("merge_a");
  std::string b = TestPath("merge_b");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.3", "--runs=1", "--scale=0.1",
                    "--store=" + a}),
            cli::kExitOk);
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metrics=degree",
                    "--algos=RN", "--rates=0.6", "--runs=1", "--scale=0.1",
                    "--store=" + b}),
            cli::kExitOk);

  std::string out = TestPath("merge_out");
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"merge", a, b, "-o", out}), cli::kExitOk);
  std::string merge_out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(merge_out.find("merged 2 store(s)"), std::string::npos);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + out}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), want);

  // Merging is idempotent: folding the same inputs again (--out flag
  // spelling) changes nothing.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"merge", a, b, "--out=" + out}), cli::kExitOk);
  ::testing::internal::GetCapturedStdout();
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli({"export", "--store=" + out}), cli::kExitOk);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), want);

  // Usage and IO errors: no inputs / missing output / absent input dir.
  EXPECT_EQ(RunCli({"merge", "-o", out}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a + "_no_such_dir", "-o", out}), cli::kExitIo);
}

TEST_F(CliExitCodeTest, MergePrefersSuccessOverErrorRecords) {
  // Store A holds an error record for a unit that store B completed:
  // the merged store must carry B's success no matter the input order.
  std::string a = TestPath("merge_err_a");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/degree=throw", 1),
            0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli(SweepArgs(a)), cli::kExitUnitFailures);
  ::testing::internal::GetCapturedStdout();
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();

  std::string b = TestPath("merge_err_b");
  ASSERT_EQ(RunCli(SweepArgs(b)), cli::kExitOk);

  for (const std::vector<std::string>& order :
       {std::vector<std::string>{a, b}, std::vector<std::string>{b, a}}) {
    std::string out = TestPath("merge_err_out");
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(RunCli({"merge", order[0], order[1], "-o", out}),
              cli::kExitOk);
    std::string merge_out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(merge_out.find("unresolved error"), std::string::npos)
        << merge_out;
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore merged(out, snapshot);
    EXPECT_EQ(merged.ErrorCount(), 0u);
    EXPECT_EQ(merged.Size(), 2u);  // degree + kcore cells, errors resolved
  }
}

}  // namespace
}  // namespace sparsify
