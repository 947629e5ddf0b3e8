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

// One CLI run with its stdout captured: the exit code and what it printed.
struct CliRun {
  int rc;
  std::string out;
};

// Runs the CLI under a stdout capture that is closed before the result is
// returned, so an assertion on it never leaves the capture open (an open
// capture aborts the next test in the binary that captures).
CliRun RunCliCaptured(std::vector<std::string> args) {
  ::testing::internal::CaptureStdout();
  const int rc = RunCli(std::move(args));
  return {rc, ::testing::internal::GetCapturedStdout()};
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
  // --runs below 1 is not quietly one run, and a stage timeout or a
  // deadline is a finite, positive number of seconds.
  for (const char* cmd : {"sweep", "profile"}) {
    for (const char* flag :
         {"--runs=0", "--stage-timeout=0", "--stage-timeout=-1",
          "--stage-timeout=nan", "--stage-timeout=inf", "--deadline=nan"}) {
      EXPECT_EQ(RunCli({cmd, "--dataset=ego-Facebook", "--metric=degree",
                        "--scale=0.1", flag}),
                cli::kExitUsage)
          << cmd << " " << flag;
    }
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
  const CliRun list = RunCliCaptured({"list"});
  EXPECT_EQ(list.rc, 0);
  EXPECT_NE(list.out.find("Sparsifiers"), std::string::npos);
  EXPECT_NE(list.out.find("Figures"), std::string::npos);
}

TEST(CliTest, BooleanFlagDoesNotSwallowPositionalArg) {
  // `figure --csv 2` must run figure 2, not consume "2" as --csv's value.
  const CliRun figure =
      RunCliCaptured({"figure", "--csv", "2", "--runs=1", "--scale=0.1"});
  EXPECT_EQ(figure.rc, 0);
  EXPECT_NE(figure.out.find("Figure 2"), std::string::npos);
}

TEST(CliTest, SeedAboveIntMaxIsPreserved) {
  std::string dir = TestPath("bigseed_store");
  ASSERT_EQ(RunCli({"sweep", "--dataset=ego-Facebook", "--metric=degree",
                    "--algos=SF", "--runs=1", "--scale=0.1",
                    "--seed=5000000000", "--store=" + dir}),
            0);
  const CliRun ls = RunCliCaptured({"ls", "--store=" + dir});
  ASSERT_EQ(ls.rc, 0);
  EXPECT_NE(ls.out.find("seed=5000000000"), std::string::npos);
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
  const CliRun metrics = RunCliCaptured({"metrics"});
  EXPECT_EQ(metrics.rc, 0);
  EXPECT_NE(metrics.out.find("spsp"), std::string::npos);
  EXPECT_NE(metrics.out.find("sampled"), std::string::npos);
  EXPECT_NE(metrics.out.find("deterministic"), std::string::npos);
  EXPECT_NE(metrics.out.find("kcore"), std::string::npos);
}

TEST(CliTest, MultiMetricSweepSharesSubgraphs) {
  // --metrics=a,b over one grid: units = 2 x cells, but each cell's
  // subgraph is built once (RN 3x2 + LD 3x1 = 9 cells on a 3-rate grid).
  const CliRun sweep = RunCliCaptured(
      {"sweep", "--dataset=ego-Facebook", "--metrics=degree,kcore",
       "--algos=RN,LD", "--rates=0.2,0.5,0.8", "--runs=2", "--scale=0.1",
       "--csv"});
  const std::string& out = sweep.out;
  EXPECT_EQ(sweep.rc, 0);
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
  const CliRun profiled = RunCliCaptured(profile);
  EXPECT_EQ(profiled.rc, 0);
  EXPECT_NE(profiled.out.find("reference_stages=1"), std::string::npos)
      << profiled.out;
  EXPECT_NE(profiled.out.find("\nreference    closeness "), std::string::npos)
      << profiled.out;

  std::string trace = TestPath("trace.json");
  std::vector<std::string> sweep = {"sweep", "--trace=" + trace};
  sweep.insert(sweep.end(), grid.begin(), grid.end());
  const CliRun swept = RunCliCaptured(sweep);
  EXPECT_EQ(swept.rc, 0);
  EXPECT_NE(swept.out.find("reference_stages=1"), std::string::npos)
      << swept.out;
  std::ifstream in(trace);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"name\":\"reference\""), std::string::npos);
}

TEST(CliTest, PaperPresetPinsRunsAndPerDatasetScaleOverrides) {
  // --paper defaults runs to 10 (RN alone: 9 rates x 10 runs = 90 cells);
  // the dataset/metric lists stay overridable, and --scale accepts
  // per-dataset overrides whose value lands in the dataset key.
  const CliRun paper = RunCliCaptured(
      {"sweep", "--paper", "--dataset=ego-Facebook", "--metrics=kcore",
       "--algos=RN", "--rates=0.2,0.5", "--scale=0.2,ego-Facebook=0.1",
       "--csv"});
  EXPECT_EQ(paper.rc, 0);
  EXPECT_NE(paper.out.find("ego-Facebook@0.1"), std::string::npos);
  EXPECT_NE(paper.out.find("total=20"), std::string::npos);  // 2 rates x 10
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

  const CliRun first = RunCliCaptured(sweep_args);
  ASSERT_EQ(first.rc, 0);
  EXPECT_NE(first.out.find("cached=0"), std::string::npos);
  EXPECT_NE(first.out.find("submitted=18"), std::string::npos);

  // Second run against the same store: everything cached, nothing
  // scheduled, identical CSV below the scheduling banner.
  const CliRun second = RunCliCaptured(sweep_args);
  ASSERT_EQ(second.rc, 0);
  EXPECT_NE(second.out.find("cached=18"), std::string::npos);
  EXPECT_NE(second.out.find("submitted=0"), std::string::npos);
  EXPECT_EQ(first.out.substr(first.out.find('\n')),
            second.out.substr(second.out.find('\n')));

  const CliRun ls = RunCliCaptured({"ls", "--store=" + StoreDir()});
  ASSERT_EQ(ls.rc, 0);
  EXPECT_NE(ls.out.find("cells: 18"), std::string::npos);
  EXPECT_NE(ls.out.find("ego-Facebook@0.1 degree"), std::string::npos);

  const CliRun exported = RunCliCaptured({"export", "--store=" + StoreDir()});
  ASSERT_EQ(exported.rc, 0);
  EXPECT_NE(exported.out.find("sparsifier,prune_rate,achieved_prune_rate,"
                              "value,stddev,runs"),
            std::string::npos);
  EXPECT_NE(exported.out.find("RN,"), std::string::npos);

  EXPECT_NE(RunCli({"export", "--store=" + StoreDir(), "--format=bogus"}),
            0);
}

// `ingest` and `sparsify --input` read a file through the one edge-list
// parser: the same graph from a messy file, and exit 1 on a malformed one,
// whether its edge or (with --weighted) its weight is malformed.
TEST(CliTest, IngestAndSparsifyReadTheSameGraph) {
  const std::string dir = TestPath("edge_lists");
  fs::create_directories(dir);
  const std::string messy = dir + "/messy.txt";
  std::ofstream(messy, std::ios::binary)
      << "# header\n% comment\n\n \t\r\n0 1\n1 2\r\n2 0\n2 0\n9 3\n3 3\n";
  const std::string bad = dir + "/bad.txt";
  std::ofstream(bad, std::ios::binary) << "0 1\n1\n2 3\n";
  const std::string bad_weight = dir + "/bad_weight.txt";
  std::ofstream(bad_weight, std::ios::binary) << "0 1 2\n1 2 2.5abc\n2 3\n";
  auto sizes = [](const std::string& out) {
    const size_t at = out.find("|V|=");
    return at == std::string::npos
               ? std::string()
               : out.substr(at, out.find(" isolated", at) - at);
  };

  const CliRun ingested =
      RunCliCaptured({"ingest", "--input=" + messy, "--threads=2"});
  const CliRun sparsified =
      RunCliCaptured({"sparsify", "--algo=RN", "--rate=0", "--input=" + messy,
                      "--output=" + dir + "/out.txt"});
  EXPECT_EQ(ingested.rc, cli::kExitOk);
  EXPECT_EQ(sparsified.rc, cli::kExitOk);
  EXPECT_EQ(sizes(ingested.out), "|V|=10 |E|=4");
  EXPECT_EQ(sizes(sparsified.out), sizes(ingested.out));

  // Both commands reject a malformed file with the parser's message.
  auto expect_rejected = [&](const std::string& input, bool weighted,
                             const std::string& message) {
    std::vector<std::string> ingest = {"ingest", "--input=" + input};
    std::vector<std::string> sparsify = {"sparsify", "--algo=RN", "--rate=0",
                                         "--input=" + input,
                                         "--output=" + dir + "/bad_out.txt"};
    if (weighted) {
      ingest.push_back("--weighted");
      sparsify.push_back("--weighted");
    }
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(RunCli(ingest), cli::kExitUsage);
    EXPECT_EQ(RunCli(sparsify), cli::kExitUsage);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(message), std::string::npos) << err;
  };
  expect_rejected(bad, false, "bad edge at line 2");
  expect_rejected(bad_weight, true, "bad weight at line 2");
  // Without --weighted the weight field is never read.
  EXPECT_EQ(RunCliCaptured({"ingest", "--input=" + bad_weight}).rc,
            cli::kExitOk);
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
  // A store has one writer at a time: while one holds the directory, a
  // sweep, compact or merge into it exits with the busy code, and the
  // lock-free readers `ls` and `export` still run.
  std::string dir = TestPath("exit_lock_store");
  ResultStore holder(dir);
  holder.Append(
      CellKey{"ego-Facebook@0.1", "RN", 0.5, 0, 1234567u, "degree", "x"},
      0.5, 1.0);
  EXPECT_EQ(RunCli({"ls", "--store=" + dir}), cli::kExitOk);
  EXPECT_EQ(RunCliCaptured({"export", "--store=" + dir}).rc, cli::kExitOk);
  EXPECT_EQ(RunCli(SweepArgs(dir)), cli::kExitLockHeld);
  EXPECT_EQ(RunCli({"compact", "--store=" + dir}), cli::kExitLockHeld);
  std::string other = TestPath("exit_lock_other");
  { ResultStore empty(other); }
  EXPECT_EQ(RunCli({"merge", other, "-o", dir}), cli::kExitLockHeld);
  EXPECT_EQ(holder.Size(), 1u);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string CaptureExport(const std::string& dir) {
  const CliRun exported = RunCliCaptured({"export", "--store=" + dir});
  EXPECT_EQ(exported.rc, cli::kExitOk);
  return exported.out;
}

TEST_F(CliExitCodeTest, StoreFromSharedDirectoryBinariesStillReads) {
  // Binaries that let writers share a directory left claim lines among
  // the records, lease files and a flock sidecar. Such a store, with a
  // torn tail besides, opens, exports what its records export, and
  // compact drops the claim.
  std::string clean = TestPath("shared_clean");
  ASSERT_EQ(RunCliCaptured(SweepArgs(clean)).rc, cli::kExitOk);
  const std::string want = CaptureExport(clean);

  std::string dir = TestPath("shared_store");
  fs::create_directories(dir);
  const std::string writer = "w4242x00000000000000aa";
  std::string log = ReadFile(OnlySegment(clean));
  log.insert(log.find('\n') + 1,
             "{\"kind\":\"claim\",\"writer\":\"w4242x00000000000000aa\","
             "\"scope\":\"7c9a44f0e1b2a3d4\",\"chunk\":0,"
             "\"crc32c\":\"1c1d9b14\"}\n");
  log += "{\"dataset\":\"ego-Fa";
  const std::string seg = dir + "/log." + writer + ".000000.jsonl";
  std::ofstream(seg, std::ios::binary) << log;
  std::ofstream(dir + "/lease." + writer + ".json", std::ios::binary)
      << "{\"writer\":\"" << writer
      << "\",\"pid\":4242,\"heartbeat\":3,\"ttl\":30}\n";
  std::ofstream(dir + "/leases.lock", std::ios::binary);

  EXPECT_EQ(CaptureExport(dir), want);
  const CliRun compacted = RunCliCaptured({"compact", "--store=" + dir});
  ASSERT_EQ(compacted.rc, cli::kExitOk);
  EXPECT_NE(compacted.out.find(": 3 -> 2 records"), std::string::npos)
      << compacted.out;
  EXPECT_TRUE(SegmentFiles(dir).empty());
  EXPECT_EQ(ReadFile(dir + "/results.jsonl").find("claim"),
            std::string::npos);
  EXPECT_EQ(CaptureExport(dir), want);
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
  const CliRun failed = RunCliCaptured(SweepArgs(dir));
  EXPECT_EQ(failed.rc, cli::kExitUnitFailures);
  EXPECT_NE(failed.out.find("failed=1"), std::string::npos);

  // The failure-free metric completed and is in the store; the resume
  // (faults disarmed) submits only the failed unit and exits clean.
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();
  const CliRun healed = RunCliCaptured(SweepArgs(dir));
  EXPECT_EQ(healed.rc, cli::kExitOk);
  EXPECT_NE(healed.out.find("submitted=1"), std::string::npos);
  EXPECT_NE(healed.out.find("cached=1"), std::string::npos);
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
  const int rc = RunCliCaptured(args).rc;
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
  const CliRun healed = RunCliCaptured(args);
  EXPECT_EQ(healed.rc, cli::kExitOk);
  EXPECT_NE(healed.out.find("submitted=" + std::to_string(8 - stored)),
            std::string::npos)
      << healed.out;
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

  const CliRun before = RunCliCaptured({"export", "--store=" + dir});
  ASSERT_EQ(before.rc, cli::kExitOk);

  const auto bytes_before = StoreBytes(dir);
  const CliRun compacted = RunCliCaptured({"compact", "--store=" + dir});
  ASSERT_EQ(compacted.rc, cli::kExitOk);
  EXPECT_NE(compacted.out.find("compacted"), std::string::npos);
  EXPECT_LT(StoreBytes(dir), bytes_before);

  const CliRun after = RunCliCaptured({"export", "--store=" + dir});
  ASSERT_EQ(after.rc, cli::kExitOk);
  EXPECT_EQ(after.out, before.out);

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
  const CliRun full_export = RunCliCaptured({"export", "--store=" + full});
  ASSERT_EQ(full_export.rc, cli::kExitOk);
  const std::string& want = full_export.out;

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
  const CliRun merged = RunCliCaptured({"merge", a, b, "-o", out});
  ASSERT_EQ(merged.rc, cli::kExitOk);
  EXPECT_NE(merged.out.find("merged 2 store(s)"), std::string::npos);
  EXPECT_EQ(CaptureExport(out), want);

  // Merging is idempotent: folding the same inputs again (--out flag
  // spelling) changes nothing.
  ASSERT_EQ(RunCliCaptured({"merge", a, b, "--out=" + out}).rc,
            cli::kExitOk);
  EXPECT_EQ(CaptureExport(out), want);

  // Three static shards of a grid with five score groups, each into its
  // own directory, fold to the cold export of the whole grid.
  const std::vector<std::string> grid = {
      "sweep",      "--dataset=ego-Facebook", "--metrics=degree",
      "--algos=RN,LD,KN", "--rates=0.3,0.6", "--runs=2", "--scale=0.1"};
  auto sweep_into = [&](const std::string& dir, const std::string& shard) {
    std::vector<std::string> args = grid;
    args.push_back("--store=" + dir);
    if (!shard.empty()) args.push_back("--shard=" + shard);
    const CliRun swept = RunCliCaptured(args);
    EXPECT_EQ(swept.rc, cli::kExitOk) << shard;
    return swept.out;
  };
  std::string cold3 = TestPath("merge_cold3");
  sweep_into(cold3, "");
  std::vector<std::string> merge3 = {"merge"};
  for (int i = 0; i < 3; ++i) {
    std::string dir = TestPath("merge_shard" + std::to_string(i));
    const std::string banner = sweep_into(dir, std::to_string(i) + "/3");
    EXPECT_NE(banner.find(" shard=" + std::to_string(i) + "/3"),
              std::string::npos)
        << banner;
    merge3.push_back(dir);
  }
  std::string out3 = TestPath("merge_out3");
  merge3.insert(merge3.end(), {"-o", out3});
  const CliRun merged3 = RunCliCaptured(merge3);
  ASSERT_EQ(merged3.rc, cli::kExitOk);
  EXPECT_NE(merged3.out.find("merged 3 store(s)"), std::string::npos);
  EXPECT_EQ(CaptureExport(out3), CaptureExport(cold3));

  // Usage and IO errors: no inputs / missing output / absent input dir.
  EXPECT_EQ(RunCli({"merge", "-o", out}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a}), cli::kExitUsage);
  EXPECT_EQ(RunCli({"merge", a + "_no_such_dir", "-o", out}), cli::kExitIo);
}

// A stage timeout fails the stage that stalled, not the run: with no
// --deadline, a score group that hangs past --stage-timeout ends its cells
// as 'deadline' error records naming the stage, the other group completes,
// and the sweep exits with the transient/deadline code. A fault-free
// resume heals the store to the export of a cold run.
TEST_F(CliExitCodeTest, StageTimeoutFailsAStalledScoreGroupAlone) {
  auto args = [](const std::string& dir) {
    return std::vector<std::string>{
        "sweep",       "--dataset=ego-Facebook", "--scale=0.2",
        "--metrics=degree", "--algos=RN,LD",     "--rates=0.5",
        "--runs=1",    "--resume",               "--store=" + dir};
  };
  const std::string cold = TestPath("stage_timeout_cold");
  ASSERT_EQ(RunCliCaptured(args(cold)).rc, cli::kExitOk);
  const std::string want = CaptureExport(cold);

  const std::string dir = TestPath("stage_timeout_store");
  // The scoped site picks LD's group at any thread count.
  ASSERT_EQ(
      ::setenv("SPARSIFY_FAILPOINTS", "engine.score_group/LD=hang@1", 1), 0);
  std::vector<std::string> stalled = args(dir);
  stalled.push_back("--stage-timeout=1");
  ::testing::internal::CaptureStderr();
  const int rc = RunCliCaptured(stalled).rc;
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();
  EXPECT_EQ(rc, cli::kExitTransientFailures) << err;
  EXPECT_NE(err.find("1 deadline"), std::string::npos) << err;
  EXPECT_EQ(err.find("--deadline"), std::string::npos) << err;
  {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore store(dir, snapshot);
    EXPECT_EQ(store.ErrorCount(), 1u);
    EXPECT_EQ(store.Size(), 2u);
    for (const StoredCell& cell : store.Cells()) {
      EXPECT_EQ(cell.is_error, cell.key.sparsifier == "LD")
          << cell.key.Canonical();
      if (!cell.is_error) continue;
      EXPECT_EQ(cell.error_class, "deadline");
      EXPECT_EQ(cell.error_message, "score_group LD: stage timeout 1s");
    }
  }
  const CliRun healed = RunCliCaptured(args(dir));
  EXPECT_EQ(healed.rc, cli::kExitOk);
  EXPECT_NE(healed.out.find("submitted=1"), std::string::npos) << healed.out;
  EXPECT_EQ(CaptureExport(dir), want);
}

TEST_F(CliExitCodeTest, MergePrefersSuccessOverErrorRecords) {
  // Store A holds an error record for a unit that store B completed:
  // the merged store must carry B's success no matter the input order.
  std::string a = TestPath("merge_err_a");
  ASSERT_EQ(::setenv("SPARSIFY_FAILPOINTS",
                     "engine.metric_unit/degree=throw", 1),
            0);
  EXPECT_EQ(RunCliCaptured(SweepArgs(a)).rc, cli::kExitUnitFailures);
  ::unsetenv("SPARSIFY_FAILPOINTS");
  fail::DisarmAll();

  std::string b = TestPath("merge_err_b");
  ASSERT_EQ(RunCli(SweepArgs(b)), cli::kExitOk);

  for (const std::vector<std::string>& order :
       {std::vector<std::string>{a, b}, std::vector<std::string>{b, a}}) {
    std::string out = TestPath("merge_err_out");
    const CliRun merge = RunCliCaptured({"merge", order[0], order[1], "-o",
                                         out});
    ASSERT_EQ(merge.rc, cli::kExitOk);
    EXPECT_EQ(merge.out.find("unresolved error"), std::string::npos)
        << merge.out;
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore merged(out, snapshot);
    EXPECT_EQ(merged.ErrorCount(), 0u);
    EXPECT_EQ(merged.Size(), 2u);  // degree + kcore cells, errors resolved
  }
}

}  // namespace
}  // namespace sparsify
