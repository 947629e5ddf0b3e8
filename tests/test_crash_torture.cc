// Crash torture: SIGKILL the CLI mid-sweep at injected kill points, then
// resume against the survived store and require (a) the resume completes
// cleanly and (b) the exported CSV is byte-identical to a cold run that
// never crashed. This is the kill-anywhere invariant the store's
// append/flush/fsync discipline exists to provide.
//
// The child runs the real CLI entry point (RunSparsifyCli is the binary's
// main) with SPARSIFY_FAILPOINTS armed, so the path under torture is the
// shipped one end to end: ingest, engine, store, banner.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/sparsify_cli.h"
#include "src/store/result_store.h"
#include "src/util/failpoint.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

int RunCli(std::vector<std::string> args) {
  args.insert(args.begin(), "sparsify_cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return cli::RunSparsifyCli(static_cast<int>(argv.size()), argv.data());
}

std::vector<std::string> SweepArgs(const std::string& dir) {
  return {"sweep",       "--dataset=ego-Facebook",
          "--metrics=degree,kcore", "--algos=RN,LD",
          "--rates=0.3,0.6", "--runs=1",
          "--scale=0.1", "--store=" + dir,
          "--resume",    "--csv"};
}

std::string CaptureExport(const std::string& dir) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  return ::testing::internal::GetCapturedStdout();
}

class CrashTortureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("SPARSIFY_FAILPOINTS");
    ::unsetenv("SPARSIFY_STORE_FSYNC");
    fail::DisarmAll();
  }

  // Forks a child that arms `spec` and runs the sweep into `dir`. Returns
  // true if the child died by SIGKILL, false if the sweep outran the kill
  // point and exited normally. Anything else fails the test.
  bool RunKilledSweep(const std::string& dir, const std::string& spec) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: banner noise goes nowhere; the kill must be the only exit.
      std::freopen("/dev/null", "w", stdout);
      ::setenv("SPARSIFY_FAILPOINTS", spec.c_str(), 1);
      if (spec.find("store.fsync") != std::string::npos) {
        // The batch policy syncs every 32 appends — more than this small
        // grid writes — so put a sync (and its kill point) on every append.
        ::setenv("SPARSIFY_STORE_FSYNC", "always", 1);
      }
      int rc = 1;
      try {
        rc = RunCli(SweepArgs(dir));
      } catch (...) {
        rc = 99;
      }
      std::_Exit(rc);
    }
    EXPECT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL) << "spec " << spec;
      return true;
    }
    EXPECT_TRUE(WIFEXITED(status)) << "spec " << spec;
    EXPECT_EQ(WEXITSTATUS(status), cli::kExitOk) << "spec " << spec;
    return false;
  }
};

TEST_F(CrashTortureTest, KillAnywhereThenResumeExportsIdentically) {
  // Cold reference: the same sweep, never crashed.
  std::string cold_dir = TestPath("torture_cold");
  ASSERT_EQ(RunCli(SweepArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);
  ASSERT_FALSE(want.empty());

  // Kill points across the store's write path: early, mid, and late
  // appends (8 units total), the fsync syscall itself, and the engine's
  // metric unit (a worker thread dies mid-computation).
  const std::vector<std::string> kill_specs = {
      "store.append=kill@1",
      "store.append=kill@4",
      "store.append=kill@8",
      "store.fsync=kill@1",
      "engine.metric_unit=kill@3",
  };
  for (const std::string& spec : kill_specs) {
    std::string dir = TestPath("torture_" + std::to_string(&spec - kill_specs.data()));
    bool killed = RunKilledSweep(dir, spec);
    EXPECT_TRUE(killed) << "kill point never reached: " << spec;

    // Resume with no faults armed: must complete cleanly...
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk) << "resume after " << spec;
    ::testing::internal::GetCapturedStdout();
    // ...and export byte-identically to the cold run.
    EXPECT_EQ(CaptureExport(dir), want) << "export drift after " << spec;
  }
}

TEST_F(CrashTortureTest, RepeatedKillsOnOneStoreStillConverge) {
  // One store, crashed again and again at moving kill points with fsync
  // forced on every append, then resumed: the log must stay replayable
  // through every generation and finish byte-identical.
  std::string cold_dir = TestPath("torture_conv_cold");
  ASSERT_EQ(RunCli(SweepArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);

  std::string dir = TestPath("torture_conv");
  ::setenv("SPARSIFY_STORE_FSYNC", "always", 1);
  for (int n = 1; n <= 3; ++n) {
    RunKilledSweep(dir, "store.append=kill@" + std::to_string(n));
  }
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(CaptureExport(dir), want);
}

TEST_F(CrashTortureTest, AbortActionAlsoRecovers) {
  // abort() takes the streams down without flushing, a different tear
  // shape than SIGKILL (stdio buffers lost, no atexit).
  std::string cold_dir = TestPath("torture_abort_cold");
  ASSERT_EQ(RunCli(SweepArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);

  std::string dir = TestPath("torture_abort");
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    ::setenv("SPARSIFY_FAILPOINTS", "store.append=abort@2", 1);
    std::_Exit(RunCli(SweepArgs(dir)));
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(CaptureExport(dir), want);
}

// Forks a child running the sweep with `spec` armed, streams silenced.
// Returns the child's pid (the caller signals and reaps it).
pid_t ForkSweep(const std::string& dir, const std::string& spec) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::freopen("/dev/null", "w", stderr);
    ::setenv("SPARSIFY_FAILPOINTS", spec.c_str(), 1);
    int rc = 99;
    try {
      rc = RunCli(SweepArgs(dir));
    } catch (...) {
    }
    std::_Exit(rc);
  }
  return pid;
}

TEST_F(CrashTortureTest, SigtermMidSweepDrainsAndResumesIdentically) {
  // Graceful shutdown is the THIRD tear shape: unlike SIGKILL/SIGABRT the
  // process gets to drain in-flight units and exit with a documented code,
  // but the store contract is the same — resume must reproduce the cold
  // run byte-identically.
  std::string cold_dir = TestPath("torture_term_cold");
  ASSERT_EQ(RunCli(SweepArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);

  std::string dir = TestPath("torture_term");
  // Every metric unit sleeps 2s, so the run is guaranteed to still be in
  // flight when the signal lands ~300ms in, at any thread count.
  const pid_t pid = ForkSweep(dir, "engine.metric_unit=delay:2000");
  ASSERT_GT(pid, 0);
  ::usleep(300 * 1000);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // A clean drain: normal exit (not signal death) with the documented
  // interrupted code.
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), cli::kExitInterrupted);

  // The survived store replays without repair and the resumed sweep
  // finishes exactly where the interrupted one would have.
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunCli(SweepArgs(dir)), cli::kExitOk);
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(CaptureExport(dir), want);
}

TEST_F(CrashTortureTest, SecondSigtermAbortsImmediately) {
  std::string dir = TestPath("torture_term2");
  // 10s per unit: at 1s the workers are deep inside the delay, so the
  // first signal cannot finish draining before the second arrives.
  const pid_t pid = ForkSweep(dir, "engine.metric_unit=delay:10000");
  ASSERT_GT(pid, 0);
  ::usleep(1000 * 1000);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);  // cancels + starts draining
  ::usleep(300 * 1000);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);  // the user means it: _exit(128+15)
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);
}

}  // namespace
}  // namespace sparsify
