// Multi-process shard torture: fork real CLI workers sharing one store,
// SIGKILL them at injected points across the coordination surface (lease
// renewal, segment rotation, mid-append), and require (a) survivors and
// restarts steal the dead workers' claims and (b) the final export is
// byte-identical to a cold single-process sweep that never crashed or
// sharded. This is the crash-convergence guarantee of the lease/segment
// store protocol end to end, through the shipped binary's entry point.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cli/sparsify_cli.h"
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

// A 4-cell x 2-metric grid: 8 units, 4 single-cell chunks under 3
// workers — small enough to finish fast, partitioned enough that every
// worker owns work and stealing has something to take.
std::vector<std::string> ShardArgs(const std::string& dir, size_t index,
                                   size_t total) {
  return {"sweep",
          "--dataset=ego-Facebook",
          "--metrics=degree,kcore",
          "--algos=RN,LD",
          "--rates=0.3,0.6",
          "--runs=1",
          "--scale=0.1",
          "--store=" + dir,
          "--shard=" + std::to_string(index) + "/" + std::to_string(total)};
}

std::vector<std::string> ColdArgs(const std::string& dir) {
  return {"sweep",       "--dataset=ego-Facebook",
          "--metrics=degree,kcore", "--algos=RN,LD",
          "--rates=0.3,0.6", "--runs=1",
          "--scale=0.1", "--store=" + dir};
}

std::string CaptureExport(const std::string& dir) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(RunCli({"export", "--store=" + dir}), cli::kExitOk);
  return ::testing::internal::GetCapturedStdout();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Extracts the "stolen=N" shard-banner counter from captured CLI output;
// 0 when the banner is absent.
size_t StolenFromBanner(const std::string& out) {
  const size_t pos = out.find("stolen=");
  if (pos == std::string::npos) return 0;
  return static_cast<size_t>(
      std::strtoull(out.c_str() + pos + 7, nullptr, 10));
}

class ShardTortureTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("SPARSIFY_FAILPOINTS");
    ::unsetenv("SPARSIFY_LEASE_TTL");
    ::unsetenv("SPARSIFY_STORE_SEGMENT_BYTES");
    fail::DisarmAll();
  }

  struct WorkerSpec {
    size_t index = 0;
    std::string failpoints;     // SPARSIFY_FAILPOINTS, empty = none
    std::string segment_bytes;  // SPARSIFY_STORE_SEGMENT_BYTES override
  };

  // Forks one CLI shard worker; stdout goes to `out_path` so the parent
  // can read its banner after the wait.
  pid_t SpawnWorker(const std::string& dir, size_t total,
                    const WorkerSpec& spec, const std::string& out_path) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::freopen(out_path.c_str(), "w", stdout);
      // A short TTL so survivors judge a kill -9'd peer dead fast; the
      // watchdog of the protocol, not of this test.
      ::setenv("SPARSIFY_LEASE_TTL", "0.5", 1);
      if (!spec.failpoints.empty()) {
        ::setenv("SPARSIFY_FAILPOINTS", spec.failpoints.c_str(), 1);
      }
      if (!spec.segment_bytes.empty()) {
        ::setenv("SPARSIFY_STORE_SEGMENT_BYTES", spec.segment_bytes.c_str(),
                 1);
      }
      int rc = 1;
      try {
        rc = RunCli(ShardArgs(dir, spec.index, total));
      } catch (...) {
        rc = 99;
      }
      std::_Exit(rc);
    }
    EXPECT_GT(pid, 0);
    return pid;
  }

  // Waits for `pid`; returns true if it died by SIGKILL, false on a
  // clean exit 0. Anything else fails the test.
  bool WaitWorker(pid_t pid, const std::string& what) {
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid) << what;
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL) << what;
      return true;
    }
    EXPECT_TRUE(WIFEXITED(status)) << what;
    EXPECT_EQ(WEXITSTATUS(status), 0) << what;
    return false;
  }
};

TEST_F(ShardTortureTest, ThreeCleanWorkersConvergeToColdExport) {
  std::string cold_dir = TestPath("shardt_cold_ref");
  ASSERT_EQ(RunCli(ColdArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);
  ASSERT_FALSE(want.empty());

  std::string dir = TestPath("shardt_clean");
  fs::create_directories(dir);
  std::vector<pid_t> pids;
  for (size_t i = 0; i < 3; ++i) {
    WorkerSpec spec;
    spec.index = i;
    pids.push_back(
        SpawnWorker(dir, 3, spec, dir + "/worker" + std::to_string(i)));
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(WaitWorker(pids[i], "clean worker " + std::to_string(i)));
  }
  EXPECT_EQ(CaptureExport(dir), want);
}

TEST_F(ShardTortureTest, KilledWorkersAreStolenFromAndExportConverges) {
  // Cold single-process reference: never sharded, never crashed.
  std::string cold_dir = TestPath("shardt_cold");
  ASSERT_EQ(RunCli(ColdArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);
  ASSERT_FALSE(want.empty());

  // Three workers, three kill points across the coordination surface:
  //   worker 0: mid-append — the 4th append is its SECOND claim record
  //             (claim, unit, unit, claim), so it dies holding a claimed
  //             chunk with zero units done: the must-steal case;
  //   worker 1: segment rotation (segments capped at 512 bytes, so the
  //             second-ish append rotates) — dies between segment files;
  //   worker 2: lease renewal — dies when the heartbeat thread renews.
  std::string dir = TestPath("shardt_kill");
  fs::create_directories(dir);
  const std::vector<WorkerSpec> specs = {
      {0, "store.append=kill@4", ""},
      {1, "store.rotate=kill@1", "512"},
      {2, "store.lease.renew=kill@3", ""},
  };
  // Worker 0 runs alone to its kill point before the others start: with
  // no peer to take its chunks first, it always reaches its second claim,
  // so at least one kill is certain. Once reaped, its pid turns ESRCH and
  // the survivors judge it dead immediately (no TTL wait).
  std::vector<pid_t> pids;
  size_t killed = 0;
  for (const WorkerSpec& spec : specs) {
    pids.push_back(SpawnWorker(dir, 3, spec,
                               dir + "/worker" + std::to_string(spec.index)));
    if (spec.index == 0 && WaitWorker(pids[0], "torture worker 0")) {
      ++killed;
    }
  }
  for (size_t i = 1; i < 3; ++i) {
    if (WaitWorker(pids[i], "torture worker " + std::to_string(i))) {
      ++killed;
    }
  }
  // The rotate/renew kills of workers 1 and 2 depend on scheduling. The
  // convergence contract below must hold for every interleaving.
  EXPECT_GT(killed, 0u);

  // A restarted worker (same shard id as dead worker 0) completes the
  // grid: every incomplete chunk's claimants are provably dead, so it
  // claims or steals whatever is left and exits clean.
  ::setenv("SPARSIFY_LEASE_TTL", "0.5", 1);
  ::testing::internal::CaptureStdout();
  int rc = RunCli(ShardArgs(dir, 0, 3));
  const std::string restart_out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, cli::kExitOk);

  // The converged store exports byte-identically to the cold reference:
  // at most in-flight units were lost, and every re-run was bit-exact.
  EXPECT_EQ(CaptureExport(dir), want);

  // The store replays clean after all the carnage — torn tails sealed,
  // orphan segments reaped — and a second restarted worker finds nothing
  // to do.
  ::testing::internal::CaptureStdout();
  rc = RunCli(ShardArgs(dir, 1, 3));
  const std::string idle_out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, cli::kExitOk);
  EXPECT_EQ(StolenFromBanner(idle_out), 0u) << idle_out;
}

TEST_F(ShardTortureTest, RestartedWorkerStealsDeadWorkersClaim) {
  // The deterministic steal case. One worker, killed at its SECOND
  // append: the first append is its claim on its first preferred chunk,
  // the second would be that chunk's first unit — so it dies leaving a
  // durable claim with zero units done. A restart under a DIFFERENT
  // shard id does not prefer that chunk; completing it (and the rest of
  // the dead worker's share) can only happen through phase-B steals.
  std::string cold_dir = TestPath("shardt_steal_cold");
  ASSERT_EQ(RunCli(ColdArgs(cold_dir)), cli::kExitOk);
  const std::string want = CaptureExport(cold_dir);

  std::string dir = TestPath("shardt_steal");
  fs::create_directories(dir);
  WorkerSpec spec;
  spec.index = 0;
  spec.failpoints = "store.append=kill@2";
  pid_t pid = SpawnWorker(dir, 3, spec, dir + "/worker0");
  ASSERT_TRUE(WaitWorker(pid, "claim-then-die worker"));

  // The dead worker's claim record survived in its segment.
  {
    ResultStoreOptions snapshot;
    snapshot.read_only = true;
    ResultStore peek(dir, snapshot);
    ASSERT_EQ(peek.Claims().size(), 1u);
    EXPECT_EQ(peek.Size(), 0u);  // ...with zero units done
  }

  ::setenv("SPARSIFY_LEASE_TTL", "0.5", 1);
  ::testing::internal::CaptureStdout();
  int rc = RunCli(ShardArgs(dir, 1, 3));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, cli::kExitOk);
  EXPECT_GT(StolenFromBanner(out), 0u) << out;
  EXPECT_EQ(CaptureExport(dir), want);
}

}  // namespace
}  // namespace sparsify
