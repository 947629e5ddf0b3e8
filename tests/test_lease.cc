// Writer leases: the file format, liveness judgement, and the reaping
// rules the cooperative store protocol (src/store/result_store.cc) is
// built on. These are unit tests of src/util/lease.h; the end-to-end
// protocol — two live writers, dead-writer reaping, claim stealing — is
// covered by test_result_store.cc and test_shard_torture.cc.
#include "src/util/lease.h"

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <set>
#include <thread>

#include "gtest/gtest.h"
#include "src/store/result_store.h"
#include "src/util/errors.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

TEST(LeaseTest, WriterIdsAreUniqueAndDotFree) {
  // Segment names are `log.<writer>.<n>.jsonl` and split on dots, so a
  // writer id containing a dot would make the parse ambiguous.
  std::set<std::string> ids;
  for (int i = 0; i < 64; ++i) {
    std::string id = lease::NewWriterId();
    EXPECT_EQ(id.find('.'), std::string::npos) << id;
    EXPECT_EQ(id.front(), 'w') << id;
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 64u);
}

TEST(LeaseTest, WriteListRemoveRoundTrip) {
  std::string dir = TestDir();
  lease::LeaseInfo info;
  info.writer = lease::NewWriterId();
  info.pid = static_cast<long>(::getpid());
  info.heartbeat = 7;
  info.ttl_seconds = 2.5;
  lease::WriteLease(dir, info);

  std::vector<lease::LeaseInfo> listed = lease::ListLeases(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].writer, info.writer);
  EXPECT_EQ(listed[0].pid, info.pid);
  EXPECT_EQ(listed[0].heartbeat, 7u);
  EXPECT_EQ(listed[0].ttl_seconds, 2.5);
  EXPECT_FALSE(listed[0].path.empty());

  lease::RemoveLease(dir, info.writer);
  EXPECT_TRUE(lease::ListLeases(dir).empty());
  // Idempotent: removing a removed lease is a no-op, not an error.
  lease::RemoveLease(dir, info.writer);
}

TEST(LeaseTest, MissingDirListsNoLeases) {
  std::string dir = TestPath("lease_no_such_dir");
  EXPECT_TRUE(lease::ListLeases(dir).empty());
}

TEST(LeaseTest, TornLeaseFileParsesAsReapable) {
  // A writer killed mid-rename can leave a truncated lease file. It must
  // parse (pid 0 = provably-not-live) rather than throw, so the next
  // acquirer reaps it instead of wedging.
  std::string dir = TestDir();
  std::ofstream(lease::LeasePathFor(dir, "wtorn"))
      << "{\"writer\":\"wtorn\",\"pi";
  std::vector<lease::LeaseInfo> listed = lease::ListLeases(dir);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].writer, "wtorn");
  EXPECT_EQ(listed[0].pid, 0);
}

TEST(LeaseTest, ProberJudgesDeadPidImmediately) {
  lease::LivenessProber prober;
  lease::LeaseInfo dead;
  dead.writer = "wdead";
  dead.pid = 0;  // torn lease: provably not live
  dead.heartbeat = 1;
  dead.ttl_seconds = 1000;  // TTL is irrelevant for a dead pid
  EXPECT_FALSE(prober.Alive(dead));

  lease::LeaseInfo self;
  self.writer = "wself";
  self.pid = static_cast<long>(::getpid());
  self.heartbeat = 1;
  self.ttl_seconds = 1000;
  EXPECT_TRUE(prober.Alive(self));
}

TEST(LeaseTest, ProberJudgesStalledHeartbeatStaleAfterTtl) {
  // The cross-host / wedged-process case: the pid probe is inconclusive
  // (pretend-live pid), so staleness comes from the counter sitting
  // still for longer than the TTL on the prober's own steady clock.
  lease::LivenessProber prober;
  lease::LeaseInfo info;
  info.writer = "wstall";
  info.pid = static_cast<long>(::getpid());  // "alive" as far as kill(2) knows
  info.heartbeat = 5;
  info.ttl_seconds = 0.2;
  EXPECT_TRUE(prober.Alive(info));  // first observation starts the clock
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(prober.Alive(info));  // counter never advanced past TTL

  // A renewal resurrects it: the counter moved, the clock restarts.
  info.heartbeat = 6;
  EXPECT_TRUE(prober.Alive(info));
}

TEST(LeaseTest, StoreReapsDeadWritersLeaseOnOpen) {
  // A lease whose pid is provably dead must be reaped by the next open —
  // this is what keeps a kill -9'd worker from wedging the store.
  std::string dir = TestDir();
  {
    ResultStore store(dir);
    CellKey key;
    key.dataset = "d";
    key.sparsifier = "RN";
    key.metric = "m";
    store.Append(key, 0.1, 1.0);
  }
  lease::LeaseInfo dead;
  dead.writer = "w1x00000000000000ff";  // plausible id, dead pid
  dead.pid = 0;
  dead.heartbeat = 3;
  lease::WriteLease(dir, dead);
  ASSERT_EQ(lease::ListLeases(dir).size(), 1u);

  ResultStore reopened(dir);
  std::vector<lease::LeaseInfo> remaining = lease::ListLeases(dir);
  ASSERT_EQ(remaining.size(), 1u);  // only the live reopener's lease
  EXPECT_EQ(remaining[0].writer, reopened.WriterId());
  EXPECT_EQ(reopened.Size(), 1u);
}

TEST(LeaseTest, TtlFromEnvValidates) {
  ::setenv("SPARSIFY_LEASE_TTL", "2.5", 1);
  EXPECT_EQ(lease::TtlFromEnv(30.0), 2.5);
  ::setenv("SPARSIFY_LEASE_TTL", "not-a-number", 1);
  EXPECT_THROW(lease::TtlFromEnv(30.0), std::invalid_argument);
  ::setenv("SPARSIFY_LEASE_TTL", "-1", 1);
  EXPECT_THROW(lease::TtlFromEnv(30.0), std::invalid_argument);
  ::unsetenv("SPARSIFY_LEASE_TTL");
  EXPECT_EQ(lease::TtlFromEnv(30.0), 30.0);
}

}  // namespace
}  // namespace sparsify
