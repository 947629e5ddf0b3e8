// ResultStore: JSONL round-trip, replay semantics, and the crash-recovery
// contract — a log truncated anywhere inside its last record must replay
// to exactly the fully-written cells, never throw, and stay appendable.
#include "src/store/result_store.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "src/util/errors.h"
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

CellKey MakeKey(const std::string& sparsifier, double rate, int run) {
  CellKey key;
  key.dataset = "test-ds@0.5";
  key.sparsifier = sparsifier;
  key.prune_rate = rate;
  key.run = run;
  key.master_seed = 42;
  key.metric = "degree";
  key.code_rev = "test-rev";
  return key;
}

TEST(ResultStoreTest, MissingFileIsEmptyStore) {
  std::string path = TestPath("missing_store.jsonl");
  ResultStore store(path);
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_FALSE(store.Contains(MakeKey("RN", 0.1, 0)));
}

TEST(ResultStoreTest, AppendLookupRoundTrip) {
  std::string path = TestPath("roundtrip_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1002, 0.123456789012345678);
    store.Append(MakeKey("RN", 0.1, 1), 0.1002, -3.5e-12);
    store.Append(MakeKey("LD", 0.9, 0), 0.9, 17.0);
    EXPECT_EQ(store.Size(), 3u);
  }
  // Replay from disk: exact double round-trip and key identity.
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 3u);
  auto cell = replayed.Lookup(MakeKey("RN", 0.1, 0));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, 0.123456789012345678);
  EXPECT_EQ(cell->achieved_prune_rate, 0.1002);
  cell = replayed.Lookup(MakeKey("RN", 0.1, 1));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, -3.5e-12);
  EXPECT_FALSE(replayed.Contains(MakeKey("RN", 0.2, 0)));
  EXPECT_EQ(replayed.DroppedTailBytes(), 0u);
}

TEST(ResultStoreTest, NonFiniteValuesRoundTrip) {
  std::string path = TestPath("nonfinite_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1,
                 std::numeric_limits<double>::infinity());
  }
  ResultStore replayed(path);
  auto cell = replayed.Lookup(MakeKey("RN", 0.1, 0));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, std::numeric_limits<double>::infinity());
}

TEST(ResultStoreTest, DuplicateKeyLastWriteWins) {
  std::string path = TestPath("dup_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 2.0);
    EXPECT_EQ(store.Size(), 1u);
    EXPECT_EQ(store.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  }
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 1u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  EXPECT_EQ(replayed.Cells().size(), 1u);
}

TEST(ResultStoreTest, EscapedStringsRoundTrip) {
  std::string path = TestPath("escape_store.jsonl");
  CellKey key = MakeKey("RN", 0.5, 0);
  key.dataset = "odd \"name\"\twith\\escapes\n";
  {
    ResultStore store(path);
    store.Append(key, 0.5, 1.0);
  }
  ResultStore replayed(path);
  EXPECT_TRUE(replayed.Contains(key));
  EXPECT_EQ(replayed.Cells()[0].key.dataset, key.dataset);
}

TEST(ResultStoreTest, BadHeaderIsFatal) {
  std::string path = TestPath("badheader_store.jsonl");
  WriteFile(path, "{\"format\":\"something-else\",\"version\":1}\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
  WriteFile(path, "not json at all\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStoreTest, UnsupportedVersionIsFatal) {
  std::string path = TestPath("version_store.jsonl");
  WriteFile(path, "{\"format\":\"sparsify-result-store\",\"version\":99}\n");
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

TEST(ResultStoreTest, MidFileCorruptionIsFatal) {
  std::string path = TestPath("corrupt_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
  }
  std::string content = ReadFile(path);
  // Corrupt the FIRST record (a complete, newline-terminated line): that is
  // not a crash artifact, and replay must refuse rather than guess.
  size_t first_record = content.find('\n') + 1;
  content[first_record + 5] = '\x01';
  WriteFile(path, content);
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
}

// The crash-simulation contract: truncating the log at EVERY byte boundary
// of the last record must (a) never throw, (b) recover exactly the
// fully-written records, and (c) leave the store appendable.
TEST(ResultStoreTest, TruncationAtEveryByteOfLastRecordRecovers) {
  std::string path = TestPath("crash_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.5);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.5);
    store.Append(MakeKey("LD", 0.3, 0), 0.3, 3.5);
  }
  std::string content = ReadFile(path);
  ASSERT_EQ(content.back(), '\n');
  // Start of the last record line.
  size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  size_t last_json_end = content.size() - 1;  // position of closing newline

  for (size_t cut = last_start; cut <= content.size(); ++cut) {
    std::string prefix = content.substr(0, cut);
    std::string trial = TestPath("crash_trial.jsonl");
    WriteFile(trial, prefix);

    // (a) replay never throws, (b) exact prefix of records recovered. A
    // cut at or past the final '}' leaves a complete record that merely
    // lost its newline; it must be recovered too. The first store must
    // close before the reopen below: open stores hold an exclusive
    // inter-process lock.
    size_t expected = cut >= last_json_end ? 3u : 2u;
    {
      ResultStore store(trial);
      EXPECT_EQ(store.Size(), expected) << "cut=" << cut;
      EXPECT_TRUE(store.Contains(MakeKey("RN", 0.1, 0))) << "cut=" << cut;
      EXPECT_TRUE(store.Contains(MakeKey("RN", 0.2, 0))) << "cut=" << cut;
      EXPECT_EQ(store.Contains(MakeKey("LD", 0.3, 0)), expected == 3u)
          << "cut=" << cut;
      if (expected == 2u) {
        EXPECT_EQ(store.DroppedTailBytes(), cut - last_start)
            << "cut=" << cut;
      }

      // (c) appending after the crash repairs the file: a fresh replay
      // sees the recovered records plus the new one, and no torn bytes
      // remain.
      store.Append(MakeKey("GS", 0.4, 0), 0.4, 4.5);
    }
    ResultStore reopened(trial);
    EXPECT_EQ(reopened.Size(), expected + 1) << "cut=" << cut;
    EXPECT_EQ(reopened.DroppedTailBytes(), 0u) << "cut=" << cut;
    EXPECT_EQ(reopened.Lookup(MakeKey("GS", 0.4, 0))->value, 4.5)
        << "cut=" << cut;
  }
}

// A crash can also tear the header of a brand-new store; that must behave
// like an empty store and be repaired by the first append.
TEST(ResultStoreTest, TornHeaderOnlyFileRecoversEmpty) {
  std::string path = TestPath("tornheader_store.jsonl");
  WriteFile(path, "{\"format\":\"sparsify-re");  // no newline: torn tail
  {
    ResultStore store(path);
    EXPECT_EQ(store.Size(), 0u);
    EXPECT_GT(store.DroppedTailBytes(), 0u);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ResultStore reopened(path);
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.DroppedTailBytes(), 0u);
}

TEST(ResultStoreTest, OpenInDirCreatesDirectory) {
  std::string dir = TestPath("store_dir/nested");
  {
    ResultStore store(ResultStore::PathInDir(dir));
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ResultStore reopened = ResultStore::OpenInDir(dir);
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.Path(),
            (fs::path(dir) / ResultStore::DefaultFileName()).string());
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ResultStoreTest, SecondWriterCoexistsAndRecordsMerge) {
  // Locking went cooperative: a second open takes its own lease and its
  // own segment file instead of failing with "locked by another
  // process". Each writer sees its peer's records (after RefreshPeers or
  // a fresh replay), and neither disturbs the other.
  std::string path = ResultStore::PathInDir(TestPath("coop_store_dir"));
  ResultStore store(path);
  store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);

  {
    ResultStore second(path);
    EXPECT_NE(second.WriterId(), store.WriterId());
    // The peer's base record replayed into the second writer's view.
    EXPECT_EQ(second.Size(), 1u);
    second.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
    EXPECT_EQ(second.Size(), 2u);

    // The first writer's view is untouched until it polls its peers.
    EXPECT_EQ(store.Size(), 1u);
    store.RefreshPeers();
    EXPECT_EQ(store.Size(), 2u);
    EXPECT_EQ(store.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);

    // Exclusive operations refuse while the other writer is live.
    EXPECT_THROW(store.Compact(), StoreLockHeldError);
  }
  // Second writer closed cleanly: exclusivity is available again and the
  // compacted base folds both writers' records together.
  CompactStats stats = store.Compact();
  EXPECT_EQ(stats.records_after, 2u);
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 2u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 1.0);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);
}

TEST(ResultStoreTest, LeaseReleasesOnCloseAndOnFailedOpen) {
  std::string path = TestPath("relock_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  // Closed cleanly: reopening succeeds.
  { ResultStore reopened(path); EXPECT_EQ(reopened.Size(), 1u); }

  // A constructor that throws during replay (corrupt mid-file) must also
  // release the lock, or the path would wedge for the whole process.
  std::string bad = TestPath("relock_corrupt.jsonl");
  std::string content = ReadFile(path);
  size_t header_end = content.find('\n') + 1;
  WriteFile(bad, content.substr(0, header_end) + "not json\n" +
                     content.substr(header_end));
  EXPECT_THROW(ResultStore{bad}, std::runtime_error);
  WriteFile(bad, content);  // repair the file; the lock must be free
  ResultStore recovered(bad);
  EXPECT_EQ(recovered.Size(), 1u);
}
#endif

TEST(ResultStoreTest, CodeRevBumpNeverReusesOldCells) {
  // PR 3 moved randomized sparsifiers to shared per-(sparsifier, run) seed
  // streams — a numeric change, isolated behind the kResultCodeRev bump:
  // cells computed by the r1 pipeline must be cache misses for this
  // binary, never silently mixed with r2 values.
  ASSERT_STRNE(kResultCodeRev, "r1");
  std::string path = TestPath("code_rev_store.jsonl");
  ResultStore store(path);

  CellKey old_rev = MakeKey("RN", 0.1, 0);
  old_rev.code_rev = "r1";
  store.Append(old_rev, 0.1, 3.25);

  CellKey current = MakeKey("RN", 0.1, 0);
  current.code_rev = kResultCodeRev;
  EXPECT_FALSE(store.Contains(current));
  EXPECT_FALSE(store.Lookup(current).has_value());
  // The old cell itself is still addressable under its own revision.
  EXPECT_TRUE(store.Contains(old_rev));

  // Both revisions coexist after this binary appends its own value.
  store.Append(current, 0.1, 4.5);
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_EQ(store.Lookup(current)->value, 4.5);
  EXPECT_EQ(store.Lookup(old_rev)->value, 3.25);
}

TEST(ResultStoreTest, StaleRevCellsNeverSatisfyCurrentLookups) {
  // PR 4 moved sampled-metric RNG from (master_seed, cell index) to the
  // MetricSeed identity stream (r2 -> r3); the multi-process store PR
  // then dropped grid_index from the key entirely (r3 -> r4). Either
  // way, a store full of old-revision cells must not serve a single one
  // of them to the current pipeline (not even for rng-free metrics —
  // revisions are keyed wholesale, not per metric).
  ASSERT_STREQ(kResultCodeRev, "r4");
  std::string path = TestPath("r2_r3_store.jsonl");
  ResultStore store(path);

  for (double rate : {0.1, 0.5, 0.9}) {
    CellKey r2 = MakeKey("LD", rate, 0);
    r2.code_rev = "r2";
    store.Append(r2, rate, 1.0);
  }
  EXPECT_EQ(store.Size(), 3u);
  for (double rate : {0.1, 0.5, 0.9}) {
    CellKey current = MakeKey("LD", rate, 0);
    current.code_rev = kResultCodeRev;
    EXPECT_FALSE(store.Contains(current));
    EXPECT_FALSE(store.Lookup(current).has_value());
  }
}

TEST(CellKeyTest, CanonicalDistinguishesEveryField) {
  CellKey base = MakeKey("RN", 0.1, 0);
  CellKey other = base;
  EXPECT_EQ(base.Canonical(), other.Canonical());
  other = base;
  other.dataset = "x";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.sparsifier = "LD";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.prune_rate = 0.1 + 1e-15;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.run = 1;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.master_seed = 43;
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.metric = "mcc";
  EXPECT_NE(base.Canonical(), other.Canonical());
  other = base;
  other.code_rev = "r2";
  EXPECT_NE(base.Canonical(), other.Canonical());
}

}  // namespace
}  // namespace sparsify
