// ResultStore: JSONL round-trip, replay semantics, and the crash-recovery
// contract — a writer's segment truncated anywhere inside its last record
// must replay to exactly the fully-written cells, never throw, and leave
// the store appendable.
#include "src/store/result_store.h"

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "gtest/gtest.h"
#include "src/store/record_codec.h"
#include "src/util/crc32c.h"
#include "src/util/errors.h"
#include "src/util/lease.h"
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

// A segment name for a writer that holds no lease in `dir`: its writer is
// gone, so replay settles the file's tail.
std::string GoneWriterSegment(const std::string& dir) {
  fs::create_directories(dir);
  return (fs::path(dir) / "log.w1x00000000000000aa.000000.jsonl").string();
}

ResultStoreOptions ReadOnly() {
  ResultStoreOptions options;
  options.read_only = true;
  return options;
}

TEST(ResultStoreTest, MissingFileIsEmptyStore) {
  ResultStore store(TestPath("missing_store"));
  EXPECT_EQ(store.Size(), 0u);
  EXPECT_FALSE(store.Contains(MakeKey("RN", 0.1, 0)));
  // A read-only open of a missing directory is empty and creates nothing.
  std::string absent = TestPath("absent_store");
  ResultStore snapshot(absent, ReadOnly());
  EXPECT_EQ(snapshot.Size(), 0u);
  EXPECT_FALSE(fs::exists(absent));
}

TEST(ResultStoreTest, AppendLookupRoundTrip) {
  std::string dir = TestPath("roundtrip_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1002, 0.123456789012345678);
    store.Append(MakeKey("RN", 0.1, 1), 0.1002, -3.5e-12);
    store.Append(MakeKey("LD", 0.9, 0), 0.9, 17.0);
    EXPECT_EQ(store.Size(), 3u);
  }
  // A lone writer appends to its own segment; the base is compaction
  // output only.
  EXPECT_EQ(SegmentFiles(dir).size(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "results.jsonl"));
  // Replay from disk: exact double round-trip and key identity.
  ResultStore replayed(dir);
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
  std::string dir = TestPath("nonfinite_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1,
                 std::numeric_limits<double>::infinity());
  }
  ResultStore replayed(dir);
  auto cell = replayed.Lookup(MakeKey("RN", 0.1, 0));
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->value, std::numeric_limits<double>::infinity());
}

TEST(ResultStoreTest, DuplicateKeyLastWriteWins) {
  std::string dir = TestPath("dup_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 2.0);
    EXPECT_EQ(store.Size(), 1u);
    EXPECT_EQ(store.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  }
  ResultStore replayed(dir);
  EXPECT_EQ(replayed.Size(), 1u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 2.0);
  EXPECT_EQ(replayed.Cells().size(), 1u);
}

TEST(ResultStoreTest, CrossSessionLastWriteWins) {
  // Each session is a new writer with a fresh random id, appending to its
  // own segment. Segment names sort in acquisition order, so the latest
  // session's value wins on replay exactly as in one shared log — also
  // past ten sessions, where a textual sort of the numbers would not.
  std::string dir = TestPath("sessions_store");
  const CellKey key = MakeKey("RN", 0.1, 0);
  for (int session = 1; session <= 12; ++session) {
    ResultStore store(dir);
    if (session > 1) {
      EXPECT_EQ(store.Lookup(key)->value, session - 1.0) << session;
    }
    store.Append(key, 0.1, static_cast<double>(session));
  }
  EXPECT_EQ(SegmentFiles(dir).size(), 12u);
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.Lookup(key)->value, 12.0);
  EXPECT_EQ(reopened.Size(), 1u);
}

TEST(ResultStoreTest, ReplayedErrorNeverShadowsASuccess) {
  // Equal keys compute bit-identical values, so a success in any file is
  // THE value; an error record from another writer (or a later session)
  // only documents a failed attempt. A later success beats an error.
  std::string dir = TestPath("shadow_store");
  const CellKey ok = MakeKey("RN", 0.1, 0);
  const CellKey healed = MakeKey("RN", 0.2, 0);
  {
    ResultStore first(dir);
    first.Append(ok, 0.1, 1.5);
    first.AppendError(healed, "transient", "boom", 2);
  }
  {
    ResultStore second(dir);
    second.AppendError(ok, "permanent", "boom", 1);
    second.Append(healed, 0.2, 2.5);
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.ErrorCount(), 0u);
  EXPECT_EQ(reopened.Lookup(ok)->value, 1.5);
  EXPECT_EQ(reopened.Lookup(healed)->value, 2.5);
}

TEST(ResultStoreTest, SiblingDirectoriesNeverSeeEachOther) {
  // A store is its directory: two stores under one parent share neither
  // leases nor segments.
  std::string a = TestPath("parent/a");
  std::string b = TestPath("parent/b");
  {
    ResultStore store_a(a);
    ResultStore store_b(b);
    store_a.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store_b.Append(MakeKey("LD", 0.1, 0), 0.1, 2.0);
    EXPECT_EQ(store_a.RefreshPeers(), 0u);
    EXPECT_EQ(store_a.Size(), 1u);
  }
  ResultStore reopened_a(a);
  ResultStore reopened_b(b);
  EXPECT_EQ(reopened_a.Size(), 1u);
  EXPECT_TRUE(reopened_a.Contains(MakeKey("RN", 0.1, 0)));
  EXPECT_EQ(reopened_b.Size(), 1u);
  EXPECT_TRUE(reopened_b.Contains(MakeKey("LD", 0.1, 0)));
}

TEST(ResultStoreTest, EscapedStringsRoundTrip) {
  std::string dir = TestPath("escape_store");
  CellKey key = MakeKey("RN", 0.5, 0);
  key.dataset = "odd \"name\"\twith\\escapes\n";
  {
    ResultStore store(dir);
    store.Append(key, 0.5, 1.0);
  }
  ResultStore replayed(dir);
  EXPECT_TRUE(replayed.Contains(key));
  EXPECT_EQ(replayed.Cells()[0].key.dataset, key.dataset);
}

TEST(ResultStoreTest, BadHeaderIsFatal) {
  std::string dir = TestPath("badheader_store");
  std::string seg = GoneWriterSegment(dir);
  WriteFile(seg, "{\"format\":\"something-else\",\"version\":2}\n");
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
  WriteFile(seg, "not json at all\n");
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
  // The compaction output is held to the same header rule.
  fs::remove(seg);
  WriteFile((fs::path(dir) / "results.jsonl").string(), "not json at all\n");
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
}

TEST(ResultStoreTest, UnsupportedVersionIsFatal) {
  std::string dir = TestPath("version_store");
  WriteFile(GoneWriterSegment(dir),
            "{\"format\":\"sparsify-result-store\",\"version\":99}\n");
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
}

TEST(ResultStoreTest, MidFileCorruptionIsFatal) {
  std::string dir = TestPath("corrupt_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
  }
  std::string seg = OnlySegment(dir);
  std::string content = ReadFile(seg);
  // Corrupt the FIRST record (a complete, newline-terminated line): that is
  // not a crash artifact, and replay must refuse rather than guess.
  size_t first_record = content.find('\n') + 1;
  content[first_record + 5] = '\x01';
  WriteFile(seg, content);
  EXPECT_THROW(ResultStore{dir}, std::runtime_error);
  EXPECT_THROW(ResultStore(dir, ReadOnly()), std::runtime_error);
}

// The crash-simulation contract: truncating the writer's segment at EVERY
// byte boundary of its last record must (a) never throw, (b) recover
// exactly the fully-written records, and (c) leave the store appendable.
TEST(ResultStoreTest, TruncationAtEveryByteOfLastRecordRecovers) {
  std::string dir = TestPath("crash_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.5);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.5);
    store.Append(MakeKey("LD", 0.3, 0), 0.3, 3.5);
  }
  const std::string seg = OnlySegment(dir);
  std::string content = ReadFile(seg);
  ASSERT_EQ(content.back(), '\n');
  // Start of the last record line.
  size_t last_start = content.rfind('\n', content.size() - 2) + 1;
  size_t last_json_end = content.size() - 1;  // position of closing newline

  for (size_t cut = last_start; cut <= content.size(); ++cut) {
    // The segment as the crashed writer left it, in a fresh store.
    std::string trial = TestPath("crash_trial_" + std::to_string(cut));
    fs::create_directories(trial);
    WriteFile((fs::path(trial) / fs::path(seg).filename()).string(),
              content.substr(0, cut));

    // (a) replay never throws, (b) exact prefix of records recovered. A
    // cut at or past the final '}' leaves a complete record that merely
    // lost its newline; it must be recovered too.
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

      // (c) the open settled the gone writer's tail, so appending goes on
      // cleanly: a fresh replay sees the recovered records plus the new
      // one, and no torn bytes remain.
      store.Append(MakeKey("GS", 0.4, 0), 0.4, 4.5);
    }
    ResultStore reopened(trial);
    EXPECT_EQ(reopened.Size(), expected + 1) << "cut=" << cut;
    EXPECT_EQ(reopened.DroppedTailBytes(), 0u) << "cut=" << cut;
    EXPECT_EQ(reopened.Lookup(MakeKey("GS", 0.4, 0))->value, 4.5)
        << "cut=" << cut;
  }
}

// A crash can also tear the header of a brand-new segment; that must
// behave like an empty store, and the leftover is removed.
TEST(ResultStoreTest, TornHeaderOnlyFileRecoversEmpty) {
  std::string dir = TestPath("tornheader_store");
  std::string seg = GoneWriterSegment(dir);
  WriteFile(seg, "{\"format\":\"sparsify-re");  // no newline: torn tail
  {
    ResultStore store(dir);
    EXPECT_EQ(store.Size(), 0u);
    EXPECT_GT(store.DroppedTailBytes(), 0u);
    EXPECT_FALSE(fs::exists(seg));
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.DroppedTailBytes(), 0u);
}

TEST(ResultStoreTest, ReadOnlyOpenCountsATornTailButNeverRepairs) {
  std::string dir = TestPath("readonly_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
  }
  const std::string seg = OnlySegment(dir);
  const std::string whole = ReadFile(seg);
  // Header plus the first record survive; the second is torn mid-line.
  const size_t kept = whole.find('\n', whole.find('\n') + 1) + 1;
  const std::string torn = whole.substr(0, whole.size() - 9);
  WriteFile(seg, torn);
  {
    ResultStore snapshot(dir, ReadOnly());
    EXPECT_EQ(snapshot.Size(), 1u);
    EXPECT_EQ(snapshot.DroppedTailBytes(), torn.size() - kept);
  }
  EXPECT_EQ(ReadFile(seg), torn);
  {
    ResultStore writer(dir);
    EXPECT_EQ(writer.DroppedTailBytes(), torn.size() - kept);
  }
  EXPECT_EQ(ReadFile(seg), whole.substr(0, kept));
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ResultStoreTest, LiveWritersTailStaysPendingUntilTerminated) {
  // A writer that holds a live lease may be mid-append: its unterminated
  // tail is neither absorbed, nor counted, nor cut — only its peers'
  // refresh picks the line up once the newline lands.
  std::string source = TestPath("live_source");
  {
    ResultStore store(source);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
    store.Append(MakeKey("RN", 0.2, 0), 0.2, 2.0);
  }
  const std::string whole = ReadFile(OnlySegment(source));
  const std::string torn = whole.substr(0, whole.size() - 9);

  std::string dir = TestPath("live_store");
  fs::create_directories(dir);
  lease::LeaseInfo live;
  live.writer = "w1x00000000000000bb";
  live.pid = static_cast<long>(::getpid());
  lease::WriteLease(dir, live);
  const std::string seg =
      (fs::path(dir) / ("log." + live.writer + ".000000.jsonl")).string();
  WriteFile(seg, torn);

  ResultStore store(dir);
  EXPECT_EQ(store.Size(), 1u);
  EXPECT_EQ(store.DroppedTailBytes(), 0u);
  EXPECT_EQ(ReadFile(seg), torn);
  WriteFile(seg, whole);  // the peer finishes its append
  EXPECT_EQ(store.RefreshPeers(), 1u);
  EXPECT_EQ(store.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);
}
#endif

TEST(ResultStoreTest, ConstructorCreatesDirectory) {
  std::string dir = TestPath("store_dir/nested");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  EXPECT_TRUE(fs::is_directory(dir));
  ResultStore reopened(dir);
  EXPECT_EQ(reopened.Size(), 1u);
  EXPECT_EQ(reopened.Dir(), dir);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ResultStoreTest, SecondWriterCoexistsAndRecordsMerge) {
  // Locking is cooperative: a second open takes its own lease and its
  // own segment file instead of failing with "locked by another
  // process". Each writer sees its peer's records (after RefreshPeers or
  // a fresh replay), and neither disturbs the other.
  std::string dir = TestPath("coop_store_dir");
  ResultStore store(dir);
  store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);

  {
    ResultStore second(dir);
    EXPECT_NE(second.WriterId(), store.WriterId());
    // The first writer's record replayed into the second writer's view.
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
    second.Append(MakeKey("RN", 0.3, 0), 0.3, 3.0);
  }
  // Second writer closed cleanly: exclusivity is available again, and the
  // compaction output folds both writers' records together — including
  // the one this writer never polled for.
  CompactStats stats = store.Compact();
  EXPECT_EQ(stats.records_after, 3u);
  EXPECT_TRUE(SegmentFiles(dir).empty());
  ResultStore replayed(dir);
  EXPECT_EQ(replayed.Size(), 3u);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.1, 0))->value, 1.0);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.2, 0))->value, 2.0);
  EXPECT_EQ(replayed.Lookup(MakeKey("RN", 0.3, 0))->value, 3.0);
}

TEST(ResultStoreTest, LeaseReleasesOnCloseAndOnFailedOpen) {
  std::string dir = TestPath("relock_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  // Closed cleanly: reopening succeeds.
  { ResultStore reopened(dir); EXPECT_EQ(reopened.Size(), 1u); }

  // A constructor that throws during replay (corrupt mid-file) must also
  // release its lease, or the store would see a ghost writer.
  std::string bad = TestPath("relock_corrupt");
  fs::create_directories(bad);
  const std::string seg = OnlySegment(dir);
  const std::string bad_seg =
      (fs::path(bad) / fs::path(seg).filename()).string();
  std::string content = ReadFile(seg);
  size_t header_end = content.find('\n') + 1;
  WriteFile(bad_seg, content.substr(0, header_end) + "not json\n" +
                         content.substr(header_end));
  EXPECT_THROW(ResultStore{bad}, std::runtime_error);
  EXPECT_TRUE(lease::ListLeases(bad).empty());
  WriteFile(bad_seg, content);  // repair the file
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
  ResultStore store(TestPath("code_rev_store"));

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
  // then dropped grid_index from the key entirely (r3 -> r4), and the
  // two-phase metrics moved their sampled references onto ReferenceSeed
  // (r4 -> r5). Either way, a store full of old-revision cells must not
  // serve a single one of them to the current pipeline (not even for
  // rng-free metrics — revisions are keyed wholesale, not per metric).
  ASSERT_STREQ(kResultCodeRev, "r5");
  ResultStore store(TestPath("r2_r3_store"));

  for (const char* old_rev : {"r2", "r4"}) {
    for (double rate : {0.1, 0.5, 0.9}) {
      CellKey old = MakeKey("LD", rate, 0);
      old.code_rev = old_rev;
      store.Append(old, rate, 1.0);
    }
  }
  EXPECT_EQ(store.Size(), 6u);
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

// The packed index must tell keys apart exactly when their Canonical()
// strings differ: every field counts, -0 is not 0, and NaN rates of one
// sign are one key (%.17g prints them alike).
TEST(ResultStoreTest, IndexKeysMatchCanonicalIdentity) {
  std::string dir = TestPath("index_identity_store");
  const CellKey base = MakeKey("RN", 0.0, 0);
  std::vector<CellKey> keys(9, base);
  keys[1].dataset = "x";
  keys[2].sparsifier = "LD";
  keys[3].prune_rate = -0.0;
  keys[4].run = 1;
  keys[5].master_seed = 43;
  keys[6].metric = "mcc";
  keys[7].code_rev = "r2";
  keys[8].prune_rate = std::numeric_limits<double>::quiet_NaN();
  {
    ResultStore store(dir);
    for (size_t i = 0; i < keys.size(); ++i) {
      store.Append(keys[i], 0.5, static_cast<double>(i));
    }
  }
  ResultStore replayed(dir, ReadOnly());
  ASSERT_EQ(replayed.Size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(replayed.Lookup(keys[i])->value, static_cast<double>(i)) << i;
  }
  CellKey other_nan = base;
  uint64_t payload_bits = 0x7ff0000000000123ull;  // a NaN with a payload
  std::memcpy(&other_nan.prune_rate, &payload_bits, sizeof(double));
  ASSERT_TRUE(std::isnan(other_nan.prune_rate));
  EXPECT_EQ(other_nan.Canonical(), keys[8].Canonical());
  EXPECT_EQ(replayed.Lookup(other_nan)->value, 8.0);
  CellKey unknown = base;
  unknown.metric = "never-stored";
  EXPECT_FALSE(replayed.Contains(unknown));
}

// ---------------------------------------------------------------------------
// Differential oracle for the fixed-schema decoder: over a corpus of every
// record shape the store writes plus hand-made and damaged lines, the fast
// path and the generic parser must agree on the kind, every field (doubles
// bit for bit) and the verdict.
// ---------------------------------------------------------------------------

// Splices a checksum into a record body the way the writer does.
std::string Checksummed(std::string body) {
  char hex[9];
  std::snprintf(hex, sizeof(hex), "%08" PRIx32, Crc32c(body));
  body.pop_back();
  return body + ",\"crc32c\":\"" + hex + "\"}";
}

std::string Line(const CellKey& key, const StoredOutcome& outcome) {
  std::string line =
      store_codec::SerializeRecord(store_codec::CellKeyView(key), outcome);
  line.pop_back();  // the newline
  return line;
}

StoredOutcome Result(double achieved, double value) {
  StoredOutcome outcome;
  outcome.achieved_prune_rate = achieved;
  outcome.value = value;
  return outcome;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// True when the decode's key views point into `line`: the fast path took it.
bool DecodedInPlace(const store_codec::DecodedLine& d, std::string_view line) {
  const char* p = d.key.dataset.data();
  return d.kind == store_codec::LineKind::kCell &&
         std::less_equal<const char*>()(line.data(), p) &&
         std::less<const char*>()(p, line.data() + line.size());
}

void ExpectSameDecode(const std::string& line, size_t* fast_taken) {
  store_codec::DecodedLine fast;
  store_codec::DecodedLine generic;
  store_codec::DecodeRecordLine(line, /*fast=*/true, &fast);
  store_codec::DecodeRecordLine(line, /*fast=*/false, &generic);
  if (DecodedInPlace(fast, line)) ++*fast_taken;
  ASSERT_EQ(fast.kind, generic.kind) << line;
  EXPECT_STREQ(fast.bad, generic.bad) << line;  // both null when valid
  if (fast.kind == store_codec::LineKind::kClaim) {
    EXPECT_EQ(fast.claim.writer, generic.claim.writer) << line;
    EXPECT_EQ(fast.claim.scope, generic.claim.scope) << line;
    EXPECT_EQ(fast.claim.chunk, generic.claim.chunk) << line;
  }
  if (fast.kind != store_codec::LineKind::kCell) return;
  EXPECT_EQ(fast.key.dataset, generic.key.dataset) << line;
  EXPECT_EQ(fast.key.sparsifier, generic.key.sparsifier) << line;
  EXPECT_TRUE(SameBits(fast.key.prune_rate, generic.key.prune_rate)) << line;
  EXPECT_EQ(fast.key.run, generic.key.run) << line;
  EXPECT_EQ(fast.key.master_seed, generic.key.master_seed) << line;
  EXPECT_EQ(fast.key.metric, generic.key.metric) << line;
  EXPECT_EQ(fast.key.code_rev, generic.key.code_rev) << line;
  const StoredOutcome& a = fast.outcome;
  const StoredOutcome& b = generic.outcome;
  EXPECT_TRUE(SameBits(a.achieved_prune_rate, b.achieved_prune_rate)) << line;
  EXPECT_TRUE(SameBits(a.value, b.value)) << line;
  EXPECT_EQ(a.is_error, b.is_error) << line;
  EXPECT_EQ(a.error_class, b.error_class) << line;
  EXPECT_EQ(a.error_message, b.error_message) << line;
  EXPECT_EQ(a.attempts, b.attempts) << line;
}

TEST(RecordCodecTest, FastDecoderAgreesWithGenericParser) {
  using limits = std::numeric_limits<double>;
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           1.0 / 3.0,
                           0.123456789012345678,
                           -3.5e-12,
                           limits::max(),
                           limits::min(),
                           limits::denorm_min(),
                           2.2250738585072009e-308,  // largest subnormal
                           -limits::denorm_min(),
                           limits::infinity(),
                           -limits::infinity(),
                           limits::quiet_NaN(),
                           -limits::quiet_NaN()};
  std::vector<std::string> written;  // lines exactly as the writer emits
  for (double v : values) {
    CellKey key = MakeKey("RN", v, 3);
    written.push_back(Line(key, Result(v, v)));
    key.run = -7;
    key.master_seed = std::numeric_limits<uint64_t>::max();
    written.push_back(Line(key, Result(0.5, v)));
  }
  CellKey extreme = MakeKey("ER-uw", 0.9, std::numeric_limits<int>::max());
  written.push_back(Line(extreme, Result(0.9, 2.0)));
  extreme.run = std::numeric_limits<int>::min();
  written.push_back(Line(extreme, Result(0.9, 2.0)));
  const size_t fast_expected = written.size();

  CellKey escaped = MakeKey("RN", 0.5, 0);
  escaped.dataset = "odd \"name\"\twith\\escapes\n\x01";
  written.push_back(Line(escaped, Result(0.5, 1.0)));
  StoredOutcome error;
  error.is_error = true;
  error.error_class = "transient";
  error.error_message = "injected \"quote\"";
  error.attempts = 3;
  written.push_back(Line(MakeKey("RN", 0.2, 0), error));
  std::string claim = store_codec::SerializeClaim({"w1x00aa", "0123abcd", 7});
  claim.pop_back();
  written.push_back(claim);

  std::vector<std::string> corpus = written;
  const std::string body =
      "{\"dataset\":\"d\",\"sparsifier\":\"RN\",\"prune_rate\":PR,"
      "\"run\":RUN,\"master_seed\":SEED,\"metric\":\"degree\","
      "\"code_rev\":\"r5\",\"achieved_prune_rate\":0.5,\"value\":VAL}";
  auto variant = [&](const char* pr, const char* run, const char* seed,
                     const char* val) {
    std::string b = body;
    b.replace(b.find("PR"), 2, pr);
    b.replace(b.find("RUN"), 3, run);
    b.replace(b.find("SEED"), 4, seed);
    b.replace(b.find("VAL"), 3, val);
    return Checksummed(b);
  };
  // Spellings the writer never emits but strtod/strtol/strtoull read,
  // each with a valid checksum, so only the number syntax is on trial.
  for (const char* v :
       {"+1", "0x1p-3", "1e999", "-1e999", "1e-400", "NaN", "nan(123)",
        "INF", "Infinity", "-nan", ".5", "5.", "1e+5", "1E5", "007", "-",
        "1e", "1.2.3", "--1", "1e5e"}) {
    corpus.push_back(variant(v, "1", "2", "0.25"));
    corpus.push_back(variant("0.5", "1", "2", v));
  }
  for (const char* run : {"+1", "-0", "4294967297", "2147483648", "1.5", "0x10",
                          "-2147483649", "007"}) {
    corpus.push_back(variant("0.5", run, "2", "0.25"));
  }
  for (const char* seed : {"-1", "+2", "18446744073709551616", "1e3", "0"}) {
    corpus.push_back(variant("0.5", "1", seed, "0.25"));
  }
  // A pre-r4 record with its grid_index, spaces after separators, keys out
  // of order, an uppercase checksum, a trailing space.
  corpus.push_back(Checksummed(
      "{\"dataset\":\"d\",\"sparsifier\":\"RN\",\"prune_rate\":0.5,"
      "\"run\":1,\"master_seed\":2,\"grid_index\":3,\"metric\":\"degree\","
      "\"code_rev\":\"r3\",\"achieved_prune_rate\":0.5,\"value\":0.25}"));
  corpus.push_back(Checksummed(
      "{\"dataset\": \"d\", \"sparsifier\":\"RN\",\"prune_rate\":0.5,"
      "\"run\":1,\"master_seed\":2,\"metric\":\"degree\","
      "\"code_rev\":\"r5\",\"achieved_prune_rate\":0.5,\"value\":0.25}"));
  corpus.push_back(Checksummed(
      "{\"sparsifier\":\"RN\",\"dataset\":\"d\",\"prune_rate\":0.5,"
      "\"run\":1,\"master_seed\":2,\"metric\":\"degree\","
      "\"code_rev\":\"r5\",\"achieved_prune_rate\":0.5,\"value\":0.25}"));
  std::string upper = written[0];
  for (size_t i = upper.size() - 10; i < upper.size() - 2; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  corpus.push_back(upper);
  corpus.push_back(written[0] + " ");
  // Every single-byte substitution and every truncation of one record.
  const std::string& victim = written[2];
  for (size_t i = 0; i < victim.size(); ++i) {
    for (int b = 0; b < 256; ++b) {
      if (static_cast<char>(b) == victim[i]) continue;
      std::string flipped = victim;
      flipped[i] = static_cast<char>(b);
      corpus.push_back(std::move(flipped));
    }
  }
  for (size_t len = 0; len < victim.size(); ++len) {
    corpus.push_back(victim.substr(0, len));
  }

  size_t fast_taken = 0;
  for (const std::string& line : corpus) {
    ExpectSameDecode(line, &fast_taken);
    if (HasFatalFailure()) return;
  }
  // The writer's own result records all take the fast path; the escaped
  // name, the error and the claim do not.
  size_t written_fast = 0;
  for (const std::string& line : written) {
    store_codec::DecodedLine d;
    store_codec::DecodeRecordLine(line, /*fast=*/true, &d);
    EXPECT_EQ(d.bad, nullptr) << line;
    if (DecodedInPlace(d, line)) ++written_fast;
  }
  EXPECT_EQ(written_fast, fast_expected);
  EXPECT_GT(fast_taken, fast_expected);  // some damaged lines too
}

}  // namespace
}  // namespace sparsify
