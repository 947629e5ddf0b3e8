// Corruption matrix for the persistent surfaces: bit rot inside a result
// store must be DETECTED (checksum mismatch with a line number), a torn
// tail must SELF-HEAL (crash semantics, not corruption), a version-1 log
// without checksums must keep replaying, compaction must shrink the log
// without changing its replayed contents, and a bit-flipped graph cache
// must be rejected by its content hash.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/graph/generators.h"
#include "src/graph/ingest.h"
#include "src/store/result_store.h"
#include "src/util/errors.h"
#include "src/util/rng.h"
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
  key.dataset = "corrupt-ds@0.5";
  key.sparsifier = sparsifier;
  key.prune_rate = rate;
  key.run = run;
  key.master_seed = 7;
  key.metric = "degree";
  key.code_rev = "test-rev";
  return key;
}

std::string FreshStore(const std::string& name, int records) {
  std::string path = TestPath(name);
  ResultStore store(path);
  for (int i = 0; i < records; ++i) {
    store.Append(MakeKey("RN", 0.1 * (i + 1), i), 0.1, 1.5 + i);
  }
  return path;
}

// Replayed logical contents, serialized for comparison across files.
std::string Fingerprint(const ResultStore& store) {
  std::ostringstream out;
  for (const StoredCell& cell : store.Cells()) {
    out << cell.key.Canonical() << "|" << cell.is_error << "|"
        << cell.achieved_prune_rate << "|" << cell.value << "|"
        << cell.error_class << "|" << cell.attempts << "\n";
  }
  return out.str();
}

TEST(CorruptionMatrixTest, BitFlipInRecordIsDetectedWithLineNumber) {
  std::string path = FreshStore("bitflip_store.jsonl", 4);
  std::string bytes = ReadFile(path);
  // Flip one digit inside the SECOND record (file line 3: header + 2).
  size_t line_start = 0;
  for (int i = 0; i < 2; ++i) line_start = bytes.find('\n', line_start) + 1;
  size_t pos = bytes.find("\"value\":", line_start) + 8;
  ASSERT_LT(pos, bytes.find('\n', line_start));
  bytes[pos] = bytes[pos] == '2' ? '3' : '2';
  WriteFile(path, bytes);
  try {
    ResultStore store(path);
    FAIL() << "bit-flipped record replayed without error";
  } catch (const StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CorruptionMatrixTest, GarbledCrcFieldOnTerminatedLineIsDetected) {
  std::string path = FreshStore("badcrc_store.jsonl", 2);
  std::string bytes = ReadFile(path);
  size_t pos = bytes.find("\"crc32c\":\"");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 10] = 'Z';  // not lowercase hex: malformed checksum
  WriteFile(path, bytes);
  EXPECT_THROW(ResultStore store(path), StoreCorruptError);
}

TEST(CorruptionMatrixTest, TornTailSelfHealsEvenInsideTheCrcField) {
  std::string path = FreshStore("torn_store.jsonl", 3);
  std::string whole = ReadFile(path);
  // Tear the file INSIDE the last record's checksum field: the torn line
  // fails its CRC shape check, but as the unterminated tail it must be
  // dropped as a crashed append, not reported as corruption.
  size_t last_crc = whole.rfind("\"crc32c\":\"");
  ASSERT_NE(last_crc, std::string::npos);
  WriteFile(path, whole.substr(0, last_crc + 14));
  {
    ResultStore healed(path);
    EXPECT_EQ(healed.Size(), 2u);
    EXPECT_GT(healed.DroppedTailBytes(), 0u);
    // Still appendable: the store cuts the tail and continues.
    healed.Append(MakeKey("RN", 0.3, 2), 0.1, 3.5);
  }
  ResultStore replayed(path);
  EXPECT_EQ(replayed.Size(), 3u);
  EXPECT_EQ(replayed.DroppedTailBytes(), 0u);
}

TEST(CorruptionMatrixTest, LegacyVersion1StoreWithoutChecksumsReplays) {
  std::string path = FreshStore("legacy_store.jsonl", 3);
  std::string want;
  {
    ResultStore modern(path);
    want = Fingerprint(modern);
  }
  // Rewrite as a version-1 log: header says 1, records carry no crc field.
  std::string bytes = ReadFile(path);
  size_t vpos = bytes.find("\"version\":2");
  ASSERT_NE(vpos, std::string::npos);
  bytes.replace(vpos, 11, "\"version\":1");
  for (size_t p = bytes.find(",\"crc32c\":\""); p != std::string::npos;
       p = bytes.find(",\"crc32c\":\"", p)) {
    bytes.replace(p, bytes.find('}', p) + 1 - p, "}");
  }
  WriteFile(path, bytes);
  {
    ResultStore legacy(path);
    EXPECT_EQ(Fingerprint(legacy), want);

    // Compacting a legacy log upgrades it in place: version-2 header,
    // every record checksummed, contents unchanged.
    CompactStats stats = legacy.Compact();
    EXPECT_EQ(stats.records_after, 3u);
  }
  std::string upgraded = ReadFile(path);
  EXPECT_NE(upgraded.find("\"version\":2"), std::string::npos);
  EXPECT_NE(upgraded.find("\"crc32c\":\""), std::string::npos);
  ResultStore reread(path);
  EXPECT_EQ(Fingerprint(reread), want);
}

TEST(CorruptionMatrixTest, FutureVersionIsRejected) {
  std::string path = FreshStore("future_store.jsonl", 1);
  std::string bytes = ReadFile(path);
  size_t vpos = bytes.find("\"version\":2");
  ASSERT_NE(vpos, std::string::npos);
  bytes.replace(vpos, 11, "\"version\":9");
  WriteFile(path, bytes);
  EXPECT_THROW(ResultStore store(path), StoreCorruptError);
}

TEST(CorruptionMatrixTest, ErrorRecordsRoundTripAndReadBackAsErrors) {
  std::string path = TestPath("error_store.jsonl");
  {
    ResultStore store(path);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 2.5);
    store.AppendError(MakeKey("RN", 0.2, 0), "transient", "injected", 3);
    EXPECT_EQ(store.Size(), 2u);
    EXPECT_EQ(store.ErrorCount(), 1u);
  }
  {
    ResultStore replayed(path);
    EXPECT_EQ(replayed.ErrorCount(), 1u);
    auto cell = replayed.Lookup(MakeKey("RN", 0.2, 0));
    ASSERT_TRUE(cell.has_value());
    EXPECT_TRUE(cell->is_error);
    EXPECT_EQ(cell->error_class, "transient");
    EXPECT_EQ(cell->error_message, "injected");
    EXPECT_EQ(cell->attempts, 3);
    // A later success overwrites the error (last write wins on replay).
    replayed.Append(MakeKey("RN", 0.2, 0), 0.2, 4.5);
    EXPECT_EQ(replayed.ErrorCount(), 0u);
  }
  ResultStore healed(path);
  EXPECT_EQ(healed.ErrorCount(), 0u);
  auto fixed = healed.Lookup(MakeKey("RN", 0.2, 0));
  ASSERT_TRUE(fixed.has_value());
  EXPECT_FALSE(fixed->is_error);
  EXPECT_EQ(fixed->value, 4.5);
}

TEST(CorruptionMatrixTest, CompactDropsSupersededRecordsAndPreservesReplay) {
  std::string path = TestPath("compact_store.jsonl");
  {
    ResultStore store(path);
    for (int pass = 0; pass < 5; ++pass) {
      for (int run = 0; run < 4; ++run) {
        store.Append(MakeKey("RN", 0.5, run), 0.5, 1.0 + pass);
      }
    }
    store.AppendError(MakeKey("LD", 0.5, 0), "permanent", "boom", 1);
  }
  const auto bytes_before = fs::file_size(path);
  std::string want;
  {
    ResultStore store(path);
    want = Fingerprint(store);
    CompactStats stats = store.Compact();
    EXPECT_EQ(stats.records_before, 21u);
    EXPECT_EQ(stats.records_after, 5u);  // 4 live cells + 1 error record
    EXPECT_LT(stats.bytes_after, stats.bytes_before);
    EXPECT_EQ(stats.bytes_before, bytes_before);
    EXPECT_LT(fs::file_size(path), bytes_before);
    // In-memory view survives the rewrite unchanged.
    EXPECT_EQ(Fingerprint(store), want);
  }
  {
    ResultStore replayed(path);
    EXPECT_EQ(Fingerprint(replayed), want);
    replayed.Append(MakeKey("RN", 0.9, 0), 0.9, 9.0);
  }
  ResultStore again(path);
  EXPECT_EQ(again.Size(), 6u);
}

TEST(CorruptionMatrixTest, StaleCompactTmpFilesAreSweptOnOpen) {
  std::string path = TestPath("tmpsweep_store.jsonl");
  { ResultStore store(path); }
  std::string orphan = path + ".compact.tmp.12345";
  WriteFile(orphan, "half-written compaction\n");
  ResultStore store(path);
  EXPECT_FALSE(fs::exists(orphan));
}

TEST(CorruptionMatrixTest, InvalidFsyncPolicyEnvAborts) {
  ASSERT_EQ(::setenv("SPARSIFY_STORE_FSYNC", "sometimes", 1), 0);
  std::string path = TestPath("fsync_env_store.jsonl");
  EXPECT_THROW(ResultStore store(path), std::invalid_argument);
  ASSERT_EQ(::setenv("SPARSIFY_STORE_FSYNC", "always", 1), 0);
  {
    ResultStore store(path);
    EXPECT_EQ(store.fsync_policy(), FsyncPolicy::kAlways);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 1.0);
  }
  ASSERT_EQ(::unsetenv("SPARSIFY_STORE_FSYNC"), 0);
}

TEST(CorruptionMatrixTest, BitFlippedGraphCacheIsRejectedByContentHash) {
  Rng rng(123);
  Graph g = ErdosRenyi(200, 800, /*directed=*/false, rng);
  std::string path = TestPath("flip_cache.spgc");
  WriteGraphCache(g, path);
  Graph back = ReadGraphCache(path);
  EXPECT_EQ(GraphContentHash(back), GraphContentHash(g));
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] ^= 0x10;  // flip one payload bit
  WriteFile(path, bytes);
  EXPECT_THROW(ReadGraphCache(path), std::runtime_error);
}

}  // namespace
}  // namespace sparsify
