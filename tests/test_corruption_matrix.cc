// Corruption matrix for the persistent surfaces: bit rot inside a result
// store's segment must be DETECTED (checksum mismatch with a line number),
// a record without its checksum is corruption too, a torn tail must
// SELF-HEAL (crash semantics, not corruption), any header version but the
// current one is refused, compaction must shrink the log without changing
// its replayed contents, and a bit-flipped graph cache must be rejected by
// its content hash.
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

// A store directory holding `records` cells, written by one writer
// session into its one segment.
std::string FreshStore(const std::string& name, int records) {
  std::string dir = TestPath(name);
  ResultStore store(dir);
  for (int i = 0; i < records; ++i) {
    store.Append(MakeKey("RN", 0.1 * (i + 1), i), 0.1, 1.5 + i);
  }
  return dir;
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
  std::string dir = FreshStore("bitflip_store", 4);
  std::string seg = OnlySegment(dir);
  std::string bytes = ReadFile(seg);
  // Flip one digit inside the SECOND record (file line 3: header + 2).
  size_t line_start = 0;
  for (int i = 0; i < 2; ++i) line_start = bytes.find('\n', line_start) + 1;
  size_t pos = bytes.find("\"value\":", line_start) + 8;
  ASSERT_LT(pos, bytes.find('\n', line_start));
  bytes[pos] = bytes[pos] == '2' ? '3' : '2';
  WriteFile(seg, bytes);
  try {
    ResultStore store(dir);
    FAIL() << "bit-flipped record replayed without error";
  } catch (const StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CorruptionMatrixTest, RecordWithoutChecksumIsCorruption) {
  // Stripping the checksum must not turn a record into an unchecked one:
  // an edited value without its crc32c field is still detected.
  std::string dir = FreshStore("nocrc_store", 2);
  std::string seg = OnlySegment(dir);
  std::string bytes = ReadFile(seg);
  const size_t second = bytes.find('\n', bytes.find('\n') + 1) + 1;
  const size_t crc = bytes.find(",\"crc32c\":\"", second);
  ASSERT_NE(crc, std::string::npos);
  bytes.replace(crc, bytes.find('}', crc) + 1 - crc, "}");
  const size_t value = bytes.find("\"value\":2.5", second);
  ASSERT_NE(value, std::string::npos);
  bytes.replace(value, 11, "\"value\":9.75");
  WriteFile(seg, bytes);
  try {
    ResultStore store(dir);
    FAIL() << "record without checksum replayed as "
           << store.Lookup(MakeKey("RN", 0.2, 1))->value;
  } catch (const StoreCorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CorruptionMatrixTest, GarbledCrcFieldOnTerminatedLineIsDetected) {
  std::string dir = FreshStore("badcrc_store", 2);
  std::string seg = OnlySegment(dir);
  std::string bytes = ReadFile(seg);
  size_t pos = bytes.find("\"crc32c\":\"");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 10] = 'Z';  // not lowercase hex: malformed checksum
  WriteFile(seg, bytes);
  EXPECT_THROW(ResultStore store(dir), StoreCorruptError);
}

TEST(CorruptionMatrixTest, TornTailSelfHealsEvenInsideTheCrcField) {
  std::string dir = FreshStore("torn_store", 3);
  std::string seg = OnlySegment(dir);
  std::string whole = ReadFile(seg);
  // Tear the segment INSIDE the last record's checksum field: the torn
  // line fails its CRC shape check, but as the unterminated tail of a gone
  // writer it must be cut as a crashed append, not reported as corruption.
  size_t last_crc = whole.rfind("\"crc32c\":\"");
  ASSERT_NE(last_crc, std::string::npos);
  WriteFile(seg, whole.substr(0, last_crc + 14));
  {
    ResultStore healed(dir);
    EXPECT_EQ(healed.Size(), 2u);
    EXPECT_GT(healed.DroppedTailBytes(), 0u);
    // Still appendable: the open cut the tail, the store continues.
    healed.Append(MakeKey("RN", 0.3, 2), 0.1, 3.5);
  }
  ResultStore replayed(dir);
  EXPECT_EQ(replayed.Size(), 3u);
  EXPECT_EQ(replayed.DroppedTailBytes(), 0u);
}

TEST(CorruptionMatrixTest, FutureVersionIsRejected) {
  // Version 2 is the only format: a newer header is refused, and so is a
  // version-1 log (no record checksums), which no r4 lookup could use.
  for (const char* version : {"\"version\":9", "\"version\":1"}) {
    std::string dir = FreshStore(std::string("version_store_") + version[10],
                                 1);
    std::string seg = OnlySegment(dir);
    std::string bytes = ReadFile(seg);
    size_t vpos = bytes.find("\"version\":2");
    ASSERT_NE(vpos, std::string::npos);
    bytes.replace(vpos, 11, version);
    WriteFile(seg, bytes);
    EXPECT_THROW(ResultStore store(dir), StoreCorruptError) << version;
  }
}

TEST(CorruptionMatrixTest, ErrorRecordsRoundTripAndReadBackAsErrors) {
  std::string dir = TestPath("error_store");
  {
    ResultStore store(dir);
    store.Append(MakeKey("RN", 0.1, 0), 0.1, 2.5);
    store.AppendError(MakeKey("RN", 0.2, 0), "transient", "injected", 3);
    EXPECT_EQ(store.Size(), 2u);
    EXPECT_EQ(store.ErrorCount(), 1u);
  }
  {
    ResultStore replayed(dir);
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
  ResultStore healed(dir);
  EXPECT_EQ(healed.ErrorCount(), 0u);
  auto fixed = healed.Lookup(MakeKey("RN", 0.2, 0));
  ASSERT_TRUE(fixed.has_value());
  EXPECT_FALSE(fixed->is_error);
  EXPECT_EQ(fixed->value, 4.5);
}

TEST(CorruptionMatrixTest, CompactDropsSupersededRecordsAndPreservesReplay) {
  std::string dir = TestPath("compact_store");
  {
    ResultStore store(dir);
    for (int pass = 0; pass < 5; ++pass) {
      for (int run = 0; run < 4; ++run) {
        store.Append(MakeKey("RN", 0.5, run), 0.5, 1.0 + pass);
      }
    }
    store.AppendError(MakeKey("LD", 0.5, 0), "permanent", "boom", 1);
  }
  const auto bytes_before = StoreBytes(dir);
  std::string want;
  {
    ResultStore store(dir);
    want = Fingerprint(store);
    CompactStats stats = store.Compact();
    EXPECT_EQ(stats.records_before, 21u);
    EXPECT_EQ(stats.records_after, 5u);  // 4 live cells + 1 error record
    EXPECT_LT(stats.bytes_after, stats.bytes_before);
    EXPECT_EQ(stats.bytes_before, bytes_before);
    EXPECT_LT(StoreBytes(dir), bytes_before);
    // The segment folded into the compaction output.
    EXPECT_TRUE(SegmentFiles(dir).empty());
    // In-memory view survives the rewrite unchanged.
    EXPECT_EQ(Fingerprint(store), want);
  }
  {
    ResultStore replayed(dir);
    EXPECT_EQ(Fingerprint(replayed), want);
    replayed.Append(MakeKey("RN", 0.9, 0), 0.9, 9.0);
  }
  ResultStore again(dir);
  EXPECT_EQ(again.Size(), 6u);
}

TEST(CorruptionMatrixTest, StaleCompactTmpFilesAreSweptOnOpen) {
  std::string dir = TestPath("tmpsweep_store");
  { ResultStore store(dir); }
  std::string orphan =
      (fs::path(dir) / "results.jsonl.compact.tmp.12345").string();
  WriteFile(orphan, "half-written compaction\n");
  ResultStore store(dir);
  EXPECT_FALSE(fs::exists(orphan));
}

TEST(CorruptionMatrixTest, InvalidFsyncPolicyEnvAborts) {
  ASSERT_EQ(::setenv("SPARSIFY_STORE_FSYNC", "sometimes", 1), 0);
  std::string dir = TestPath("fsync_env_store");
  EXPECT_THROW(ResultStore store(dir), std::invalid_argument);
  ASSERT_EQ(::setenv("SPARSIFY_STORE_FSYNC", "always", 1), 0);
  {
    ResultStore store(dir);
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
