// Ingest pipeline tests (src/graph/ingest.h): SNAP text -> binary cache
// round trips must be byte-identical, a second ingest must hit the cache,
// torn cache files must be rejected by ReadGraphCache and self-healed by
// IngestGraph, the content hash must be stable under input edge order,
// and Graph::FromEdgesParallel must match the serial FromEdges bitwise at
// every thread count.
#include "src/graph/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/binary_io.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace sparsify {
namespace {

namespace fs = std::filesystem;

// Byte-level graph equality: the binary serialization captures flags,
// counts, every canonical edge, and every weight bit.
std::string Serialize(const Graph& g) {
  std::ostringstream out(std::ios::binary);
  WriteBinaryGraphStream(g, out);
  return out.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(IngestTest, TextRoundTripIsByteIdenticalAndSecondLoadHitsCache) {
  Rng rng(3);
  Graph original =
      WithRandomWeights(ErdosRenyi(60, 180, /*directed=*/true, rng), 5.0,
                        rng);
  std::string dir = TestDir();
  std::string text = (fs::path(dir) / "graph.txt").string();
  WriteEdgeList(original, text);

  IngestOptions opt;
  opt.directed = true;
  opt.weighted = true;
  opt.cache_dir = dir;
  IngestResult first = IngestGraph(text, opt);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(Serialize(first.graph), Serialize(original));
  EXPECT_EQ(first.content_hash, GraphContentHash(original));
  EXPECT_EQ(IngestDatasetKey(first.graph),
            "ingest-" + first.content_hash);
  ASSERT_FALSE(first.cache_file.empty());
  EXPECT_TRUE(fs::exists(first.cache_file));

  IngestResult second = IngestGraph(text, opt);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.cache_file, first.cache_file);
  EXPECT_EQ(Serialize(second.graph), Serialize(original));

  // The cache container itself ingests directly.
  IngestResult direct = IngestGraph(first.cache_file, opt);
  EXPECT_TRUE(direct.from_cache);
  EXPECT_EQ(Serialize(direct.graph), Serialize(original));
}

TEST(IngestTest, ParseMatchesReadEdgeListOnMessyInput) {
  // Comments, blank lines, CR line ends, duplicate and self edges: the
  // bulk parser must agree with the iostream reference reader bitwise.
  std::string dir = TestDir();
  std::string text = (fs::path(dir) / "messy.txt").string();
  {
    std::ofstream out(text);
    out << "# snap-style header\n"
        << "% matrix-market-style comment\n"
        << "\n"
        << "0 1 2.5\n"
        << "1 2\r\n"
        << "2 0 0.75\n"
        << "2 0 0.75\n"
        << "7 3 1.25\n";
  }
  for (bool weighted : {false, true}) {
    Graph reference = ReadEdgeList(text, /*directed=*/false, weighted);
    IngestOptions opt;
    opt.weighted = weighted;
    IngestResult got = IngestGraph(text, opt);  // no cache dir: pure parse
    EXPECT_EQ(Serialize(got.graph), Serialize(reference))
        << "weighted=" << weighted;
    EXPECT_TRUE(got.cache_file.empty());
  }
}

TEST(IngestTest, ContentHashStableUnderEdgeOrderAndCacheRoundTrip) {
  Rng rng(9);
  Graph g = ErdosRenyi(40, 120, /*directed=*/false, rng);
  std::string expected_hash = GraphContentHash(g);

  // Same edges, shuffled and with duplicates: the hash runs over the
  // normalized edge array, so the graph (and its store key) must match.
  std::vector<Edge> edges = g.Edges();
  edges.insert(edges.end(), edges.begin(), edges.begin() + 10);
  std::mt19937 shuffle_rng(123);
  std::shuffle(edges.begin(), edges.end(), shuffle_rng);
  Graph permuted = Graph::FromEdges(g.NumVertices(), std::move(edges),
                                    false, false);
  EXPECT_EQ(GraphContentHash(permuted), expected_hash);
  EXPECT_EQ(IngestDatasetKey(permuted), "ingest-" + expected_hash);

  // Cache round trip preserves the hash (and therefore the store key).
  std::string dir = TestDir();
  std::string cache = (fs::path(dir) / "g.spgc").string();
  WriteGraphCache(g, cache);
  EXPECT_EQ(GraphContentHash(ReadGraphCache(cache)), expected_hash);

  // A genuinely different graph gets a different hash.
  Graph other = ErdosRenyi(40, 120, /*directed=*/false, rng);
  EXPECT_NE(GraphContentHash(other), expected_hash);
}

TEST(IngestTest, EveryTornCachePrefixIsRejected) {
  Rng rng(5);
  Graph g = WithRandomWeights(BarabasiAlbert(30, 2, rng), 3.0, rng);
  std::string dir = TestDir();
  std::string cache = (fs::path(dir) / "g.spgc").string();
  WriteGraphCache(g, cache);
  std::string bytes = ReadFileBytes(cache);
  ASSERT_GT(bytes.size(), 16u);
  std::string torn = (fs::path(dir) / "torn.spgc").string();
  for (size_t len = 0; len < bytes.size(); ++len) {
    {
      std::ofstream out(torn, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    EXPECT_THROW(ReadGraphCache(torn), std::runtime_error)
        << "prefix length " << len << " of " << bytes.size();
  }
  // A flipped payload byte fails the stored content hash.
  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_THROW(ReadGraphCache(torn), std::runtime_error);
  EXPECT_NO_THROW(ReadGraphCache(cache));
}

TEST(IngestTest, TornCacheEntrySelfHealsOnIngest) {
  Rng rng(7);
  Graph original = ErdosRenyi(50, 140, /*directed=*/true, rng);
  std::string dir = TestDir();
  std::string text = (fs::path(dir) / "graph.txt").string();
  WriteEdgeList(original, text);
  IngestOptions opt;
  opt.directed = true;
  opt.cache_dir = dir;
  IngestResult first = IngestGraph(text, opt);
  ASSERT_TRUE(fs::exists(first.cache_file));

  // Tear the cache file (simulated crash mid-write of a non-atomic copy).
  std::string bytes = ReadFileBytes(first.cache_file);
  {
    std::ofstream out(first.cache_file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  IngestResult healed = IngestGraph(text, opt);
  EXPECT_FALSE(healed.from_cache);  // the torn entry was discarded
  EXPECT_EQ(Serialize(healed.graph), Serialize(original));
  // ...and the rebuilt cache is whole again.
  IngestResult third = IngestGraph(text, opt);
  EXPECT_TRUE(third.from_cache);
  EXPECT_EQ(Serialize(third.graph), Serialize(original));
}

TEST(IngestTest, EditedInputFileKeysADifferentCacheEntry) {
  std::string dir = TestDir();
  std::string text = (fs::path(dir) / "graph.txt").string();
  {
    std::ofstream out(text);
    out << "0 1\n1 2\n";
  }
  IngestOptions opt;
  opt.cache_dir = dir;
  IngestResult first = IngestGraph(text, opt);
  {
    std::ofstream out(text, std::ios::trunc);
    out << "0 1\n1 2\n2 3\n";
  }
  IngestResult second = IngestGraph(text, opt);
  EXPECT_FALSE(second.from_cache);  // edited bytes -> new key, no stale hit
  EXPECT_NE(second.cache_file, first.cache_file);
  EXPECT_EQ(second.graph.NumEdges(), 3u);
}

TEST(IngestTest, FromEdgesParallelMatchesSerialAtEveryThreadCount) {
  Rng rng(21);
  // Messy input: shuffled order, reversed endpoints, parallel edges with
  // distinct weights (merged by summation — floating-point order matters,
  // which is exactly what the stable parallel sort must preserve).
  Graph base = WithRandomWeights(ErdosRenyi(400, 3000, false, rng), 9.0,
                                 rng);
  std::vector<Edge> edges = base.Edges();
  for (size_t i = 0; i < 200; ++i) {
    Edge dup = edges[i * 7 % edges.size()];
    std::swap(dup.u, dup.v);
    dup.w = dup.w + 1.0;
    edges.push_back(dup);
  }
  std::mt19937 shuffle_rng(77);
  std::shuffle(edges.begin(), edges.end(), shuffle_rng);

  for (bool directed : {false, true}) {
    Graph serial = Graph::FromEdges(base.NumVertices(), edges, directed,
                                    true);
    Graph null_pool = Graph::FromEdgesParallel(base.NumVertices(), edges,
                                               directed, true, nullptr);
    EXPECT_EQ(Serialize(null_pool), Serialize(serial))
        << "directed=" << directed;
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      Graph parallel = Graph::FromEdgesParallel(base.NumVertices(), edges,
                                                directed, true, &pool);
      EXPECT_EQ(Serialize(parallel), Serialize(serial))
          << "directed=" << directed << " threads=" << threads;
    }
  }
}

TEST(IngestTest, LoadDatasetScaledCachedMatchesUncachedAndSelfHeals) {
  std::string dir = TestDir();
  Graph direct = LoadDatasetScaledCached("ego-Facebook", 0.05, "");
  Graph cold = LoadDatasetScaledCached("ego-Facebook", 0.05, dir);
  Graph warm = LoadDatasetScaledCached("ego-Facebook", 0.05, dir);
  EXPECT_EQ(Serialize(cold), Serialize(direct));
  EXPECT_EQ(Serialize(warm), Serialize(direct));
  // Tear the cache entry; the next load must rebuild instead of failing.
  bool tore = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes = ReadFileBytes(entry.path().string());
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
    tore = true;
  }
  ASSERT_TRUE(tore);
  Graph healed = LoadDatasetScaledCached("ego-Facebook", 0.05, dir);
  EXPECT_EQ(Serialize(healed), Serialize(direct));
}

}  // namespace
}  // namespace sparsify
