#include "src/graph/ingest.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>

#include "src/graph/binary_io.h"
#include "src/graph/datasets.h"
#include "src/util/errors.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

namespace sparsify {

namespace {

constexpr char kCacheMagic[4] = {'S', 'P', 'G', 'C'};
constexpr uint32_t kCacheVersion = 1;

// FNV-1a, the library's dependency-free stable 64-bit hash.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
uint64_t FnvMixPod(uint64_t h, T value) {
  return FnvMix(h, &value, sizeof(T));
}

uint64_t RawGraphContentHash(const Graph& g) {
  uint64_t h = kFnvOffset;
  h = FnvMixPod<uint8_t>(h, g.IsDirected() ? 1 : 0);
  h = FnvMixPod<uint8_t>(h, g.IsWeighted() ? 1 : 0);
  h = FnvMixPod<uint32_t>(h, g.NumVertices());
  h = FnvMixPod<uint32_t>(h, g.NumEdges());
  for (const Edge& e : g.Edges()) {
    h = FnvMixPod<uint32_t>(h, e.u);
    h = FnvMixPod<uint32_t>(h, e.v);
    if (g.IsWeighted()) {
      uint64_t bits;
      std::memcpy(&bits, &e.w, sizeof(bits));
      h = FnvMixPod<uint64_t>(h, bits);
    }
  }
  return h;
}

std::string HexHash(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Hash of the raw input file bytes: the text-side cache key. Streamed in
// chunks so a multi-GB edge list never lives in memory twice.
uint64_t FileBytesHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  uint64_t h = kFnvOffset;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    h = FnvMix(h, buf, static_cast<size_t>(in.gcount()));
  }
  return h;
}

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// SNAP text parse, semantics identical to ReadEdgeListStream ('#'/'%'
// comment lines, "u v [w]" rows, n = max id + 1) but over one bulk read
// with pointer scanning — the iostream-per-line parse is the bottleneck
// at 10^6+ edges.
void ParseEdgeListText(const std::string& path, bool weighted,
                       std::vector<Edge>* edges, NodeId* num_vertices) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  edges->clear();
  edges->reserve(std::count(text.begin(), text.end(), '\n') + 1);
  NodeId max_id = 0;
  bool any = false;
  size_t lineno = 0;
  const char* p = text.c_str();
  const char* end = p + text.size();
  while (p < end) {
    ++lineno;
    const char* line_end = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (line_end == nullptr) line_end = end;
    if (p == line_end || *p == '#' || *p == '%' || *p == '\r') {
      p = line_end + 1;
      continue;
    }
    char* cursor = nullptr;
    const uint64_t u = std::strtoull(p, &cursor, 10);
    if (cursor == p) {
      throw std::runtime_error("bad edge at line " + std::to_string(lineno));
    }
    const char* after_u = cursor;
    const uint64_t v = std::strtoull(after_u, &cursor, 10);
    if (cursor == after_u) {
      throw std::runtime_error("bad edge at line " + std::to_string(lineno));
    }
    double w = 1.0;
    if (weighted) {
      const char* after_v = cursor;
      w = std::strtod(after_v, &cursor);
      if (cursor == after_v || cursor > line_end) w = 1.0;
    }
    edges->push_back({static_cast<NodeId>(u), static_cast<NodeId>(v), w});
    max_id = std::max({max_id, static_cast<NodeId>(u),
                       static_cast<NodeId>(v)});
    any = true;
    p = line_end + 1;
  }
  *num_vertices = any ? max_id + 1 : 0;
}

// Removes `<path>.tmp.<pid>.<nonce>` leftovers whose writer is gone.
// Two racing processes building the same cache entry each write their own
// tmp file (the suffix keeps them apart), so an orphan only exists when a
// writer died mid-build — kill(pid, 0) == ESRCH is the liveness probe. A
// still-running writer's tmp file is left alone.
void RemoveStaleCacheTmpFiles(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::error_code ec;
  fs::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string rest = name.substr(prefix.size());  // "<pid>.<nonce>"
    char* end = nullptr;
    const long pid = std::strtol(rest.c_str(), &end, 10);
    if (end == rest.c_str() || *end != '.') continue;  // not ours
    if (pid != static_cast<long>(::getpid()) &&
        (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)) {
      fs::remove(entry.path(), ec);
    }
  }
}

void WriteGraphCacheAtomic(const Graph& g, const std::string& path) {
  RemoveStaleCacheTmpFiles(path);
  // PID + random nonce: concurrent processes (or a PID-reusing successor
  // of a crashed one) never clobber each other's in-flight tmp file.
  static std::atomic<uint64_t> counter{std::random_device{}()};
  const uint64_t nonce = counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          HexHash(nonce);
  try {
    WriteGraphCache(g, tmp);
    SPARSIFY_FAILPOINT("ingest.rename");
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

std::string SanitizeCacheName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

}  // namespace

std::string GraphContentHash(const Graph& g) {
  return HexHash(RawGraphContentHash(g));
}

std::string IngestDatasetKey(const Graph& g) {
  return "ingest-" + GraphContentHash(g);
}

void WriteGraphCache(const Graph& g, const std::string& path) {
  SPARSIFY_FAILPOINT("ingest.tmp_write");
  {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw IoError("cannot open " + path);
    out.write(kCacheMagic, 4);
    const uint32_t version = kCacheVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t hash = RawGraphContentHash(g);
    out.write(reinterpret_cast<const char*>(&hash), sizeof(hash));
    WriteBinaryGraphStream(g, out);
    // Flush before the state check: buffered bytes can fail at flush time
    // (full disk), and a silently short cache file would replay as a torn
    // entry on every future run.
    out.flush();
    if (!out) throw IoError("graph cache: write failure to " + path);
  }
  // Durability: the caller renames this file over the cache entry; fsync
  // first so a power cut cannot promote an empty/partial inode.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) throw IoError("graph cache: reopen for fsync failed: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw IoError("graph cache: fsync failed: " + path);
}

Graph ReadGraphCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kCacheMagic, 4) != 0) {
    throw std::runtime_error("graph cache: bad magic");
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kCacheVersion) {
    throw std::runtime_error("graph cache: unsupported version");
  }
  uint64_t stored_hash = 0;
  in.read(reinterpret_cast<char*>(&stored_hash), sizeof(stored_hash));
  if (!in) throw std::runtime_error("graph cache: truncated input");
  Graph g = ReadBinaryGraphStream(in);
  SPARSIFY_FAILPOINT("ingest.hash_verify");
  if (RawGraphContentHash(g) != stored_hash) {
    throw std::runtime_error(
        "graph cache: content hash mismatch (torn or corrupted cache file)");
  }
  return g;
}

IngestResult IngestGraph(const std::string& input_path,
                         const IngestOptions& options) {
  IngestResult result;
  if (HasSuffix(input_path, ".spgc")) {
    result.graph = ReadGraphCache(input_path);
    result.content_hash = GraphContentHash(result.graph);
    result.cache_file = input_path;
    result.from_cache = true;
    return result;
  }
  if (HasSuffix(input_path, ".spgb")) {
    result.graph = ReadBinaryGraph(input_path);
    result.content_hash = GraphContentHash(result.graph);
    result.from_cache = true;
    return result;
  }
  // Text input: the raw bytes + parse flags key the cache file, so an
  // unchanged file never parses twice and an edited file never serves a
  // stale graph.
  if (!options.cache_dir.empty()) {
    std::filesystem::create_directories(options.cache_dir);
    const std::string key =
        HexHash(FnvMixPod<uint16_t>(
            FileBytesHash(input_path),
            static_cast<uint16_t>((options.directed ? 1 : 0) |
                                  (options.weighted ? 2 : 0))));
    result.cache_file =
        (std::filesystem::path(options.cache_dir) / (key + ".spgc")).string();
    if (std::filesystem::exists(result.cache_file)) {
      try {
        result.graph = ReadGraphCache(result.cache_file);
        result.content_hash = GraphContentHash(result.graph);
        result.from_cache = true;
        return result;
      } catch (const std::exception&) {
        // Torn or corrupted cache entry: discard and rebuild below.
        std::filesystem::remove(result.cache_file);
      }
    }
  }
  std::vector<Edge> edges;
  NodeId n = 0;
  ParseEdgeListText(input_path, options.weighted, &edges, &n);
  result.graph = Graph::FromEdgesParallel(n, std::move(edges),
                                          options.directed, options.weighted,
                                          options.pool);
  result.content_hash = GraphContentHash(result.graph);
  if (!result.cache_file.empty()) {
    WriteGraphCacheAtomic(result.graph, result.cache_file);
  }
  return result;
}

Graph LoadDatasetScaledCached(const std::string& name, double scale,
                              const std::string& cache_dir) {
  if (cache_dir.empty()) return LoadDatasetScaled(name, scale).graph;
  std::filesystem::create_directories(cache_dir);
  char scale_buf[32];
  std::snprintf(scale_buf, sizeof(scale_buf), "%g", scale);
  const std::string file = SanitizeCacheName(name) + "_at_" + scale_buf +
                           ".spgc";
  const std::string path =
      (std::filesystem::path(cache_dir) / file).string();
  if (std::filesystem::exists(path)) {
    try {
      return ReadGraphCache(path);
    } catch (const std::exception&) {
      std::filesystem::remove(path);  // torn cache entry: rebuild
    }
  }
  Graph g = LoadDatasetScaled(name, scale).graph;
  WriteGraphCacheAtomic(g, path);
  return g;
}

}  // namespace sparsify
