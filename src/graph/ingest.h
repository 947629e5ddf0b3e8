// One-time SNAP-edge-list -> binary cache ingest for full-scale graphs.
//
// The paper evaluates sparsifiers on 10^4-10^6-node SNAP graphs; parsing
// a text edge list of that size on every run is the wrong place to spend
// wall time. Ingest parses once through the library's one edge-list
// parser (ReadEdgeList, src/graph/io.h), so it builds the same graph
// `sparsify` and `evaluate` read from the same file, with the CSR sort
// fanned out over a ThreadPool. It writes a content-addressed binary
// cache next to the store ("SPGC" container: a binary_io payload plus the
// graph's 64-bit content hash). Every later run re-keys the unchanged
// text input to the same cache file and loads the binary in one bulk
// read. The content hash names the graph, not the file: its dataset key
// ("ingest-<hash>") is equal for two files exactly when they hold the
// same normalized graph, and never collides with a synthetic dataset
// name.
#ifndef SPARSIFY_GRAPH_INGEST_H_
#define SPARSIFY_GRAPH_INGEST_H_

#include <string>

#include "src/graph/graph.h"

namespace sparsify {

class ThreadPool;

/// 64-bit FNV-1a hash over the canonical form of `g` (directed/weighted
/// flags, vertex and edge counts, every canonical edge's endpoints and
/// weight bits), rendered as 16 hex digits. Identical graphs hash
/// identically regardless of input edge order, duplicate edges, or cache
/// round-trips, because the hash runs over the normalized edge array.
std::string GraphContentHash(const Graph& g);

/// The dataset key of an ingested graph: "ingest-<16-hex-hash>".
/// Distinct from every synthetic dataset name. `ingest` prints it; no
/// command sweeps an ingested graph yet.
std::string IngestDatasetKey(const Graph& g);

struct IngestOptions {
  bool directed = false;
  bool weighted = false;
  std::string cache_dir;       // "" disables the on-disk cache
  ThreadPool* pool = nullptr;  // parallel CSR sort when provided
};

struct IngestResult {
  Graph graph;
  std::string content_hash;  // GraphContentHash(graph)
  std::string cache_file;    // cache file consulted/written ("" if none)
  bool from_cache = false;   // the binary cache satisfied the load
};

/// Loads a graph from `input_path` through the binary cache.
///
/// A ".spgc" input is read as a cache container directly (hash-verified;
/// throws on a torn or corrupted file). Anything else is treated as SNAP
/// text: the raw file bytes plus the directed/weighted flags key a cache
/// file under options.cache_dir — a valid hit skips parsing entirely; a
/// miss (or a torn cache file, which is discarded and rebuilt) reads the
/// text with ReadEdgeList on options.pool and rewrites the cache
/// atomically (temp file + rename). Throws std::runtime_error on
/// unreadable or malformed input.
IngestResult IngestGraph(const std::string& input_path,
                         const IngestOptions& options);

/// Writes the "SPGC" cache container: magic | u32 version | u64 content
/// hash | binary_io payload.
void WriteGraphCache(const Graph& g, const std::string& path);

/// Reads a cache container, re-verifying the stored content hash against
/// the loaded graph. Throws std::runtime_error on bad magic/version,
/// truncation, or a hash mismatch (torn or corrupted file).
Graph ReadGraphCache(const std::string& path);

/// LoadDatasetScaled(name, scale).graph with an on-disk cache, for benches
/// and CI runs that reuse one full-scale synthetic graph across many
/// invocations. The cache is keyed by "<name>@<scale>" (NOT by content:
/// regenerate the cache directory when generator recipes change — CI keys
/// its cache on the generator sources' hash for exactly this reason).
/// Loads are hash-verified like every cache read; a torn file is rebuilt.
Graph LoadDatasetScaledCached(const std::string& name, double scale,
                              const std::string& cache_dir);

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_INGEST_H_
