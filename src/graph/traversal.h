// Shared traversal kernel: reusable scratch + direction-optimizing BFS +
// scratch-reusing Dijkstra.
//
// Every BFS/SSSP-bound metric in the library (SPSP stretch, eccentricity,
// approximate diameter, closeness/betweenness centrality, reachability
// sampling, Dinic's level phase) used to allocate a fresh O(n) distance
// vector and drive a std::deque-backed std::queue per call. This kernel
// removes both overheads:
//
//  * TraversalScratch owns every per-traversal array (epoch-stamped visit
//    marks, uint32 level array, double distance array, flat frontier
//    buffers, Dijkstra heap storage, and the Brandes state: sigma/delta
//    slots, a sentinel-filled level array, the pop order and the flat
//    shortest-path DAG). Repeated traversals over same-sized graphs do
//    zero allocation, and the epoch stamp makes "reset the visited set"
//    an O(1) counter bump instead of an O(n) refill.
//
//  * BfsLevels is a level-synchronous direction-optimizing BFS (Beamer et
//    al., the GAP-benchmark kernel): it starts in the push (top-down)
//    direction and switches to pull (bottom-up) when the frontier's edge
//    count grows past a fixed fraction of the unexplored edges — on
//    low-diameter social/web graphs the pull direction settles the giant
//    middle levels while touching only a fraction of the edges. The pull
//    direction scans InNeighborNodes, so it is correct for directed
//    graphs too. The push->pull switch is gated on the IN-arc mass of
//    still-undiscovered vertices (what a pull round actually scans) plus
//    a frontier-size floor, so directed graphs with large unreachable
//    regions never pay for pull rounds that cannot help; pull rounds scan
//    a word-parallel visited bitmap instead of walking byte stamps (see
//    src/graph/README.md for the full heuristic and why one visited bit
//    is a sufficient parent test).
//
//  * DijkstraDistances runs a delta-stepping bucket queue by default
//    (binary-heap fallback when the weight distribution defeats
//    bucketing), with bit-identical distances either way.
//
//  * MultiSourceBfs runs up to 64 BFS sources in one pass (MS-BFS, Then
//    et al., "The More the Merrier", PVLDB 8(4), 2014): one bit per source
//    in a uint64_t seen/frontier/next word per vertex, so one edge visit
//    serves every source whose frontier crosses it. It returns per-source
//    (reached, level sum, max level) only — exactly what closeness and
//    eccentricity fold — and chooses push or pull per level.
//
// Determinism: BFS hop counts and Dijkstra distances are the unique fixed
// point of their recurrences — they do not depend on the order vertices
// are processed in, so push-only, hybrid, and the legacy queue BFS produce
// bit-identical distance arrays (see src/graph/README.md for the full
// argument). The TraversalSummary reductions (max, min-id-at-max) are
// likewise order-independent.
//
// Scratch ownership: a scratch is single-threaded — one traversal at a
// time, results valid until the next Begin on the same scratch. Under
// nested parallelism hand each NestedParallelFor subtask its own scratch;
// LocalTraversalScratch() does exactly that (one scratch per OS thread).
#ifndef SPARSIFY_GRAPH_TRAVERSAL_H_
#define SPARSIFY_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace sparsify {

constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// Reusable per-thread traversal state. All fields are kernel-managed;
/// consumers read results through the accessors after a traversal returns.
class TraversalScratch {
 public:
  static constexpr uint32_t kNoLevel = static_cast<uint32_t>(-1);

  /// True if `v` was reached by the last traversal.
  bool Reached(NodeId v) const { return stamp_[v] == epoch_; }

  /// Hop count of `v` (valid after BfsLevels; kNoLevel if unreached).
  uint32_t LevelOf(NodeId v) const {
    return Reached(v) ? level_[v] : kNoLevel;
  }

  /// Distance of `v` in ShortestPathDistances semantics: hop count for
  /// BFS, weighted distance for Dijkstra, kInfDistance if unreached.
  double DistanceOf(NodeId v) const {
    if (!Reached(v)) return kInfDistance;
    return weighted_ ? dist_[v] : static_cast<double>(level_[v]);
  }

  /// Prepares for a traversal over an n-vertex graph: sizes the arrays
  /// (allocation only when n grows past any previous graph) and bumps the
  /// visit epoch (O(1); the stamp array is refilled only when the 32-bit
  /// epoch wraps, once per ~4 billion traversals).
  void Begin(NodeId n, bool weighted);

  /// Sizes the Brandes state for `g`: the slots (all zero) and levels
  /// (all kNoLevel) to its vertex count, the order and DAG buffers to its
  /// vertex and edge counts. Callers must restore the slots and levels of
  /// the vertices they touched before returning, so a warm scratch
  /// allocates nothing and repeated calls cost O(1).
  void EnsureBrandes(const Graph& g);

  // Kernel-internal state, exposed for the traversal functions and the
  // Brandes accumulation in centrality.cc. Treat as read-only elsewhere.
  std::vector<uint32_t> stamp_;  // visit epoch per vertex
  uint32_t epoch_ = 0;
  bool weighted_ = false;
  std::vector<uint32_t> level_;  // hop counts (unweighted traversals)
  std::vector<double> dist_;     // weighted distances (Dijkstra)
  std::vector<NodeId> frontier_;  // flat frontier
  std::vector<NodeId> next_;      // next-level frontier
  std::vector<std::pair<double, NodeId>> heap_;  // Dijkstra min-heap
  // Pull-direction visited bitmap, built lazily at the first pull switch
  // of a traversal and maintained incrementally afterwards. Valid iff
  // bits_epoch_ == epoch_.
  std::vector<uint64_t> visited_bits_;
  uint32_t bits_epoch_ = 0;
  // Delta-stepping state: cyclic bucket array (vertex ids, lazy deletion)
  // and the discovery-order list the end-of-run summary fold walks.
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<NodeId> reached_order_;
  // Brandes betweenness state (EnsureBrandes). Slots are all zero and
  // levels all kNoLevel between calls; order_ doubles as the FIFO, and
  // the successors of order_[i] in the shortest-path DAG are
  // succ_[succ_end_[i - 1], succ_end_[i]) (from 0 for i == 0).
  struct BrandesSlot {
    double sigma = 0.0;  // shortest paths from the source
    double delta = 0.0;  // dependency of the source on the vertex
  };
  std::vector<BrandesSlot> brandes_;
  std::vector<uint32_t> brandes_level_;
  std::vector<NodeId> order_;  // BFS pop order of the last accumulation
  std::vector<NodeId> succ_;
  std::vector<EdgeId> succ_end_;  // <= NumEdges(), see EnsureBrandes
  // MultiSourceBfs state: one bit per source per vertex (zeroed per call;
  // the vertex lists reuse frontier_/next_).
  std::vector<uint64_t> ms_seen_;
  std::vector<uint64_t> ms_frontier_;
  std::vector<uint64_t> ms_next_;

  void MarkReached(NodeId v) { stamp_[v] = epoch_; }
};

/// Order-independent summary of one traversal, folded while the kernel
/// runs so consumers like eccentricity and the double-sweep diameter never
/// rescan an O(n) distance vector.
struct TraversalSummary {
  NodeId reached = 0;     // vertices reached, including the source
  double max_dist = 0.0;  // max distance over reached v != src (0 if none)
  NodeId farthest = 0;    // lowest-id vertex attaining max_dist when
                          // max_dist > 0, else the source itself — exactly
                          // the argmax an ascending strict `>` scan of the
                          // distance vector produces
  int pull_rounds = 0;    // BFS rounds executed in the pull direction
};

enum class BfsMode {
  kHybrid,    // direction-optimizing push/pull (the default)
  kPushOnly,  // classic top-down only (bench baseline / differential tests)
};

enum class SsspMode {
  kAuto,           // delta-stepping when the weight distribution allows it
  kDeltaStepping,  // force the bucket queue (still falls back on degenerate
                   // weights: delta <= 0 or non-finite)
  kBinaryHeap,     // classic lazy-deletion binary heap (bench baseline /
                   // differential tests)
};

/// Hop-count BFS from `src` along out-edges, ignoring weights. Results via
/// scratch.LevelOf / scratch.DistanceOf / scratch.Reached.
TraversalSummary BfsLevels(const Graph& g, NodeId src,
                           TraversalScratch& scratch,
                           BfsMode mode = BfsMode::kHybrid);

/// Dijkstra from `src` along out-edges using edge weights. Results via
/// scratch.DistanceOf / scratch.Reached. Distances are bit-identical
/// across every SsspMode (unique fixed point; see src/graph/README.md).
TraversalSummary DijkstraDistances(const Graph& g, NodeId src,
                                   TraversalScratch& scratch,
                                   SsspMode mode = SsspMode::kAuto);

/// ShortestPathDistances dispatch: BFS for unweighted graphs, Dijkstra
/// for weighted ones — the semantics every distance metric is defined on.
TraversalSummary Traverse(const Graph& g, NodeId src,
                          TraversalScratch& scratch,
                          BfsMode mode = BfsMode::kHybrid);

/// Per-source result of MultiSourceBfs. Every field equals what BfsLevels
/// from that source yields: reached counts the source itself, level_sum is
/// the sum of LevelOf over reached vertices, max_level is max_dist.
struct MultiBfsStats {
  NodeId reached = 0;
  uint64_t level_sum = 0;
  uint32_t max_level = 0;
};

/// Sources per MultiSourceBfs call: one bit each in a uint64_t word.
constexpr size_t kMaxMultiBfsSources = 64;

/// Hop-count BFS from every vertex of `sources` (at most
/// kMaxMultiBfsSources; repeats allowed) at once, along out-edges and
/// ignoring weights. out[i] receives the stats of sources[i]. Throws
/// std::invalid_argument on more sources or a differently sized `out`.
/// Returns the rounds run in the pull direction, as
/// TraversalSummary::pull_rounds does for BfsLevels. Polls cancellation
/// once per level; a warm scratch allocates nothing.
int MultiSourceBfs(const Graph& g, std::span<const NodeId> sources,
                   TraversalScratch& scratch, std::span<MultiBfsStats> out);

/// Drop-in scratch-reusing replacement for the legacy per-call API:
/// returns the exact std::vector<double> the seed implementation produced
/// (hop counts / weighted distances, kInfDistance for unreachable).
std::vector<double> ShortestPathDistances(const Graph& g, NodeId src,
                                          TraversalScratch& scratch);

/// The calling thread's own scratch (thread_local). This is the scratch
/// handout rule under nested parallelism: every NestedParallelFor subtask
/// runs on exactly one thread, so each claiming thread — pool workers and
/// the nested caller alike — reuses its own scratch with no sharing and
/// no locking. Results are only valid until the next traversal on the
/// same thread: collect what you need before starting another.
TraversalScratch& LocalTraversalScratch();

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_TRAVERSAL_H_
