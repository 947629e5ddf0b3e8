// Core graph data structure: an immutable CSR (compressed sparse row) graph
// with a canonical edge array.
//
// Design notes
// ------------
// Sparsifiers in this library operate on *canonical edges*: for an undirected
// graph each edge {u,v} is stored once (with u <= v) and the CSR adjacency
// stores both directions, each entry carrying the canonical edge id. For a
// directed graph every arc is its own canonical edge. A sparsifier therefore
// produces a keep-mask over canonical edge ids, and `Subgraph()` materializes
// the sparsified graph over the *same vertex set* (the paper studies edge
// sparsification only; vertices are never dropped, section 2.1).
#ifndef SPARSIFY_GRAPH_GRAPH_H_
#define SPARSIFY_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sparsify {

class ThreadPool;

using NodeId = uint32_t;
using EdgeId = uint32_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// A weighted edge as supplied to the builder. For undirected graphs the
/// orientation of (u, v) is irrelevant; the builder canonicalizes to u <= v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double w = 1.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable graph in CSR form.
///
/// The CSR is stored structure-of-arrays: neighbor ids (`adj_nodes_`) and
/// canonical edge ids (`adj_edges_`) live in separate parallel arrays, so
/// traversals that only need neighbor ids (BFS, reachability, the pull
/// direction of the hybrid BFS kernel) stream 4-byte entries at twice the
/// cache density of the old {node, edge} pair layout. Loops that need the
/// edge id too (weights, keep-masks) index both spans with one shared
/// cursor.
///
/// Adjacency lists are sorted by neighbor id, which lets similarity
/// sparsifiers (Jaccard / SCAN) compute exact neighborhood intersections by
/// linear merge and `HasEdge` run in O(log deg).
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list: the one CSR build.
  ///
  /// Self loops are dropped, and parallel edges are merged (weights summed
  /// for weighted graphs, deduplicated for unweighted). For undirected
  /// graphs, (u,v) and (v,u) are the same edge.
  ///
  /// The build canonicalizes, stable-sorts by (u, v) and merges, so the
  /// weights of parallel edges are summed in input order. With a `pool`,
  /// the sort runs as stable chunk sorts plus a merge tree on it
  /// (NestedParallelFor); stability makes the result bit-identical to the
  /// serial build at any thread count.
  ///
  /// `num_vertices` fixes the vertex set [0, num_vertices); edges must not
  /// reference ids outside it.
  static Graph FromEdges(NodeId num_vertices, std::vector<Edge> edges,
                         bool directed, bool weighted,
                         ThreadPool* pool = nullptr);

  NodeId NumVertices() const { return num_vertices_; }
  /// Number of canonical edges (undirected edges counted once).
  EdgeId NumEdges() const { return static_cast<EdgeId>(edges_.size()); }
  bool IsDirected() const { return directed_; }
  bool IsWeighted() const { return weighted_; }

  /// Out-neighbor ids of `v` (all neighbors for undirected graphs), sorted.
  std::span<const NodeId> OutNeighborNodes(NodeId v) const {
    return {adj_nodes_.data() + out_offsets_[v],
            adj_nodes_.data() + out_offsets_[v + 1]};
  }

  /// Canonical edge ids parallel to OutNeighborNodes(v): entry i is the
  /// edge connecting `v` to OutNeighborNodes(v)[i].
  std::span<const EdgeId> OutNeighborEdges(NodeId v) const {
    return {adj_edges_.data() + out_offsets_[v],
            adj_edges_.data() + out_offsets_[v + 1]};
  }

  /// In-neighbor ids of `v`, sorted. For undirected graphs this is
  /// identical to OutNeighborNodes.
  std::span<const NodeId> InNeighborNodes(NodeId v) const {
    if (!directed_) return OutNeighborNodes(v);
    return {in_adj_nodes_.data() + in_offsets_[v],
            in_adj_nodes_.data() + in_offsets_[v + 1]};
  }

  /// Canonical edge ids parallel to InNeighborNodes(v).
  std::span<const EdgeId> InNeighborEdges(NodeId v) const {
    if (!directed_) return OutNeighborEdges(v);
    return {in_adj_edges_.data() + in_offsets_[v],
            in_adj_edges_.data() + in_offsets_[v + 1]};
  }

  /// Out-degree (total degree for undirected graphs).
  NodeId OutDegree(NodeId v) const {
    return static_cast<NodeId>(out_offsets_[v + 1] - out_offsets_[v]);
  }

  NodeId InDegree(NodeId v) const {
    if (!directed_) return OutDegree(v);
    return static_cast<NodeId>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// Maximum out-degree over all vertices (0 for an empty graph). Cached
  /// at BuildCsr time: both KN's per-k calibration and the hybrid BFS
  /// switch heuristic query it per call, and the old O(n) scan showed up
  /// in sweep profiles.
  NodeId MaxDegree() const { return max_degree_; }

  /// The canonical edge with id `e`. For undirected graphs u <= v.
  const Edge& CanonicalEdge(EdgeId e) const { return edges_[e]; }

  /// All canonical edges.
  const std::vector<Edge>& Edges() const { return edges_; }

  /// Weight of canonical edge `e` (1.0 for unweighted graphs).
  double EdgeWeight(EdgeId e) const { return edges_[e].w; }

  /// True if arc u->v exists (any of the two directions for undirected).
  bool HasEdge(NodeId u, NodeId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// Canonical edge id of arc u->v, or kInvalidEdge. O(log deg(u)).
  EdgeId FindEdge(NodeId u, NodeId v) const;

  /// Number of vertices with no incident edge (in or out).
  NodeId CountIsolated() const;

  /// Sum of all canonical edge weights.
  double TotalEdgeWeight() const;

  /// Returns the subgraph over the same vertex set keeping exactly the
  /// canonical edges with keep[e] != 0. `keep` must have NumEdges() entries.
  Graph Subgraph(const std::vector<uint8_t>& keep) const;

  /// Like Subgraph, but assigns new weights to the kept edges (used by the
  /// weighted Effective Resistance sparsifier, the only weight-changing
  /// sparsifier in the paper, Table 2). `new_weights` is indexed by the
  /// *original* canonical edge id.
  Graph ReweightedSubgraph(const std::vector<uint8_t>& keep,
                           const std::vector<double>& new_weights) const;

  /// Undirected version of this graph: each arc u->v becomes edge {u,v};
  /// duplicate arcs collapse. No-op copy for already-undirected graphs.
  /// Mirrors the paper's preprocessing step 2 (section 3.1).
  Graph Symmetrized() const;

  /// Copy of this graph with all weights set to 1 and marked unweighted.
  Graph Unweighted() const;

  /// Human-readable one-line summary (for logs and examples).
  std::string Summary() const;

 private:
  /// Builds without FromEdges' sort: `edges` must already be canonical
  /// (sorted by (u, v), deduplicated, loop-free, u <= v when undirected).
  /// Subgraph/ReweightedSubgraph use this — their inputs are filtered
  /// canonical arrays — to keep the per-sweep-cell hot path allocation-
  /// and sort-free.
  static Graph FromCanonicalEdges(NodeId num_vertices,
                                  std::vector<Edge> edges, bool directed,
                                  bool weighted);

  NodeId num_vertices_ = 0;
  bool directed_ = false;
  bool weighted_ = false;
  NodeId max_degree_ = 0;  // cached max out-degree, set by BuildCsr

  std::vector<Edge> edges_;  // canonical edges

  // Out-CSR over both directions for undirected graphs, structure-of-
  // arrays: adj_nodes_[i] / adj_edges_[i] describe the same entry.
  std::vector<uint64_t> out_offsets_;  // size num_vertices_ + 1
  std::vector<NodeId> adj_nodes_;
  std::vector<EdgeId> adj_edges_;

  // In-CSR, populated only for directed graphs.
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> in_adj_nodes_;
  std::vector<EdgeId> in_adj_edges_;

  void BuildCsr();
};

/// Intersection size |A n B| of two sorted neighbor-id spans by linear
/// merge — the shared-neighbor primitive of the similarity sparsifiers
/// (Jaccard / SCAN / triangle). Spans come from OutNeighborNodes, whose
/// sortedness BuildCsr guarantees.
inline size_t SortedIntersectionSize(std::span<const NodeId> a,
                                     std::span<const NodeId> b) {
  size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Preprocessing per paper section 3.1: removes isolated vertices and
/// re-indexes the rest to be zero-based and contiguous. Returns the cleaned
/// graph; if `old_to_new` is non-null it receives the vertex mapping
/// (kInvalidNode for removed vertices).
Graph RemoveIsolatedVertices(const Graph& g,
                             std::vector<NodeId>* old_to_new = nullptr);

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_GRAPH_H_
