#include "src/graph/graph.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/util/thread_pool.h"

namespace sparsify {

namespace {

bool EdgeEndpointLess(const Edge& a, const Edge& b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

// Drops self loops and canonicalizes undirected orientation, in place.
void CanonicalizeEdges(std::vector<Edge>* edges, bool directed) {
  std::vector<Edge>& es = *edges;
  size_t out = 0;
  for (const Edge& e : es) {
    if (e.u == e.v) continue;
    Edge c = e;
    if (!directed && c.u > c.v) std::swap(c.u, c.v);
    es[out++] = c;
  }
  es.resize(out);
}

// Merges duplicate (u, v) runs of a sorted edge array, in place.
void MergeDuplicateEdges(std::vector<Edge>* edges, bool weighted) {
  std::vector<Edge>& es = *edges;
  size_t out = 0;
  for (size_t i = 0; i < es.size();) {
    Edge merged = es[i];
    size_t j = i + 1;
    while (j < es.size() && es[j].u == merged.u && es[j].v == merged.v) {
      if (weighted) merged.w += es[j].w;
      ++j;
    }
    if (!weighted) merged.w = 1.0;
    es[out++] = merged;
    i = j;
  }
  es.resize(out);
}

// Stable sort by (u, v): edges with equal endpoints keep their input
// order, so the merge after it sums parallel weights in input order. With
// a pool, contiguous chunks are stable-sorted in parallel and then merged
// pairwise by a tree of inplace_merges, which are stable too, so the
// result does not depend on the chunk count.
void StableSortEdges(std::vector<Edge>* edges, ThreadPool* pool) {
  std::vector<Edge>& es = *edges;
  constexpr size_t kMinParallelEdges = 1 << 15;
  const size_t threads =
      pool != nullptr ? static_cast<size_t>(pool->NumThreads()) : 1;
  if (threads < 2 || es.size() < kMinParallelEdges) {
    std::stable_sort(es.begin(), es.end(), EdgeEndpointLess);
    return;
  }
  size_t chunks = 1;
  while (chunks * 2 <= threads) chunks *= 2;
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) {
    bounds[c] = es.size() * c / chunks;
  }
  NestedParallelFor(pool, chunks, [&](size_t c) {
    std::stable_sort(es.begin() + bounds[c], es.begin() + bounds[c + 1],
                     EdgeEndpointLess);
  });
  for (size_t width = 1; width < chunks; width *= 2) {
    NestedParallelFor(pool, chunks / (2 * width), [&](size_t p) {
      const size_t lo = bounds[2 * width * p];
      const size_t mid = bounds[2 * width * p + width];
      const size_t hi = bounds[2 * width * (p + 1)];
      std::inplace_merge(es.begin() + lo, es.begin() + mid, es.begin() + hi,
                         EdgeEndpointLess);
    });
  }
}

}  // namespace

Graph Graph::FromEdges(NodeId num_vertices, std::vector<Edge> edges,
                       bool directed, bool weighted, ThreadPool* pool) {
  for (const Edge& e : edges) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::invalid_argument("edge endpoint out of range");
    }
  }
  CanonicalizeEdges(&edges, directed);
  StableSortEdges(&edges, pool);
  MergeDuplicateEdges(&edges, weighted);
  return FromCanonicalEdges(num_vertices, std::move(edges), directed,
                            weighted);
}

void Graph::BuildCsr() {
  // The canonical edge array is sorted by (u, v), deduplicated, and
  // loop-free (FromEdges, or the FromCanonicalEdges contract), so a
  // single cursor fill in edge order already produces sorted adjacency
  // lists: vertex x first receives its v-side entries (neighbors < x, from
  // edges (u, x) with u ascending), then its u-side entries (neighbors
  // > x for undirected canonical u <= v, with v ascending). No per-vertex
  // sort is needed — BuildCsr is a pure counting sort, which matters on
  // the per-sweep-cell Subgraph hot path.
  const size_t n = num_vertices_;
  out_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.u + 1];
    if (!directed_) ++out_offsets_[e.v + 1];
  }
  for (size_t i = 0; i < n; ++i) out_offsets_[i + 1] += out_offsets_[i];
  adj_nodes_.resize(out_offsets_[n]);
  adj_edges_.resize(out_offsets_[n]);
  std::vector<uint64_t> cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& ed = edges_[e];
    adj_nodes_[cursor[ed.u]] = ed.v;
    adj_edges_[cursor[ed.u]++] = e;
    if (!directed_) {
      adj_nodes_[cursor[ed.v]] = ed.u;
      adj_edges_[cursor[ed.v]++] = e;
    }
  }
  if (directed_) {
    in_offsets_.assign(n + 1, 0);
    for (const Edge& e : edges_) ++in_offsets_[e.v + 1];
    for (size_t i = 0; i < n; ++i) in_offsets_[i + 1] += in_offsets_[i];
    in_adj_nodes_.resize(in_offsets_[n]);
    in_adj_edges_.resize(in_offsets_[n]);
    std::vector<uint64_t> icur(in_offsets_.begin(), in_offsets_.end() - 1);
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      in_adj_nodes_[icur[edges_[e].v]] = edges_[e].u;
      in_adj_edges_[icur[edges_[e].v]++] = e;
    }
  } else {
    in_offsets_.clear();
    in_adj_nodes_.clear();
    in_adj_edges_.clear();
  }
  max_degree_ = 0;
  for (NodeId v = 0; v < num_vertices_; ++v) {
    max_degree_ = std::max(max_degree_, OutDegree(v));
  }
}

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  auto nbrs = OutNeighborNodes(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it != nbrs.end() && *it == v) {
    return OutNeighborEdges(u)[static_cast<size_t>(it - nbrs.begin())];
  }
  return kInvalidEdge;
}

NodeId Graph::CountIsolated() const {
  NodeId count = 0;
  for (NodeId v = 0; v < num_vertices_; ++v) {
    if (OutDegree(v) == 0 && InDegree(v) == 0) ++count;
  }
  return count;
}

double Graph::TotalEdgeWeight() const {
  double total = 0.0;
  for (const Edge& e : edges_) total += e.w;
  return total;
}

Graph Graph::FromCanonicalEdges(NodeId num_vertices, std::vector<Edge> edges,
                                bool directed, bool weighted) {
  Graph g;
  g.num_vertices_ = num_vertices;
  g.directed_ = directed;
  g.weighted_ = weighted;
  g.edges_ = std::move(edges);
  g.BuildCsr();
  return g;
}

Graph Graph::Subgraph(const std::vector<uint8_t>& keep) const {
  assert(keep.size() == edges_.size());
  // This graph's canonical edge array is already normalized (sorted,
  // deduplicated, loop-free), and filtering preserves all of that, so the
  // subgraph skips FromEdges' sort — this is the per-cell hot path
  // of every sweep.
  size_t count = 0;
  for (EdgeId e = 0; e < edges_.size(); ++e) count += keep[e] != 0;
  std::vector<Edge> kept;
  kept.reserve(count);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (keep[e]) kept.push_back(edges_[e]);
  }
  return FromCanonicalEdges(num_vertices_, std::move(kept), directed_,
                            weighted_);
}

Graph Graph::ReweightedSubgraph(const std::vector<uint8_t>& keep,
                                const std::vector<double>& new_weights) const {
  assert(keep.size() == edges_.size());
  assert(new_weights.size() == edges_.size());
  size_t count = 0;
  for (EdgeId e = 0; e < edges_.size(); ++e) count += keep[e] != 0;
  std::vector<Edge> kept;
  kept.reserve(count);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (keep[e]) kept.push_back({edges_[e].u, edges_[e].v, new_weights[e]});
  }
  return FromCanonicalEdges(num_vertices_, std::move(kept), directed_,
                            /*weighted=*/true);
}

Graph Graph::Symmetrized() const {
  if (!directed_) return *this;
  std::vector<Edge> es = edges_;
  // FromEdges would sum weights of u->v and v->u when merging; for
  // symmetrization we want the undirected edge to exist once with the
  // max weight of the two arcs (1 for unweighted graphs), matching the
  // "add reverse edge if missing" preprocessing of the paper.
  for (Edge& e : es) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  StableSortEdges(&es, nullptr);
  size_t out = 0;
  for (size_t i = 0; i < es.size();) {
    Edge m = es[i];
    size_t j = i + 1;
    while (j < es.size() && es[j].u == m.u && es[j].v == m.v) {
      m.w = std::max(m.w, es[j].w);
      ++j;
    }
    es[out++] = m;
    i = j;
  }
  es.resize(out);
  return FromCanonicalEdges(num_vertices_, std::move(es), /*directed=*/false,
                            weighted_);
}

Graph Graph::Unweighted() const {
  std::vector<Edge> es = edges_;
  for (Edge& e : es) e.w = 1.0;
  return FromEdges(num_vertices_, std::move(es), directed_,
                   /*weighted=*/false);
}

std::string Graph::Summary() const {
  std::ostringstream os;
  os << (directed_ ? "directed" : "undirected") << " "
     << (weighted_ ? "weighted" : "unweighted") << " graph: |V|="
     << num_vertices_ << " |E|=" << NumEdges()
     << " isolated=" << CountIsolated();
  return os.str();
}

Graph RemoveIsolatedVertices(const Graph& g, std::vector<NodeId>* old_to_new) {
  std::vector<NodeId> map(g.NumVertices(), kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > 0 || g.InDegree(v) > 0) map[v] = next++;
  }
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  for (const Edge& e : g.Edges()) {
    edges.push_back({map[e.u], map[e.v], e.w});
  }
  if (old_to_new != nullptr) *old_to_new = map;
  return Graph::FromEdges(next, std::move(edges), g.IsDirected(),
                          g.IsWeighted());
}

}  // namespace sparsify
