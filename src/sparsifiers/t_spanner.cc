#include "src/sparsifiers/t_spanner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Edges between two cancellation polls of the greedy scan.
constexpr EdgeId kCancelPollEdges = 1024;

// The partial spanner as one flat adjacency that only grows: vertex v's
// kept neighbours fill [begin[v], begin[v] + fill[v]). `begin` is the
// prefix sum of G's degrees, so every kept edge appends in place and the
// scan allocates nothing per edge. Neighbours appear in keep order, which
// fixes the order in which the weighted query relaxes them.
class GrowingAdjacency {
 public:
  GrowingAdjacency(const Graph& g, bool with_weights)
      : begin_(g.NumVertices() + 1, 0), fill_(g.NumVertices(), 0) {
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      begin_[v + 1] = begin_[v] + g.OutDegree(v);
    }
    nodes_.resize(begin_.back());
    if (with_weights) weights_.resize(begin_.back());
  }

  void Add(const Edge& e) {
    Append(e.u, e.v, e.w);
    Append(e.v, e.u, e.w);
  }

  std::span<const NodeId> Nodes(NodeId v) const {
    return {nodes_.data() + begin_[v], fill_[v]};
  }
  /// Parallel to Nodes(v); only when built `with_weights`.
  std::span<const double> Weights(NodeId v) const {
    return {weights_.data() + begin_[v], fill_[v]};
  }

 private:
  void Append(NodeId from, NodeId to, double w) {
    const size_t slot = begin_[from] + fill_[from]++;
    nodes_[slot] = to;
    if (!weights_.empty()) weights_[slot] = w;
  }

  std::vector<size_t> begin_;
  std::vector<NodeId> fill_;
  std::vector<NodeId> nodes_;
  std::vector<double> weights_;
};

// Unit-weight query: is there a spanner path of at most `hops` edges
// between s and t? Bidirectional BFS that always expands the smaller
// frontier and stops as soon as the two sides touch. Side A's queue grows
// up from the front of `queue_` and side B's down from the back; the two
// visited sets are disjoint until they meet, so one n-slot buffer holds
// both. Vertex stamps are mark_ (side A) or mark_ + 1 (side B), so the
// visited sets reset by bumping mark_.
class HopBoundedBfs {
 public:
  explicit HopBoundedBfs(NodeId n) : stamp_(n, 0), queue_(n) {}

  bool WithinHops(const GrowingAdjacency& adj, NodeId s, NodeId t,
                  uint32_t hops) {
    if (s == t) return true;
    NextMark();
    const uint32_t a_mark = mark_;
    const uint32_t b_mark = mark_ + 1;
    stamp_[s] = a_mark;
    stamp_[t] = b_mark;
    size_t a_lo = 0, a_hi = 1;
    size_t b_lo = queue_.size() - 1, b_hi = queue_.size();
    queue_[a_lo] = s;
    queue_[b_lo] = t;
    // Invariant: no contact yet means d(s, t) > depth_a + depth_b, and
    // each round adds one to that sum.
    for (uint32_t depth = 0; depth < hops; ++depth) {
      if (a_hi - a_lo <= b_hi - b_lo) {
        size_t end = a_hi;
        for (size_t i = a_lo; i < a_hi; ++i) {
          for (NodeId y : adj.Nodes(queue_[i])) {
            if (stamp_[y] == b_mark) return true;
            if (stamp_[y] != a_mark) {
              stamp_[y] = a_mark;
              queue_[end++] = y;
            }
          }
        }
        a_lo = a_hi;
        a_hi = end;
        if (a_lo == a_hi) return false;
      } else {
        size_t start = b_lo;
        for (size_t i = b_lo; i < b_hi; ++i) {
          for (NodeId y : adj.Nodes(queue_[i])) {
            if (stamp_[y] == a_mark) return true;
            if (stamp_[y] != b_mark) {
              stamp_[y] = b_mark;
              queue_[--start] = y;
            }
          }
        }
        b_hi = b_lo;
        b_lo = start;
        if (b_lo == b_hi) return false;
      }
    }
    return false;
  }

 private:
  void NextMark() {
    mark_ += 2;
    if (mark_ == 0) {
      // 32-bit wrap (once per ~2 billion queries): stale stamps could
      // alias the restarted marks, so clear them.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      mark_ = 2;
    }
  }

  std::vector<uint32_t> stamp_;
  std::vector<NodeId> queue_;
  uint32_t mark_ = 0;
};

// Weighted query: bounded-distance Dijkstra from src, returning d(src, dst)
// or +inf once it exceeds `bound`. The heap holds (distance, vertex) under
// std::greater, driven through push_heap/pop_heap exactly as
// std::priority_queue drives its container: pops, relaxations and the
// floating-point path sums follow the greedy's defining per-edge
// priority_queue Dijkstra, so keep decisions match it bit for bit.
class BoundedDijkstra {
 public:
  explicit BoundedDijkstra(NodeId n)
      : dist_(n, std::numeric_limits<double>::infinity()) {}

  double Distance(const GrowingAdjacency& adj, NodeId src, NodeId dst,
                  double bound) {
    dist_[src] = 0.0;
    touched_.push_back(src);
    Push(0.0, src);
    double answer = std::numeric_limits<double>::infinity();
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [d, v] = heap_.back();
      heap_.pop_back();
      if (d > dist_[v]) continue;
      if (v == dst) {
        answer = d;
        break;
      }
      if (d > bound) break;
      std::span<const NodeId> nodes = adj.Nodes(v);
      std::span<const double> weights = adj.Weights(v);
      for (size_t i = 0; i < nodes.size(); ++i) {
        const NodeId w = nodes[i];
        const double nd = d + weights[i];
        if (nd < dist_[w] && nd <= bound) {
          dist_[w] = nd;
          touched_.push_back(w);
          Push(nd, w);
        }
      }
    }
    for (NodeId v : touched_) {
      dist_[v] = std::numeric_limits<double>::infinity();
    }
    touched_.clear();
    heap_.clear();
    return answer;
  }

 private:
  void Push(double d, NodeId v) {
    heap_.emplace_back(d, v);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  std::vector<double> dist_;
  std::vector<NodeId> touched_;
  std::vector<std::pair<double, NodeId>> heap_;
};

}  // namespace

TSpannerSparsifier::TSpannerSparsifier(double t) : t_(t) {
  if (t <= 1.0) throw std::invalid_argument("stretch factor must be > 1");
  info_ = SparsifierInfo{
      .name = "t-Spanner (t=" + std::to_string(static_cast<int>(t)) + ")",
      .short_name = "SP-" + std::to_string(static_cast<int>(t)),
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kNone,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|V|^2 log |V|)",
  };
}

const SparsifierInfo& TSpannerSparsifier::Info() const { return info_; }

std::unique_ptr<ScoreState> TSpannerSparsifier::PrepareScores(const Graph& g,
                                                              Rng& rng) const {
  (void)rng;  // deterministic
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "t-Spanner requires an undirected graph; symmetrize first");
  }
  const EdgeId m = g.NumEdges();
  const NodeId n = g.NumVertices();
  std::vector<uint8_t> keep(m, 0);
  const bool unit = std::all_of(g.Edges().begin(), g.Edges().end(),
                                [](const Edge& e) { return e.w == 1.0; });
  if (unit) {
    // With unit weights the greedy order is the edge order (a stable sort
    // of equal keys), and d_H(u, v) <= t iff some path of at most floor(t)
    // hops joins u and v. Paths never need more than n - 1 hops.
    const double max_hops = std::floor(t_);
    const uint32_t hops = max_hops >= static_cast<double>(n)
                              ? n
                              : static_cast<uint32_t>(max_hops);
    GrowingAdjacency spanner(g, /*with_weights=*/false);
    HopBoundedBfs bfs(n);
    for (EdgeId e = 0; e < m; ++e) {
      if (e % kCancelPollEdges == 0) SPARSIFY_CHECK_CANCELLED();
      const Edge& ed = g.CanonicalEdge(e);
      if (!bfs.WithinHops(spanner, ed.u, ed.v, hops)) {
        keep[e] = 1;
        spanner.Add(ed);
      }
    }
    return std::make_unique<FixedMaskState>(std::move(keep));
  }

  std::vector<EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return g.EdgeWeight(a) < g.EdgeWeight(b);
  });
  GrowingAdjacency spanner(g, /*with_weights=*/true);
  BoundedDijkstra dijkstra(n);
  for (EdgeId i = 0; i < m; ++i) {
    if (i % kCancelPollEdges == 0) SPARSIFY_CHECK_CANCELLED();
    const EdgeId e = order[i];
    const Edge& ed = g.CanonicalEdge(e);
    const double bound = t_ * ed.w;
    if (dijkstra.Distance(spanner, ed.u, ed.v, bound) > bound) {
      keep[e] = 1;
      spanner.Add(ed);
    }
  }
  return std::make_unique<FixedMaskState>(std::move(keep));
}

RateMask TSpannerSparsifier::MaskForRate(const ScoreState& state,
                                         double prune_rate) const {
  (void)prune_rate;  // no control (Table 2)
  return {StateAs<FixedMaskState>(state, "t-Spanner").keep(), {}};
}

}  // namespace sparsify
