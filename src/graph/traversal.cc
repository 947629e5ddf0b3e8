#include "src/graph/traversal.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "src/util/cancel.h"

namespace sparsify {

namespace {

// GAP direction-switch parameters (Beamer et al.). Push switches to pull
// when the frontier's out-edge count exceeds 1/kAlpha of the PULL-side
// unexplored arcs (in-arcs of undiscovered vertices — what a pull round
// actually scans); pull returns to push once the frontier shrinks below
// n/kBeta. kGamma is the frontier-size floor: a pull round pays a fixed
// per-undiscovered-vertex scan cost, so the switch additionally requires
// the frontier's out-arc count to be at least 1/kGamma of the
// undiscovered vertex count.
constexpr uint64_t kAlpha = 14;
constexpr uint64_t kBeta = 24;
constexpr uint64_t kGamma = 4;

// Delta-stepping eligibility: fall back to the binary heap when the
// max/mean weight ratio needs more cyclic buckets than this (heavy-tailed
// enough that bucket advances would dominate).
constexpr uint64_t kMaxBuckets = 1 << 12;

inline bool TestBit(const std::vector<uint64_t>& bits, NodeId v) {
  return (bits[v >> 6] >> (v & 63)) & 1u;
}

inline void SetBit(std::vector<uint64_t>& bits, NodeId v) {
  bits[v >> 6] |= uint64_t{1} << (v & 63);
}

// MS-BFS direction switch: a level pulls when kMsAlpha times the
// frontier's out-arcs exceeds what a pull round scans at most — all n
// seen words plus the in-arcs of every vertex some source has not reached
// yet. Early exits are rarer than in single-source pull (a vertex stops
// only once it holds every missing bit, and never when some source cannot
// reach it), hence the small ratio. Of 1, 2, 4 and 8, 2 was the fastest
// overall on ca-AstroPh@0.6 and @2 subgraphs keeping 10-100% of the edges.
constexpr uint64_t kMsAlpha = 2;

// 64 bit-sliced counters: lane i counts the added words that had bit i
// set. slice_[j] holds bit j of every lane's count, so adding a word is a
// ripple carry through the slices (about two steps amortized) rather than
// a loop over its set bits. Counts stay below 2^32 (at most one per
// vertex), so 32 slices suffice.
class LaneCounter {
 public:
  void Add(uint64_t x) {
    int j = 0;
    for (; x != 0; ++j) {
      const uint64_t carry = slice_[j] & x;
      slice_[j] ^= x;
      x = carry;
    }
    top_ = std::max(top_, j);
  }
  uint32_t Count(size_t lane) const {
    uint32_t c = 0;
    for (int j = 0; j < top_; ++j) {
      c |= static_cast<uint32_t>((slice_[j] >> lane) & 1) << j;
    }
    return c;
  }
  void Clear() {
    std::fill_n(slice_, top_, 0);
    top_ = 0;
  }

 private:
  uint64_t slice_[32] = {};
  int top_ = 0;
};

}  // namespace

void TraversalScratch::Begin(NodeId n, bool weighted) {
  if (stamp_.size() < static_cast<size_t>(n)) {
    stamp_.resize(n, 0);
    level_.resize(n, 0);
  }
  if (weighted && dist_.size() < static_cast<size_t>(n)) {
    dist_.resize(n, 0.0);
  }
  weighted_ = weighted;
  if (++epoch_ == 0) {
    // 32-bit epoch wrapped (once per ~4 billion traversals): refill the
    // stamps so stale marks from 4 billion traversals ago cannot alias,
    // and park bits_epoch_ on 0 (epoch_ restarts at 1, so the bitmap can
    // never alias as valid).
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
    bits_epoch_ = 0;
  }
  frontier_.clear();
  next_.clear();
}

void TraversalScratch::EnsureBrandes(const Graph& g) {
  const size_t n = g.NumVertices();
  if (brandes_.size() < n) {
    // New entries start zeroed / unreached; users restore that state for
    // the entries they touch, so this fill happens only on growth.
    brandes_.resize(n);
    brandes_level_.resize(n, kNoLevel);
  }
  order_.clear();
  succ_.clear();
  succ_end_.clear();
  order_.reserve(n);
  succ_end_.reserve(n);
  // Levels rise by one along every DAG arc, so an undirected edge is an
  // arc in at most one direction: the DAG never has more arcs than edges.
  succ_.reserve(g.NumEdges());
}

TraversalSummary BfsLevels(const Graph& g, NodeId src,
                           TraversalScratch& s, BfsMode mode) {
  const NodeId n = g.NumVertices();
  s.Begin(n, /*weighted=*/false);
  TraversalSummary sum;
  s.MarkReached(src);
  s.level_[src] = 0;
  sum.reached = 1;
  s.frontier_.push_back(src);

  // Pull-cost proxy: IN-arcs of still-undiscovered vertices. For
  // undirected graphs InDegree == OutDegree, so this is exactly Beamer's
  // m_u estimate and the trigger below is unchanged from the classic
  // kernel. For directed graphs it measures what a pull round actually
  // scans: vertices that are never reachable keep their in-arcs in the
  // denominator forever, so a push->pull switch that could only waste
  // work stays suppressed (the committed web-Google regression). Each
  // vertex's in-degree is subtracted exactly once, at discovery time (in
  // either direction), so the estimate never drifts across switches.
  const uint64_t total_arcs =
      g.IsDirected() ? g.NumEdges() : 2ull * g.NumEdges();
  uint64_t scout = g.OutDegree(src);  // out-edges of the frontier
  uint64_t pull_arcs =
      total_arcs - std::min<uint64_t>(total_arcs, g.InDegree(src));
  uint32_t depth = 0;                    // level of the current frontier
  uint32_t max_depth = 0;
  NodeId min_at_max = src;
  size_t frontier_count = 1;
  const size_t words = (static_cast<size_t>(n) + 63) / 64;

  while (frontier_count > 0) {
    // Cooperative cancellation at round granularity: one relaxed load
    // per level when no token is armed, so the per-edge loops below stay
    // untouched (the zero-alloc + hybrid-gate benches measure this path).
    SPARSIFY_CHECK_CANCELLED();
    // Switch to pull only when the frontier's out-arc mass exceeds
    // 1/kAlpha of the pull-side scan cost AND the frontier is not tiny
    // relative to the undiscovered region (a pull round pays a fixed
    // per-undiscovered-vertex cost regardless of yield).
    const uint64_t undiscovered = static_cast<uint64_t>(n) - sum.reached;
    const bool pull_pays =
        scout > pull_arcs / kAlpha && scout * kGamma >= undiscovered;
    if (mode == BfsMode::kHybrid && pull_pays) {
      // Pull (bottom-up) rounds: every unreached vertex scans its
      // in-neighbors for a discovered parent, early-exiting at the first
      // hit. On low-diameter graphs the giant middle levels settle after
      // probing a small fraction of the edges. The unreached set is a
      // bitmap: fully-discovered words are skipped 64 vertices at a
      // time, and the parent test is a single bit probe — any discovered
      // in-neighbor of a still-undiscovered vertex is at level == depth
      // exactly (one at level < depth would already have discovered it),
      // so no level load is needed.
      if (s.bits_epoch_ != s.epoch_) {
        // First pull switch of this traversal: stamp the discovered set
        // into the bitmap once, then maintain it incrementally.
        if (s.visited_bits_.size() < words) s.visited_bits_.resize(words);
        std::fill_n(s.visited_bits_.begin(), words, 0);
        for (NodeId v = 0; v < n; ++v) {
          if (s.Reached(v)) SetBit(s.visited_bits_, v);
        }
        s.bits_epoch_ = s.epoch_;
      }
      NodeId awake = 0;
      uint64_t awake_scout = 0;
      do {
        SPARSIFY_CHECK_CANCELLED();  // pull rounds are levels too
        ++sum.pull_rounds;
        awake = 0;
        awake_scout = 0;
        uint64_t awake_in = 0;
        NodeId min_new = kInvalidNode;
        s.next_.clear();
        for (size_t w = 0; w < words; ++w) {
          uint64_t todo = ~s.visited_bits_[w];
          if (w == words - 1 && (n & 63)) {
            todo &= (uint64_t{1} << (n & 63)) - 1;  // mask past-n tail bits
          }
          while (todo != 0) {
            const NodeId v =
                static_cast<NodeId>((w << 6) + std::countr_zero(todo));
            todo &= todo - 1;
            for (NodeId u : g.InNeighborNodes(v)) {
              if (TestBit(s.visited_bits_, u)) {
                s.MarkReached(v);
                s.level_[v] = depth + 1;
                s.next_.push_back(v);
                ++awake;
                awake_scout += g.OutDegree(v);
                awake_in += g.InDegree(v);
                min_new = std::min(min_new, v);
                break;
              }
            }
          }
        }
        // Commit this round's discoveries only after the scan: a bit set
        // mid-round would let a vertex adopt a same-round sibling as
        // parent and land one level too deep.
        for (NodeId v : s.next_) SetBit(s.visited_bits_, v);
        pull_arcs -= std::min(pull_arcs, awake_in);
        if (awake > 0) {
          ++depth;
          sum.reached += awake;
          max_depth = depth;
          min_at_max = min_new;
        }
      } while (awake > 0 && static_cast<uint64_t>(awake) * kBeta >
                                static_cast<uint64_t>(n));
      if (awake == 0) break;  // frontier died inside the pull rounds
      // Frontier shrank below n/kBeta: next_ already holds exactly the
      // last pull level, so resuming push is a swap, not an O(n) rescan.
      std::swap(s.frontier_, s.next_);
      frontier_count = s.frontier_.size();
      scout = awake_scout;
    } else {
      // Push (top-down) round.
      s.next_.clear();
      uint64_t next_scout = 0;
      uint64_t next_in = 0;
      NodeId min_new = kInvalidNode;
      for (NodeId v : s.frontier_) {
        for (NodeId u : g.OutNeighborNodes(v)) {
          if (!s.Reached(u)) {
            s.MarkReached(u);
            s.level_[u] = depth + 1;
            s.next_.push_back(u);
            next_scout += g.OutDegree(u);
            next_in += g.InDegree(u);
            min_new = std::min(min_new, u);
          }
        }
      }
      if (s.bits_epoch_ == s.epoch_) {
        // Keep the pull bitmap coherent across push rounds between pulls.
        for (NodeId u : s.next_) SetBit(s.visited_bits_, u);
      }
      std::swap(s.frontier_, s.next_);
      frontier_count = s.frontier_.size();
      scout = next_scout;
      pull_arcs -= std::min(pull_arcs, next_in);
      if (frontier_count > 0) {
        ++depth;
        sum.reached += static_cast<NodeId>(frontier_count);
        max_depth = depth;
        min_at_max = min_new;
      }
    }
  }
  sum.max_dist = static_cast<double>(max_depth);
  sum.farthest = max_depth > 0 ? min_at_max : src;
  return sum;
}

int MultiSourceBfs(const Graph& g, std::span<const NodeId> sources,
                   TraversalScratch& s, std::span<MultiBfsStats> out) {
  const size_t k = sources.size();
  if (k > kMaxMultiBfsSources || out.size() != k) {
    throw std::invalid_argument(
        "MultiSourceBfs: at most 64 sources, one output slot each");
  }
  if (k == 0) return 0;
  const NodeId n = g.NumVertices();
  if (s.ms_seen_.size() < static_cast<size_t>(n)) {
    s.ms_seen_.resize(n);
    s.ms_frontier_.resize(n);
    s.ms_next_.resize(n);
  }
  std::fill_n(s.ms_seen_.begin(), n, 0);
  std::fill_n(s.ms_frontier_.begin(), n, 0);
  std::fill_n(s.ms_next_.begin(), n, 0);
  uint64_t* seen = s.ms_seen_.data();
  uint64_t* frontier = s.ms_frontier_.data();
  uint64_t* next = s.ms_next_.data();
  // Vertices whose frontier word is non-zero, and those of the level being
  // built: each round touches only these words, so `next` is all-zero
  // again when the round ends.
  std::vector<NodeId>& list = s.frontier_;
  std::vector<NodeId>& next_list = s.next_;
  list.clear();
  next_list.clear();
  const uint64_t full = k == 64 ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
  for (size_t i = 0; i < k; ++i) {
    const NodeId v = sources[i];
    if (frontier[v] == 0) list.push_back(v);
    frontier[v] |= uint64_t{1} << i;
    seen[v] = frontier[v];
    out[i] = {1, 0, 0};
  }
  // Push cost: out-arcs of the frontier. Pull cost: n plus the in-arcs of
  // vertices not yet reached by every source; a vertex's in-arcs leave
  // the sum once, when its seen word fills.
  uint64_t scout = 0;
  uint64_t pull_arcs = g.IsDirected() ? g.NumEdges() : 2ull * g.NumEdges();
  for (NodeId v : list) {
    scout += g.OutDegree(v);
    if (seen[v] == full) pull_arcs -= g.InDegree(v);
  }
  LaneCounter discovered;
  uint32_t depth = 0;
  int pull_rounds = 0;
  while (!list.empty()) {
    SPARSIFY_CHECK_CANCELLED();
    if (scout * kMsAlpha > n + pull_arcs) {
      // Pull: every vertex some source still misses ORs its in-neighbors'
      // frontier words and stops once it holds every missing bit. Writes
      // go to `next`, so no vertex sees a bit from its own level.
      ++pull_rounds;
      for (NodeId u = 0; u < n; ++u) {
        const uint64_t want = full & ~seen[u];
        if (want == 0) continue;
        uint64_t hit = 0;
        for (NodeId v : g.InNeighborNodes(u)) {
          hit |= frontier[v];
          if ((hit & want) == want) break;
        }
        hit &= want;
        if (hit != 0) {
          next[u] = hit;
          seen[u] |= hit;
          next_list.push_back(u);
        }
      }
    } else {
      // Push: each frontier vertex hands its word to its out-neighbors,
      // minus the bits they have seen.
      for (NodeId v : list) {
        const uint64_t f = frontier[v];
        for (NodeId u : g.OutNeighborNodes(v)) {
          const uint64_t hit = f & ~seen[u];
          if (hit == 0) continue;
          if (next[u] == 0) next_list.push_back(u);
          next[u] |= hit;
          seen[u] |= hit;
        }
      }
    }
    for (NodeId v : list) frontier[v] = 0;
    std::swap(frontier, next);
    std::swap(list, next_list);
    next_list.clear();
    ++depth;
    scout = 0;
    for (NodeId u : list) {
      discovered.Add(frontier[u]);
      scout += g.OutDegree(u);
      if (seen[u] == full) pull_arcs -= g.InDegree(u);
    }
    for (size_t i = 0; i < k; ++i) {
      const uint32_t c = discovered.Count(i);
      if (c == 0) continue;
      out[i].reached += c;
      out[i].level_sum += uint64_t{depth} * c;
      out[i].max_level = depth;
    }
    discovered.Clear();
  }
  return pull_rounds;
}

namespace {

// Classic lazy-deletion binary-heap Dijkstra (the pre-delta-stepping
// kernel, kept verbatim as the fallback and differential baseline).
TraversalSummary DijkstraBinaryHeap(const Graph& g, NodeId src,
                                    TraversalScratch& s) {
  const NodeId n = g.NumVertices();
  s.Begin(n, /*weighted=*/true);
  TraversalSummary sum;
  s.MarkReached(src);
  s.dist_[src] = 0.0;
  sum.reached = 1;
  s.heap_.clear();
  s.heap_.emplace_back(0.0, src);
  double max_dist = 0.0;
  NodeId farthest = src;
  const auto cmp = std::greater<std::pair<double, NodeId>>();
  uint32_t pops = 0;  // cancellation poll cadence: every 4096 pops
  while (!s.heap_.empty()) {
    if ((++pops & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
    std::pop_heap(s.heap_.begin(), s.heap_.end(), cmp);
    auto [d, v] = s.heap_.back();
    s.heap_.pop_back();
    if (d > s.dist_[v]) continue;  // stale heap entry
    if (v != src) {
      // Lowest-id argmax, matching an ascending strict-`>` scan.
      if (d > max_dist) {
        max_dist = d;
        farthest = v;
      } else if (d == max_dist && max_dist > 0.0 && v < farthest) {
        farthest = v;
      }
    }
    auto nodes = g.OutNeighborNodes(v);
    auto edges = g.OutNeighborEdges(v);
    for (size_t i = 0; i < nodes.size(); ++i) {
      NodeId u = nodes[i];
      double nd = d + g.EdgeWeight(edges[i]);
      if (!s.Reached(u)) {
        s.MarkReached(u);
        ++sum.reached;
      } else if (nd >= s.dist_[u]) {
        continue;
      }
      s.dist_[u] = nd;
      s.heap_.emplace_back(nd, u);
      std::push_heap(s.heap_.begin(), s.heap_.end(), cmp);
    }
  }
  sum.max_dist = max_dist;
  sum.farthest = farthest;
  return sum;
}

// Delta-stepping bucket-queue Dijkstra (Meyer & Sanders). Buckets are a
// cyclic array of width `delta` (the mean edge weight — Dial's algorithm
// when weights are uniform); entries are bare vertex ids with lazy
// deletion: an entry popped from bucket k whose CURRENT distance no
// longer maps to bucket k is stale and skipped. While bucket k drains,
// every relaxation candidate is d + w >= k*delta, so nothing is ever
// inserted below the bucket being drained and vertices settle in bucket
// order. Distances are bit-identical to the binary heap: both converge to
// the unique fixed point dist(u) = min over in-edges (dist(p) + w), and
// the surviving value is the min over the same candidate sums (every
// parent is eventually processed at its final distance, and larger
// intermediate candidates are overwritten by strict improvement).
TraversalSummary DijkstraDeltaStepping(const Graph& g, NodeId src,
                                       TraversalScratch& s, double inv_delta,
                                       uint64_t num_buckets) {
  const NodeId n = g.NumVertices();
  s.Begin(n, /*weighted=*/true);
  TraversalSummary sum;
  s.MarkReached(src);
  s.dist_[src] = 0.0;
  sum.reached = 1;
  s.reached_order_.clear();
  s.reached_order_.push_back(src);
  if (s.buckets_.size() < num_buckets) s.buckets_.resize(num_buckets);
  for (uint64_t b = 0; b < num_buckets; ++b) s.buckets_[b].clear();
  s.buckets_[0].push_back(src);
  size_t pending = 1;
  uint64_t k = 0;  // absolute index of the bucket being drained
  uint32_t pops = 0;  // cancellation poll cadence: every 4096 pops
  while (pending > 0) {
    SPARSIFY_CHECK_CANCELLED();  // once per bucket advance
    auto& bucket = s.buckets_[k % num_buckets];
    while (!bucket.empty()) {
      if ((++pops & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();
      const NodeId v = bucket.back();
      bucket.pop_back();
      --pending;
      const double d = s.dist_[v];
      if (static_cast<uint64_t>(d * inv_delta) != k) continue;  // stale
      auto nodes = g.OutNeighborNodes(v);
      auto edges = g.OutNeighborEdges(v);
      for (size_t i = 0; i < nodes.size(); ++i) {
        const NodeId u = nodes[i];
        const double nd = d + g.EdgeWeight(edges[i]);
        if (!s.Reached(u)) {
          s.MarkReached(u);
          ++sum.reached;
          s.reached_order_.push_back(u);
        } else if (nd >= s.dist_[u]) {
          continue;
        }
        s.dist_[u] = nd;
        s.buckets_[static_cast<uint64_t>(nd * inv_delta) % num_buckets]
            .push_back(u);
        ++pending;
      }
    }
    // All pending entries live within one cyclic span of the array, so
    // the next non-empty bucket is at most num_buckets advances away.
    ++k;
  }
  // Summary fold over the discovery-order list. Every member of
  // reached_order_ holds its final distance here, so the (max,
  // lowest-id-at-max) fold is order-independent and matches the
  // ascending strict-`>` scan the heap path folds inline.
  double max_dist = 0.0;
  NodeId farthest = src;
  for (NodeId v : s.reached_order_) {
    if (v == src) continue;
    const double d = s.dist_[v];
    if (d > max_dist) {
      max_dist = d;
      farthest = v;
    } else if (d == max_dist && max_dist > 0.0 && v < farthest) {
      farthest = v;
    }
  }
  sum.max_dist = max_dist;
  sum.farthest = farthest;
  return sum;
}

}  // namespace

TraversalSummary DijkstraDistances(const Graph& g, NodeId src,
                                   TraversalScratch& s, SsspMode mode) {
  if (mode != SsspMode::kBinaryHeap && g.NumEdges() > 0) {
    // One stats pass decides eligibility and the bucket width. delta is
    // the mean edge weight; the cyclic array must cover the current
    // bucket plus the widest single relaxation (max_w / delta buckets).
    double total = 0.0;
    double max_w = 0.0;
    double min_w = kInfDistance;
    for (const Edge& e : g.Edges()) {
      total += e.w;
      max_w = std::max(max_w, e.w);
      min_w = std::min(min_w, e.w);
    }
    // Bucket width: a fraction of the mean weight. Width == mean makes
    // most edges intra-bucket ("light") and every light relaxation can
    // reprocess its target within the same bucket phase; mean/8 pushes
    // the bulk of relaxations into future buckets while keeping the
    // cyclic array small (8 * max/mean + 2 slots).
    const double delta =
        total / static_cast<double>(g.NumEdges()) * 0.125;
    if (std::isfinite(max_w) && min_w >= 0.0 && delta > 0.0 &&
        std::isfinite(delta)) {
      const uint64_t num_buckets =
          static_cast<uint64_t>(max_w / delta) + 2;
      if (num_buckets <= kMaxBuckets) {
        return DijkstraDeltaStepping(g, src, s, 1.0 / delta, num_buckets);
      }
    }
    // Degenerate weights (non-positive mean, non-finite, or a max/mean
    // ratio that would make bucket advances dominate): binary heap, even
    // when delta-stepping was requested explicitly.
  }
  return DijkstraBinaryHeap(g, src, s);
}

TraversalSummary Traverse(const Graph& g, NodeId src,
                          TraversalScratch& scratch, BfsMode mode) {
  return g.IsWeighted() ? DijkstraDistances(g, src, scratch)
                        : BfsLevels(g, src, scratch, mode);
}

std::vector<double> ShortestPathDistances(const Graph& g, NodeId src,
                                          TraversalScratch& scratch) {
  Traverse(g, src, scratch);
  const NodeId n = g.NumVertices();
  std::vector<double> dist(n);
  for (NodeId v = 0; v < n; ++v) dist[v] = scratch.DistanceOf(v);
  return dist;
}

TraversalScratch& LocalTraversalScratch() {
  static thread_local TraversalScratch scratch;
  return scratch;
}

}  // namespace sparsify
