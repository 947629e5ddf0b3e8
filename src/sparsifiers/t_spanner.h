// t-Spanner sparsifier (paper section 2.3.6, greedy algorithm of Althöfer et
// al.): produces a subgraph H such that d_H(u, v) <= t * d_G(u, v) for all
// vertex pairs. Edges are scanned in ascending weight order; an edge (u, v)
// is added only if the current spanner distance between u and v exceeds
// t * w(u, v). Undirected only; no prune-rate control. The spanner is built
// once in PrepareScores; MaskForRate returns it unchanged at every rate.
//
// The partial spanner is one flat adjacency that only grows (vertex v's
// slots are sized by its degree in G), and all query scratch is allocated
// once per PrepareScores. Each edge's distance test takes one of two paths:
//
//  * Unit weights (every unweighted graph): path lengths are hop counts, so
//    d_H(u, v) <= t iff some path of at most floor(t) hops joins u and v.
//    A bidirectional BFS with epoch-stamped visited marks answers that,
//    expanding the smaller frontier and stopping when the sides meet.
//  * Other weights: a bounded unidirectional Dijkstra. It stays
//    unidirectional so every path sum is accumulated from u outwards in the
//    same order, with the same (distance, vertex) heap ties, as the
//    original per-edge Dijkstra: a different summation order could round a
//    sum across t * w(u, v) and flip a keep decision.
//
// Both paths produce keep-masks bit-identical to the original
// implementation, and the scan polls cancellation every 1024 edges.
#ifndef SPARSIFY_SPARSIFIERS_T_SPANNER_H_
#define SPARSIFY_SPARSIFIERS_T_SPANNER_H_

#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

class TSpannerSparsifier : public Sparsifier {
 public:
  /// `t` is the stretch factor (> 1). The paper evaluates t in {3, 5, 7}.
  explicit TSpannerSparsifier(double t);

  const SparsifierInfo& Info() const override;
  /// Throws std::invalid_argument for directed graphs.
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  /// `prune_rate` is ignored (PruneRateControl::kNone).
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;

  double stretch() const { return t_; }

 private:
  double t_;
  SparsifierInfo info_;
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_T_SPANNER_H_
