// Effective Resistance spectral sparsifier (paper section 2.3.9, Spielman &
// Srivastava 2011).
//
// The effective resistance R_e of edge e = (u, v) is (e_u - e_v)^T L^+
// (e_u - e_v). Edges are sampled with probability proportional to w_e R_e;
// the weighted variant reassigns kept edge weights so that the sparsified
// Laplacian estimates the original, which is what makes ER-weighted the
// only sparsifier that preserves the Laplacian quadratic form (paper
// Fig. 3).
//
// Resistances are approximated with the Johnson-Lindenstrauss projection of
// Spielman & Srivastava: R_e ~ ||Z (e_u - e_v)||^2 with Z = Q W^{1/2} B L^+
// and Q a (k x m) random +-1/sqrt(k) matrix; each of the k rows costs one
// Laplacian solve, done here with Jacobi-preconditioned CG (the paper uses
// Laplacians.jl's approxchol solver — see DESIGN.md section 3).
//
// Two-phase split: PrepareScores pays for the k Laplacian solves AND runs
// the with-replacement sampling race once to exhaustion, recording the
// order in which distinct edges are first hit plus the draw count at every
// prefix length. MaskForRate(rho) then keeps the first TargetKeepCount
// edges of the hit order — exactly the set a run stopped at that target
// would have kept, since the draw sequence is target-independent — and the
// weighted variant assigns Horvitz-Thompson weights w_e / pi_e with
// pi_e = 1 - (1 - p_e)^s, the probability of edge e being hit within the
// s draws the prefix took (an unbiased Laplacian estimator over the
// sampling marginal).
//
// Cost model (one PrepareScores, k = ~8 ln n JL rows):
//   - Right-hand sides: k coin flips per edge, each a sign flip of the
//     edge's precomputed sqrt(w_e) / sqrt(k), plus the per-edge resistance
//     sums over the k solutions.
//   - CG: k Laplacian solves, run kCgBlockWidth = 4 at a time by the block
//     CG of src/linalg/cg.h, so each CG iteration reads the edge list once
//     for four rows: O(k/4 * iters * |E|) edge visits, with iters ~ 10 on
//     ego-Facebook.
//   - Race: about 49-118 with-replacement draws per edge until every edge
//     is hit (capped at 400|E| + 10^6). Each draw finds its edge through a
//     Chen-Asau guide table of |E| buckets over the cumulative p, in O(1)
//     expected steps instead of a binary search over |E| entries.
// All three are bit-identical to one scalar solve per row, a std::
// lower_bound per draw and std::mt19937_64 draws: same resistances, same
// RNG stream, same hit order. Single-threaded on a 4-core x86-64 host, one
// PrepareScores on ego-Facebook@1 (22k edges, k = 61) spends ~11-15 ms on
// the right-hand sides, ~20-26 ms in CG and ~31-37 ms in the race; on
// ego-Facebook@5 (110k edges, k = 74) ~66, ~141 and ~327 ms. A coin flip
// or a race draw costs one Rng draw (see src/util/rng.h for its cost).
#ifndef SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_
#define SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_

#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

/// Approximate effective resistance of every canonical edge.
/// `jl_dimension` = number of random projections (0 picks ~8 ln n);
/// `tol` = CG relative tolerance.
std::vector<double> ApproxEffectiveResistances(const Graph& g, Rng& rng,
                                               int jl_dimension = 0,
                                               double tol = 1e-6);

/// ScoreState of the ER family: the exhausted sampling race.
class ErSampleState : public ScoreState {
 public:
  ErSampleState(const Graph* g, std::vector<EdgeId> hit_order,
                std::vector<uint64_t> draws_at, std::vector<double> p)
      : graph_(g),
        hit_order_(std::move(hit_order)),
        draws_at_(std::move(draws_at)),
        p_(std::move(p)) {}

  const Graph& graph() const { return *graph_; }
  /// All |E| edge ids, ordered by first hit in the sampling race (edges
  /// never hit before the draw cap are appended by descending p).
  const std::vector<EdgeId>& hit_order() const { return hit_order_; }
  /// draws_at()[t] = total with-replacement draws made when the (t+1)-th
  /// distinct edge was hit. Empty for ER-uw, whose MaskForRate keeps a
  /// prefix of hit_order() and never reads it.
  const std::vector<uint64_t>& draws_at() const { return draws_at_; }
  /// Normalized sampling probabilities p_e ~ w_e R_e. Empty for ER-uw,
  /// like draws_at().
  const std::vector<double>& p() const { return p_; }

 private:
  const Graph* graph_;
  std::vector<EdgeId> hit_order_;
  std::vector<uint64_t> draws_at_;
  std::vector<double> p_;
};

class EffectiveResistanceSparsifier : public Sparsifier {
 public:
  /// `reweight` selects the ER-weighted variant (Table 2's only
  /// weight-changing sparsifier); false gives ER-unweighted, which keeps
  /// original weights.
  explicit EffectiveResistanceSparsifier(bool reweight);

  const SparsifierInfo& Info() const override;
  /// Throws std::invalid_argument for directed graphs (symmetrize first,
  /// as the paper does in section 4.5).
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;
  /// Keeps the legacy keep-everything fast path: when the target keeps
  /// every edge, returns `g` without paying for the Laplacian solves.
  Graph Sparsify(const Graph& g, double prune_rate, Rng& rng) const override;

 private:
  bool reweight_;
  SparsifierInfo info_;
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_EFFECTIVE_RESISTANCE_H_
