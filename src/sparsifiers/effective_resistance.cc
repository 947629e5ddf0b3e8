#include "src/sparsifiers/effective_resistance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "src/linalg/cg.h"
#include "src/util/cancel.h"

namespace sparsify {

std::vector<double> ApproxEffectiveResistances(const Graph& g, Rng& rng,
                                               int jl_dimension, double tol) {
  const size_t n = g.NumVertices();
  const EdgeId m = g.NumEdges();
  int k = jl_dimension > 0
              ? jl_dimension
              : std::max(8, static_cast<int>(std::ceil(
                                8.0 * std::log(std::max<size_t>(2, n)))));
  std::vector<double> resistance(m, 0.0);
  const double inv_sqrt_k = 1.0 / std::sqrt(static_cast<double>(k));
  // scale[e] = sqrt(w_e) / sqrt(k), as its bit pattern. A coin flips its
  // sign bit: negation is exact, so (-q) * sqrt(w_e) == -(q * sqrt(w_e)).
  std::vector<uint64_t> scale(m);
  for (EdgeId e = 0; e < m; ++e) {
    scale[e] = std::bit_cast<uint64_t>(
        inv_sqrt_k * std::sqrt(g.CanonicalEdge(e).w));
  }
  // The k solves run kCgBlockWidth columns at a time; the preconditioner
  // and the solver's scratch are set up once for all of them. b and z
  // share one allocation, like the solver's scratch (see cg.h).
  LaplacianSolver solver(g);
  Vec bz(2 * n * kCgBlockWidth);
  double* b = bz.data();
  double* z = b + n * kCgBlockWidth;
  CgResult results[kCgBlockWidth];
  for (int first = 0; first < k; first += kCgBlockWidth) {
    const int cols = std::min(kCgBlockWidth, k - first);
    const size_t len = n * cols;
    std::fill_n(b, len, 0.0);
    for (int c = 0; c < cols; ++c) {
      SPARSIFY_CHECK_CANCELLED();  // once per JL dimension
      // Column c of b is B^T W^{1/2} q_i (i = first + c) where q_i has
      // +-1/sqrt(k) entries: each edge e contributes q_i[e] * sqrt(w_e) *
      // (e_u - e_v). Each q_i[e] is used once, so it is drawn inline (q_i
      // after q_{i-1}, in edge order) rather than stored; heads are +.
      for (EdgeId e = 0; e < m; ++e) {
        const uint64_t tails = rng.NextBernoulli(0.5) ? 0 : 1;
        const double bc = std::bit_cast<double>(scale[e] ^ (tails << 63));
        const Edge& ed = g.CanonicalEdge(e);
        b[size_t{ed.u} * cols + c] += bc;
        b[size_t{ed.v} * cols + c] -= bc;
      }
    }
    std::fill_n(z, len, 0.0);
    solver.Solve({b, len}, {z, len},
                 {results, static_cast<size_t>(cols)}, tol);
    // Rows i of Z evaluated at the edge endpoints, summed in row order.
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& ed = g.CanonicalEdge(e);
      for (int c = 0; c < cols; ++c) {
        double diff = z[size_t{ed.u} * cols + c] - z[size_t{ed.v} * cols + c];
        resistance[e] += diff * diff;
      }
    }
  }
  return resistance;
}

EffectiveResistanceSparsifier::EffectiveResistanceSparsifier(bool reweight)
    : reweight_(reweight) {
  info_ = SparsifierInfo{
      .name = reweight ? "Effective Resistance (weighted)"
                       : "Effective Resistance (unweighted)",
      .short_name = reweight ? "ER-w" : "ER-uw",
      .supports_directed = false,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = reweight,
      .deterministic = false,
      .complexity = "O(|E| log(|V|)^3)",
  };
}

const SparsifierInfo& EffectiveResistanceSparsifier::Info() const {
  return info_;
}

Graph EffectiveResistanceSparsifier::Sparsify(const Graph& g,
                                              double prune_rate,
                                              Rng& rng) const {
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Effective Resistance requires an undirected graph; symmetrize "
        "first");
  }
  // TargetKeepCount first: an out-of-range rate must throw even when the
  // keep-everything fast path (which also covers m == 0) would apply.
  const EdgeId m = g.NumEdges();
  if (TargetKeepCount(m, prune_rate) >= m) return g;
  return Sparsifier::Sparsify(g, prune_rate, rng);
}

std::unique_ptr<ScoreState> EffectiveResistanceSparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  if (g.IsDirected()) {
    throw std::invalid_argument(
        "Effective Resistance requires an undirected graph; symmetrize "
        "first");
  }
  const EdgeId m = g.NumEdges();
  if (m == 0) {
    return std::make_unique<ErSampleState>(&g, std::vector<EdgeId>{},
                                           std::vector<uint64_t>{},
                                           std::vector<double>{});
  }

  // Sampling probabilities p_e proportional to w_e * R_e (Spielman &
  // Srivastava), computed in place over the resistances. For a connected
  // graph sum_e w_e R_e = n - 1.
  std::vector<double> p = ApproxEffectiveResistances(g, rng);
  double total = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    p[e] = std::max(1e-300, g.EdgeWeight(e) * p[e]);
    total += p[e];
  }
  for (double& pe : p) pe /= total;

  // Sample with replacement until every edge has been hit once, recording
  // the first-hit order and the draw count at each prefix. The draw
  // sequence does not depend on any prune rate, so the first T entries of
  // the order are exactly the distinct set a run stopped at target T would
  // have kept.
  std::vector<double> cum(m);
  double acc = 0.0;
  for (EdgeId e = 0; e < m; ++e) {
    acc += p[e];
    cum[e] = acc;
  }
  // Chen-Asau guide table: guide[j] = lower_bound(cum, threshold(j)) for
  // K = m equal-width buckets of [0, acc). A draw r starts at its bucket,
  // steps down while the bucket's threshold exceeds r (rounding can put it
  // too high), then scans forward while cum[i] < r. Every entry below
  // guide[j] has cum < threshold(j) <= r, so the scan lands exactly where
  // std::lower_bound(cum, r) would, in O(1) expected steps. That holds for
  // any nondecreasing thresholds with threshold(0) = 0, so they are j times
  // a fixed width: a draw does no division and reads no stored threshold
  // (a third random access per draw, which costs more than the multiply).
  const EdgeId buckets = m;
  const double width = acc / static_cast<double>(buckets);
  const auto threshold = [width](EdgeId j) {
    return static_cast<double>(j) * width;
  };
  std::vector<EdgeId> guide(buckets);
  for (EdgeId j = 0, i = 0; j < buckets; ++j) {
    const double t = threshold(j);
    while (i < m && cum[i] < t) ++i;
    guide[j] = i;
  }
  const double bucket_scale = static_cast<double>(buckets) / acc;

  std::vector<bool> hit(m, false);  // one bit per edge
  std::vector<EdgeId> hit_order;
  std::vector<uint64_t> draws_at;
  hit_order.reserve(m);
  // Only ER-w's Horvitz-Thompson weights read draws_at and p.
  if (reweight_) draws_at.reserve(m);
  EdgeId distinct = 0;
  uint64_t draws = 0;
  const uint64_t max_draws = 400ULL * m + 1000000ULL;
  while (distinct < m && draws < max_draws) {
    // Poll rarely: the check must not perturb the RNG stream, and the
    // draw loop is hot.
    if ((draws & 0xFFFFu) == 0) SPARSIFY_CHECK_CANCELLED();
    double r = rng.NextDouble() * acc;
    EdgeId j = static_cast<EdgeId>(
        std::min(r * bucket_scale, static_cast<double>(buckets - 1)));
    while (threshold(j) > r) --j;
    EdgeId e = guide[j];
    while (e < m && cum[e] < r) ++e;
    if (e >= m) e = m - 1;
    ++draws;
    if (!hit[e]) {
      hit[e] = true;
      hit_order.push_back(e);
      if (reweight_) draws_at.push_back(draws);
      ++distinct;
    }
  }
  // Extremely skewed p can stall the race before every edge is hit; top up
  // with the remaining edges by descending probability (ties by id).
  if (distinct < m) {
    std::vector<EdgeId> rest;
    for (EdgeId e = 0; e < m; ++e) {
      if (!hit[e]) rest.push_back(e);
    }
    std::sort(rest.begin(), rest.end(), [&](EdgeId a, EdgeId b) {
      return p[a] != p[b] ? p[a] > p[b] : a < b;
    });
    for (EdgeId e : rest) {
      ++draws;
      hit_order.push_back(e);
      if (reweight_) draws_at.push_back(draws);
    }
  }
  return std::make_unique<ErSampleState>(
      &g, std::move(hit_order), std::move(draws_at),
      reweight_ ? std::move(p) : std::vector<double>{});
}

RateMask EffectiveResistanceSparsifier::MaskForRate(const ScoreState& state,
                                                    double prune_rate) const {
  const auto& er = StateAs<ErSampleState>(state, "Effective Resistance");
  const EdgeId m = static_cast<EdgeId>(er.hit_order().size());
  EdgeId target = TargetKeepCount(m, prune_rate);
  RateMask mask;
  mask.keep.assign(m, 0);
  if (m == 0 || target == 0) return mask;
  if (target >= m) {
    // Keeping everything is the identity: original weights survive even in
    // the reweighted variant (matching the legacy fast path).
    std::fill(mask.keep.begin(), mask.keep.end(), 1);
    return mask;
  }
  for (EdgeId i = 0; i < target; ++i) mask.keep[er.hit_order()[i]] = 1;
  if (!reweight_) return mask;

  // Horvitz-Thompson weights over the with-replacement race: the prefix of
  // `target` distinct edges took s draws, and edge e's chance of being hit
  // within s draws is pi_e = 1 - (1 - p_e)^s; w'_e = w_e / pi_e makes the
  // sparsified Laplacian estimate the original without bias over the
  // sampling marginal.
  const Graph& g = er.graph();
  const uint64_t s = er.draws_at()[target - 1];
  mask.new_weights.assign(m, 0.0);
  for (EdgeId i = 0; i < target; ++i) {
    EdgeId e = er.hit_order()[i];
    double pi = -std::expm1(static_cast<double>(s) *
                            std::log1p(-std::min(er.p()[e], 1.0 - 1e-16)));
    pi = std::clamp(pi, 1e-12, 1.0);
    mask.new_weights[e] = g.EdgeWeight(e) / pi;
  }
  return mask;
}

}  // namespace sparsify
