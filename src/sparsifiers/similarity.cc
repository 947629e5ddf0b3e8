#include "src/sparsifiers/similarity.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/sparsifiers/minhash.h"
#include "src/sparsifiers/vertex_ranked.h"
#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Per-vertex Jaccard ranking: the ScoreState shared by L-Spar's exact and
// min-hash variants.
std::unique_ptr<ScoreState> RankByJaccard(const Graph& g,
                                          const std::vector<double>& jac) {
  return std::make_unique<VertexRankedState>(
      g, [&jac](NodeId, NodeId, EdgeId e) { return jac[e]; });
}

}  // namespace

std::vector<double> JaccardEdgeScores(const Graph& g) {
  std::vector<double> scores(g.NumEdges(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& ed = g.CanonicalEdge(e);
    auto nu = g.OutNeighborNodes(ed.u);
    auto nv = g.OutNeighborNodes(ed.v);
    size_t inter = SortedIntersectionSize(nu, nv);
    size_t uni = nu.size() + nv.size() - inter;
    scores[e] = uni > 0 ? static_cast<double>(inter) / uni : 0.0;
  }
  return scores;
}

std::vector<double> ScanEdgeScores(const Graph& g) {
  std::vector<double> scores(g.NumEdges(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    const Edge& ed = g.CanonicalEdge(e);
    auto nu = g.OutNeighborNodes(ed.u);
    auto nv = g.OutNeighborNodes(ed.v);
    double inter = static_cast<double>(SortedIntersectionSize(nu, nv));
    scores[e] = (inter + 1.0) /
                std::sqrt((nu.size() + 1.0) * (nv.size() + 1.0));
  }
  return scores;
}

// --------------------------------------------------------------------------
// G-Spar

const SparsifierInfo& GSparSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "G-Spar",
      .short_name = "GS",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(k |E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> GSparSparsifier::PrepareScores(const Graph& g,
                                                           Rng& rng) const {
  (void)rng;  // deterministic
  return std::make_unique<EdgeScoreState>(JaccardEdgeScores(g));
}

RateMask GSparSparsifier::MaskForRate(const ScoreState& state,
                                      double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "G-Spar"), prune_rate);
}

// --------------------------------------------------------------------------
// SCAN

const SparsifierInfo& ScanSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "SCAN",
      .short_name = "SCAN",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> ScanSparsifier::PrepareScores(const Graph& g,
                                                          Rng& rng) const {
  (void)rng;  // deterministic
  return std::make_unique<EdgeScoreState>(ScanEdgeScores(g));
}

RateMask ScanSparsifier::MaskForRate(const ScoreState& state,
                                     double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "SCAN"), prune_rate);
}

// --------------------------------------------------------------------------
// L-Spar

const SparsifierInfo& LSparSparsifier::Info() const {
  static const SparsifierInfo exact_info{
      .name = "L-Spar",
      .short_name = "LS",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kConstrained,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(k |E|)",
  };
  static const SparsifierInfo minhash_info{
      .name = "L-Spar (min-wise hashing)",
      .short_name = "LS-MH",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kConstrained,
      .changes_weights = false,
      .deterministic = false,  // hash salts are drawn from the rng
      .complexity = "O(k |E|)",
      .extension = true,
  };
  return use_minhash_ ? minhash_info : exact_info;
}

std::unique_ptr<ScoreState> LSparSparsifier::PrepareScores(const Graph& g,
                                                           Rng& rng) const {
  std::vector<double> jac = use_minhash_
                                ? MinHashJaccardEdgeScores(g, num_hashes_, rng)
                                : JaccardEdgeScores(g);
  return RankByJaccard(g, jac);
}

RateMask LSparSparsifier::MaskForRate(const ScoreState& state,
                                      double prune_rate) const {
  const auto& ranked = StateAs<VertexRankedState>(state, "L-Spar");
  const Graph& g = ranked.graph();
  EdgeId target = TargetKeepCount(g.NumEdges(), prune_rate);
  double lo = 0.0, hi = 1.0;
  EdgeId clo = 0;
  bool have_clo = false;
  for (int it = 0; it < 40; ++it) {
    double mid = 0.5 * (lo + hi);
    EdgeId count = ranked.CountForExponent(mid);
    if (count >= target) {
      hi = mid;
    } else {
      lo = mid;
      clo = count;
      have_clo = true;
    }
  }
  if (!have_clo) clo = ranked.CountForExponent(lo);
  double c = clo >= target ? lo : hi;
  RateMask mask;
  ranked.FillMaskForExponent(c, &mask.keep);
  return mask;
}

Graph LSparSparsifier::SparsifyWithExponent(const Graph& g, double c) const {
  std::vector<double> jac = JaccardEdgeScores(g);
  auto state = RankByJaccard(g, jac);
  RateMask mask;
  StateAs<VertexRankedState>(*state, "L-Spar")
      .FillMaskForExponent(c, &mask.keep);
  return g.Subgraph(mask.keep);
}

// --------------------------------------------------------------------------
// Local Similarity

const SparsifierInfo& LocalSimilaritySparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Local Similarity",
      .short_name = "LSim",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = true,
      .complexity = "O(|E| log |E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> LocalSimilaritySparsifier::PrepareScores(
    const Graph& g, Rng& rng) const {
  (void)rng;  // deterministic
  std::vector<double> jac = JaccardEdgeScores(g);
  // score(e) = max over endpoints v of 1 - log(rank_v(e)) / log(deg(v)):
  // the edge's best local-rank position, normalized per vertex.
  std::vector<double> score(g.NumEdges(), 0.0);
  std::vector<std::pair<double, EdgeId>> ranked;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
    auto nbrs = g.OutNeighborEdges(v);
    if (nbrs.empty()) continue;
    ranked.clear();
    for (EdgeId e : nbrs) ranked.emplace_back(jac[e], e);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    double logdeg = std::log(static_cast<double>(nbrs.size()) + 1.0);
    for (size_t r = 0; r < ranked.size(); ++r) {
      double s = 1.0 - std::log(static_cast<double>(r + 1)) / logdeg;
      score[ranked[r].second] = std::max(score[ranked[r].second], s);
    }
  }
  return std::make_unique<EdgeScoreState>(std::move(score));
}

RateMask LocalSimilaritySparsifier::MaskForRate(const ScoreState& state,
                                                double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Local Similarity"),
                        prune_rate);
}

}  // namespace sparsify
