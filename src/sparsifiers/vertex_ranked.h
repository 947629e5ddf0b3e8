// Per-vertex ranked-neighborhood ScoreState, shared by the sparsifiers
// that keep each vertex's top ceil(deg(v)^x) edges under some per-edge
// ranking (Local Degree ranks by neighbor degree, L-Spar by Jaccard
// similarity) and calibrate the exponent x to the requested prune rate.
//
// Scoring sorts every vertex's neighborhood once and converts each edge's
// best rank into an EXPONENT THRESHOLD: an edge at 0-based rank r of a
// degree-d vertex is kept iff d^x > r, i.e. iff x > log(r)/log(d) (rank 0
// is always kept — every vertex keeps at least one edge). The edge's
// threshold is the minimum over its endpoints; sorting the thresholds once
// makes the kept count for any exponent a single binary search, so the
// per-rate exponent calibration costs O(iterations * log |E|) instead of
// ~80 full sort-and-mask passes.
#ifndef SPARSIFY_SPARSIFIERS_VERTEX_RANKED_H_
#define SPARSIFY_SPARSIFIERS_VERTEX_RANKED_H_

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "src/sparsifiers/sparsifier.h"
#include "src/util/cancel.h"

namespace sparsify {

class VertexRankedState : public ScoreState {
 public:
  /// Ranks every vertex's out-neighborhood by `score(v, neighbor, edge)`
  /// descending, ties broken by canonical edge id ascending — the exact
  /// ordering the legacy per-rate implementations produced with their
  /// per-call sorts — then folds the ranks into per-edge exponent
  /// thresholds.
  template <typename ScoreFn>
  VertexRankedState(const Graph& g, ScoreFn&& score) : graph_(&g) {
    const EdgeId m = g.NumEdges();
    // Rank 0 is unconditionally kept: threshold -1 < any x in [0, 1].
    std::vector<double> threshold(m, 2.0);  // 2.0 = not reached yet
    std::vector<std::pair<double, EdgeId>> scratch;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      if ((v & 1023u) == 0) SPARSIFY_CHECK_CANCELLED();
      auto nodes = g.OutNeighborNodes(v);
      auto edges = g.OutNeighborEdges(v);
      if (nodes.empty()) continue;
      scratch.clear();
      for (size_t i = 0; i < nodes.size(); ++i) {
        scratch.emplace_back(score(v, nodes[i], edges[i]), edges[i]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
                });
      double log_deg = std::log(static_cast<double>(scratch.size()));
      for (size_t r = 0; r < scratch.size(); ++r) {
        // Kept iff deg^x > r: always for r == 0, else iff x exceeds
        // log(r)/log(deg) (r < deg implies deg >= 2 here).
        double t = r == 0
                       ? -1.0
                       : std::log(static_cast<double>(r)) / log_deg;
        EdgeId e = scratch[r].second;
        threshold[e] = std::min(threshold[e], t);
      }
    }
    by_threshold_.resize(m);
    std::iota(by_threshold_.begin(), by_threshold_.end(), 0);
    std::sort(by_threshold_.begin(), by_threshold_.end(),
              [&threshold](EdgeId a, EdgeId b) {
                return threshold[a] != threshold[b]
                           ? threshold[a] < threshold[b]
                           : a < b;
              });
    sorted_thresholds_.resize(m);
    for (EdgeId i = 0; i < m; ++i) {
      sorted_thresholds_[i] = threshold[by_threshold_[i]];
    }
  }

  const Graph& graph() const { return *graph_; }

  /// Number of edges kept at exponent `x` (those whose threshold is
  /// strictly below x): one binary search over the sorted thresholds.
  EdgeId CountForExponent(double x) const {
    return static_cast<EdgeId>(
        std::lower_bound(sorted_thresholds_.begin(),
                         sorted_thresholds_.end(), x) -
        sorted_thresholds_.begin());
  }

  /// Builds the keep-mask for exponent `x` into `keep`.
  void FillMaskForExponent(double x, std::vector<uint8_t>* keep) const {
    keep->assign(sorted_thresholds_.size(), 0);
    EdgeId kept = CountForExponent(x);
    for (EdgeId i = 0; i < kept; ++i) (*keep)[by_threshold_[i]] = 1;
  }

 private:
  const Graph* graph_;
  std::vector<double> sorted_thresholds_;  // ascending per-edge thresholds
  std::vector<EdgeId> by_threshold_;       // edge ids in that order
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_VERTEX_RANKED_H_
