// Similarity-based sparsifiers (paper section 2.3.8).
//
// All four algorithms score each edge by a neighborhood-overlap similarity
// of its endpoints and keep high-scoring edges, differing in the score and
// in whether the selection is global or per-vertex:
//
//   G-Spar (GS):           global top edges by Jaccard similarity.
//   SCAN:                  global top edges by SCAN structural similarity
//                          (|N(u) n N(v)| + 1) / sqrt((d(u)+1)(d(v)+1)).
//   L-Spar (LS):           per vertex, top ceil(deg(v)^c) edges by Jaccard
//                          (Satuluri et al.; we compute exact Jaccard via
//                          sorted-CSR intersection instead of min-wise
//                          hashing — see DESIGN.md section 5).
//   Local Similarity (LSim): per endpoint, edges ranked by Jaccard; edge
//                          score = max over endpoints of
//                          1 - log(rank)/log(deg); global top by score
//                          (Hamann et al.).
//
// These preserve local structure and clustering; global variants (GS, SCAN)
// aggressively keep intra-community edges and therefore disconnect graphs
// quickly, which is exactly the behaviour the paper's figures show.
//
// All four score once: the neighborhood intersections (the O(k |E|) part)
// happen in PrepareScores; MaskForRate is a global top-k (GS, SCAN, LSim)
// or a cheap exponent binary search over precomputed per-vertex rankings
// (LS), so a 9-rate sweep pays for the intersections once.
#ifndef SPARSIFY_SPARSIFIERS_SIMILARITY_H_
#define SPARSIFY_SPARSIFIERS_SIMILARITY_H_

#include "src/sparsifiers/sparsifier.h"

namespace sparsify {

/// Exact Jaccard similarity of every canonical edge's endpoint
/// neighborhoods (out-neighborhoods for directed graphs).
std::vector<double> JaccardEdgeScores(const Graph& g);

/// SCAN structural similarity of every canonical edge.
std::vector<double> ScanEdgeScores(const Graph& g);

class GSparSparsifier : public Sparsifier {
 public:
  const SparsifierInfo& Info() const override;
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;
};

class ScanSparsifier : public Sparsifier {
 public:
  const SparsifierInfo& Info() const override;
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;
};

class LSparSparsifier : public Sparsifier {
 public:
  /// With `use_minhash` the per-edge Jaccard scores are estimated by
  /// `num_hashes` min-wise hashes, as in the original Satuluri et al.
  /// algorithm, instead of exact intersection (registered separately as
  /// the "LS-MH" extension variant; see DESIGN.md section 5, decision 2).
  explicit LSparSparsifier(bool use_minhash = false, int num_hashes = 32)
      : use_minhash_(use_minhash), num_hashes_(num_hashes) {}

  const SparsifierInfo& Info() const override;
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;

  /// Single deterministic pass keeping ceil(deg(v)^c) edges per vertex
  /// (always exact-Jaccard).
  Graph SparsifyWithExponent(const Graph& g, double c) const;

 private:
  bool use_minhash_;
  int num_hashes_;
};

class LocalSimilaritySparsifier : public Sparsifier {
 public:
  const SparsifierInfo& Info() const override;
  std::unique_ptr<ScoreState> PrepareScores(const Graph& g,
                                            Rng& rng) const override;
  RateMask MaskForRate(const ScoreState& state,
                       double prune_rate) const override;
};

}  // namespace sparsify

#endif  // SPARSIFY_SPARSIFIERS_SIMILARITY_H_
