#include "src/sparsifiers/random_sparsifier.h"

#include <memory>

#include "src/util/cancel.h"

namespace sparsify {

const SparsifierInfo& RandomSparsifier::Info() const {
  static const SparsifierInfo info{
      .name = "Random",
      .short_name = "RN",
      .supports_directed = true,
      .supports_weighted = true,
      .supports_unconnected = true,
      .prune_rate_control = PruneRateControl::kFine,
      .changes_weights = false,
      .deterministic = false,
      .complexity = "O(rho |E|)",
  };
  return info;
}

std::unique_ptr<ScoreState> RandomSparsifier::PrepareScores(const Graph& g,
                                                            Rng& rng) const {
  std::vector<double> priority(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    if ((e & 4095u) == 0) SPARSIFY_CHECK_CANCELLED();  // draws nothing
    priority[e] = rng.NextDouble();
  }
  return std::make_unique<EdgeScoreState>(std::move(priority));
}

RateMask RandomSparsifier::MaskForRate(const ScoreState& state,
                                       double prune_rate) const {
  return MaskFromScores(StateAs<EdgeScoreState>(state, "Random"), prune_rate);
}

}  // namespace sparsify
