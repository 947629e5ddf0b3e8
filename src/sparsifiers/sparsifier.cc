#include "src/sparsifiers/sparsifier.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "src/sparsifiers/effective_resistance.h"
#include "src/sparsifiers/extensions.h"
#include "src/sparsifiers/forest_fire.h"
#include "src/sparsifiers/k_neighbor.h"
#include "src/sparsifiers/local_degree.h"
#include "src/sparsifiers/random_sparsifier.h"
#include "src/sparsifiers/rank_degree.h"
#include "src/sparsifiers/similarity.h"
#include "src/sparsifiers/spanning_forest.h"
#include "src/sparsifiers/t_spanner.h"

namespace sparsify {

double Sparsifier::AchievedPruneRate(const Graph& original,
                                     const Graph& sparsified) {
  if (original.NumEdges() == 0) return 0.0;
  return 1.0 - static_cast<double>(sparsified.NumEdges()) /
                   static_cast<double>(original.NumEdges());
}

Graph Sparsifier::Sparsify(const Graph& g, double prune_rate,
                           Rng& rng) const {
  // Validate the rate before paying for the scoring phase (rate-free
  // algorithms ignore it entirely, matching their historical behavior).
  if (Info().prune_rate_control != PruneRateControl::kNone) {
    CheckPruneRate(prune_rate);
  }
  std::unique_ptr<ScoreState> state = PrepareScores(g, rng);
  return Apply(g, MaskForRate(*state, prune_rate));
}

Graph Sparsifier::Apply(const Graph& g, const RateMask& mask) {
  if (!mask.new_weights.empty()) {
    return g.ReweightedSubgraph(mask.keep, mask.new_weights);
  }
  return g.Subgraph(mask.keep);
}

RateMask MaskFromScores(const EdgeScoreState& state, double prune_rate) {
  const std::vector<double>& scores = state.scores();
  EdgeId target =
      TargetKeepCount(static_cast<EdgeId>(scores.size()), prune_rate);
  return {KeepTopScoring(scores, target), {}};
}

void CheckPruneRate(double prune_rate) {
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(prune_rate >= 0.0 && prune_rate < 1.0)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", prune_rate);
    throw std::invalid_argument(
        std::string("prune rate must be in [0, 1), got ") + got);
  }
}

EdgeId TargetKeepCount(EdgeId num_edges, double prune_rate) {
  CheckPruneRate(prune_rate);
  double kept = (1.0 - prune_rate) * static_cast<double>(num_edges);
  auto rounded = static_cast<EdgeId>(kept + 0.5);
  return std::min(rounded, num_edges);
}

std::vector<uint8_t> KeepTopScoring(const std::vector<double>& scores,
                                    EdgeId target_keep) {
  const EdgeId m = static_cast<EdgeId>(scores.size());
  std::vector<uint8_t> keep(m, 0);
  if (target_keep == 0) return keep;
  if (target_keep >= m) {
    std::fill(keep.begin(), keep.end(), 1);
    return keep;
  }
  std::vector<EdgeId> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::nth_element(order.begin(), order.begin() + (target_keep - 1),
                   order.end(), [&](EdgeId a, EdgeId b) {
                     return scores[a] != scores[b] ? scores[a] > scores[b]
                                                   : a < b;
                   });
  for (EdgeId i = 0; i < target_keep; ++i) keep[order[i]] = 1;
  return keep;
}

namespace {

using Factory = std::function<std::unique_ptr<Sparsifier>()>;

struct RegistryEntry {
  const char* short_name;
  Factory make;
};

const std::vector<RegistryEntry>& Registry() {
  static const std::vector<RegistryEntry> entries = {
      {"RN", [] { return std::make_unique<RandomSparsifier>(); }},
      {"KN", [] { return std::make_unique<KNeighborSparsifier>(); }},
      {"RD", [] { return std::make_unique<RankDegreeSparsifier>(); }},
      {"LD", [] { return std::make_unique<LocalDegreeSparsifier>(); }},
      {"SF", [] { return std::make_unique<SpanningForestSparsifier>(); }},
      {"SP-3", [] { return std::make_unique<TSpannerSparsifier>(3.0); }},
      {"SP-5", [] { return std::make_unique<TSpannerSparsifier>(5.0); }},
      {"SP-7", [] { return std::make_unique<TSpannerSparsifier>(7.0); }},
      {"FF", [] { return std::make_unique<ForestFireSparsifier>(); }},
      {"LS", [] { return std::make_unique<LSparSparsifier>(); }},
      {"GS", [] { return std::make_unique<GSparSparsifier>(); }},
      {"LSim", [] { return std::make_unique<LocalSimilaritySparsifier>(); }},
      {"SCAN", [] { return std::make_unique<ScanSparsifier>(); }},
      {"ER-uw",
       [] { return std::make_unique<EffectiveResistanceSparsifier>(false); }},
      {"ER-w",
       [] { return std::make_unique<EffectiveResistanceSparsifier>(true); }},
      // Extensions beyond the paper's Table 2 (SparsifierInfo::extension).
      {"TRI", [] { return std::make_unique<TriangleSparsifier>(); }},
      {"SIMM", [] { return std::make_unique<SimmelianSparsifier>(); }},
      {"ALG",
       [] { return std::make_unique<AlgebraicDistanceSparsifier>(); }},
      {"LS-MH",
       [] { return std::make_unique<LSparSparsifier>(/*use_minhash=*/true); }},
  };
  return entries;
}

}  // namespace

std::vector<std::string> SparsifierNames() {
  std::vector<std::string> names;
  for (const RegistryEntry& e : Registry()) names.emplace_back(e.short_name);
  return names;
}

std::unique_ptr<Sparsifier> CreateSparsifier(const std::string& short_name) {
  for (const RegistryEntry& e : Registry()) {
    if (short_name == e.short_name) return e.make();
  }
  throw std::invalid_argument("unknown sparsifier: " + short_name);
}

std::vector<SparsifierInfo> AllSparsifierInfos() {
  std::vector<SparsifierInfo> infos;
  for (const RegistryEntry& e : Registry()) infos.push_back(e.make()->Info());
  return infos;
}

}  // namespace sparsify
