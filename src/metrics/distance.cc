#include "src/metrics/distance.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace sparsify {

std::vector<double> ShortestPathDistances(const Graph& g, NodeId src) {
  return ShortestPathDistances(g, src, LocalTraversalScratch());
}

StretchResult SpspStretch(const Graph& original, const Graph& sparsified,
                          int num_pairs, Rng& rng) {
  StretchResult result;
  const NodeId n = original.NumVertices();
  if (n < 2 || num_pairs <= 0) return result;
  // Group sampled pairs by source so each source costs two SSSP runs.
  int num_sources = std::max(1, num_pairs / 64);
  int pairs_per_source = (num_pairs + num_sources - 1) / num_sources;
  // Every sample is drawn up front in the exact order the sequential loop
  // consumed the stream (the BFS itself is randomness-free), so each
  // source's two SSSP runs are pure and fan out as engine subtasks. The
  // per-source records are folded in source order below, which makes the
  // result bit-identical at any subtask thread count (including none).
  std::vector<NodeId> sources(num_sources);
  std::vector<std::vector<NodeId>> dsts(
      num_sources, std::vector<NodeId>(pairs_per_source));
  for (int s = 0; s < num_sources; ++s) {
    sources[s] = static_cast<NodeId>(rng.NextUint(n));
    for (int i = 0; i < pairs_per_source; ++i) {
      dsts[s][i] = static_cast<NodeId>(rng.NextUint(n));
    }
  }
  struct SourceRecord {
    std::vector<double> stretches;
    int broken = 0;
    int total = 0;
  };
  std::vector<SourceRecord> records(num_sources);
  NestedParallelFor(
      CurrentSubtaskPool(), static_cast<size_t>(num_sources), [&](size_t s) {
        NodeId src = sources[s];
        // One scratch per claiming thread; the original-graph distances
        // are probed into a small per-destination buffer before the
        // sparsified traversal reuses the scratch — never two O(n)
        // distance vectors.
        TraversalScratch& scratch = LocalTraversalScratch();
        Traverse(original, src, scratch);
        std::vector<double> d_orig(dsts[s].size());
        for (size_t i = 0; i < dsts[s].size(); ++i) {
          d_orig[i] = scratch.DistanceOf(dsts[s][i]);
        }
        Traverse(sparsified, src, scratch);
        SourceRecord& rec = records[s];
        for (size_t i = 0; i < dsts[s].size(); ++i) {
          NodeId dst = dsts[s][i];
          if (dst == src || d_orig[i] == kInfDistance) continue;  // excluded
          ++rec.total;
          double ds = scratch.DistanceOf(dst);
          if (ds == kInfDistance) {
            ++rec.broken;
          } else if (d_orig[i] > 0.0) {
            rec.stretches.push_back(ds / d_orig[i]);
          }
        }
      });
  std::vector<double> stretches;
  int broken = 0, total = 0;
  for (const SourceRecord& rec : records) {
    stretches.insert(stretches.end(), rec.stretches.begin(),
                     rec.stretches.end());
    broken += rec.broken;
    total += rec.total;
  }
  result.mean_stretch = Mean(stretches);
  result.unreachable = total > 0 ? static_cast<double>(broken) / total : 0.0;
  result.pairs_evaluated = static_cast<int>(stretches.size());
  return result;
}

double Eccentricity(const Graph& g, NodeId v) {
  // The kernel folds the max into the sweep itself — no distance vector,
  // no O(n) rescan.
  TraversalSummary sum = Traverse(g, v, LocalTraversalScratch());
  // A vertex that reaches nothing but itself has no finite eccentricity.
  return sum.reached <= 1 ? kInfDistance : sum.max_dist;
}

namespace {

// Eccentricity (in Eccentricity's semantics) of every vertex of `sources`.
// Hop counts come from one MultiSourceBfs per 64 sources; weighted graphs
// run one Dijkstra per source. Either way the tasks fan out as engine
// subtasks and each writes only its own slots.
std::vector<double> Eccentricities(const Graph& g,
                                   const std::vector<NodeId>& sources) {
  std::vector<double> ecc(sources.size());
  if (g.IsWeighted()) {
    NestedParallelFor(CurrentSubtaskPool(), sources.size(), [&](size_t s) {
      ecc[s] = Eccentricity(g, sources[s]);
    });
    return ecc;
  }
  const size_t batches =
      (sources.size() + kMaxMultiBfsSources - 1) / kMaxMultiBfsSources;
  NestedParallelFor(CurrentSubtaskPool(), batches, [&](size_t b) {
    const size_t first = b * kMaxMultiBfsSources;
    const size_t k = std::min(kMaxMultiBfsSources, sources.size() - first);
    std::array<MultiBfsStats, kMaxMultiBfsSources> stats;
    MultiSourceBfs(g, std::span(sources.data() + first, k),
                   LocalTraversalScratch(), std::span(stats.data(), k));
    for (size_t i = 0; i < k; ++i) {
      ecc[first + i] = stats[i].reached <= 1
                           ? kInfDistance
                           : static_cast<double>(stats[i].max_level);
    }
  });
  return ecc;
}

}  // namespace

StretchResult EccentricityStretch(const Graph& original,
                                  const Graph& sparsified, int num_sources,
                                  Rng& rng) {
  StretchResult result;
  const NodeId n = original.NumVertices();
  if (n == 0 || num_sources <= 0) return result;
  // Sources are drawn once. A source with an infinite or zero original
  // eccentricity is not counted, and is not traversed on the sparsified
  // graph. The records fold in sample order, so the result does not
  // depend on how the traversals were batched or scheduled.
  std::vector<uint64_t> samples =
      rng.SampleWithoutReplacement(n, std::min<uint64_t>(n, num_sources));
  const std::vector<double> eo =
      Eccentricities(original, std::vector<NodeId>(samples.begin(),
                                                   samples.end()));
  std::vector<NodeId> counted;
  std::vector<double> counted_eo;
  for (size_t s = 0; s < samples.size(); ++s) {
    if (eo[s] == kInfDistance || eo[s] == 0.0) continue;
    counted.push_back(static_cast<NodeId>(samples[s]));
    counted_eo.push_back(eo[s]);
  }
  const std::vector<double> es = Eccentricities(sparsified, counted);
  std::vector<double> stretches;
  int broken = 0;
  const int total = static_cast<int>(counted.size());
  for (size_t i = 0; i < counted.size(); ++i) {
    if (es[i] == kInfDistance) {
      ++broken;
    } else {
      stretches.push_back(es[i] / counted_eo[i]);
    }
  }
  result.mean_stretch = Mean(stretches);
  result.unreachable = total > 0 ? static_cast<double>(broken) / total : 0.0;
  result.pairs_evaluated = static_cast<int>(stretches.size());
  return result;
}

double ApproxDiameter(const Graph& g, int num_seeds, Rng& rng) {
  const NodeId n = g.NumVertices();
  if (n == 0 || num_seeds <= 0) return 0.0;
  // Start vertices are drawn up front (the sweeps consume no randomness,
  // so the stream is unchanged); each seed's sweep chain is sequential by
  // nature but independent of the others, so the seeds fan out as engine
  // subtasks. max() over per-seed bests is order-independent, keeping the
  // result bit-identical to the sequential loop.
  std::vector<NodeId> starts(num_seeds);
  for (int seed = 0; seed < num_seeds; ++seed) {
    starts[seed] = static_cast<NodeId>(rng.NextUint(n));
  }
  std::vector<double> best_of(num_seeds, 0.0);
  NestedParallelFor(
      CurrentSubtaskPool(), static_cast<size_t>(num_seeds), [&](size_t seed) {
        NodeId v = starts[seed];
        TraversalScratch& scratch = LocalTraversalScratch();
        double best = 0.0;
        double prev = -1.0;
        // Iterate: jump to the farthest reachable vertex until no
        // improvement. The kernel summary's (max_dist, farthest) pair is
        // exactly the ascending strict-`>` argmax scan the legacy loop
        // ran over the materialized distance vector.
        for (int it = 0; it < 16; ++it) {
          TraversalSummary sum = Traverse(g, v, scratch);
          best = std::max(best, sum.max_dist);
          if (sum.max_dist <= prev) break;
          prev = sum.max_dist;
          v = sum.farthest;
        }
        best_of[seed] = best;
      });
  double best = 0.0;
  for (double b : best_of) best = std::max(best, b);
  return best;
}

}  // namespace sparsify
