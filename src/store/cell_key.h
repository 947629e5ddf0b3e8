// Deterministic identity of one grid cell of the paper's N-to-N matrix.
//
// A cell is one (dataset, sparsifier, prune_rate, run) evaluation of one
// metric under one master seed. Two processes that agree on a CellKey and
// the code revision compute bit-identical values (every cell's RNG stream
// derives from grid-shape-independent identities — see src/engine/
// README.md), which is what makes stored results safely reusable across
// runs AND relocatable across differently-shaped grids and shard workers.
#ifndef SPARSIFY_STORE_CELL_KEY_H_
#define SPARSIFY_STORE_CELL_KEY_H_

#include <cstdint>
#include <string>

namespace sparsify {

/// Revision tag of the numeric pipeline. Results stored under a different
/// revision never match a CellKey built by this binary, so stale values are
/// recomputed instead of reused. Bump whenever sparsifier, metric, or RNG
/// semantics change in a way that alters numeric output.
///
/// History:
///   r1  per-cell RNG streams: every cell's sparsify stream derived from
///       (master_seed, grid index).
///   r2  score-once engine: randomized sparsifiers draw their scoring
///       stream from (master_seed, sparsifier, run), shared across the
///       rate axis (BatchRunner::GroupSeed); KN calibrates on fixed keys;
///       RN/ER switched to priority/first-hit sampling with ER-w on
///       Horvitz-Thompson weights. Deterministic sparsifiers are
///       numerically unchanged, but their cells' values are keyed by the
///       same pipeline revision.
///   r3  sparsify-once multi-metric engine: sampled-metric RNG moved off
///       (master_seed, cell index) onto the grid-shape-independent
///       MetricSeed(master_seed, dataset, sparsifier, rate, run, metric)
///       stream (BatchRunner::MetricSeed), so a multi-metric sweep draws
///       bit-identical samples to single-metric sweeps of each of its
///       metrics; sampled betweenness additionally folds its Brandes
///       pivots in fixed batches of 32 (within-metric parallelism).
///       Deterministic (rng-free) metrics are numerically unchanged, but
///       their cells are keyed by the same pipeline revision; r2 cells
///       never satisfy r3 lookups.
///   r4  grid-shape-independent cell identity: the grid_index field was
///       dropped from CellKey (and from the store's canonical index key).
///       Since r3 every RNG stream already derives from stable names —
///       GroupSeed(master_seed, sparsifier, run) for scoring and
///       MetricSeed(master_seed, dataset, sparsifier, rate, run, metric)
///       for metric samples — so the same logical cell computes the SAME
///       bits at any grid position, and keying it by position only forced
///       spurious re-runs under reordered --algos/--rates lists (and
///       under shard workers launched with different grids). r4 values
///       are numerically identical to r3 values; the bump is conservative
///       identity retirement, because an r3 record cannot prove which
///       (possibly pre-r3-keyed) grid shape produced it.
///   r5  two-phase metrics: a metric that reads the original graph only to
///       build a reference (closeness, betweenness, eigenvector, katz,
///       pagerank, f1, degree) prepares it once per (dataset, metric,
///       input graph) in the engine's reference stage instead of once per
///       unit. The sampled references change stream: betweenness's 300
///       reference pivots and f1's reference Louvain run draw from
///       ReferenceSeed(master_seed, dataset, metric) instead of a fork of
///       the unit's MetricSeed stream, so every unit of the metric scores
///       against ONE reference (before, each unit drew its own). The
///       subgraph side still draws from MetricSeed, now without the fork.
///       Deterministic references (closeness, eigenvector, katz,
///       pagerank, degree) and every other metric are numerically
///       identical to r4. ER-uw and ER-w still draw independent resistance
///       estimates; sharing one state between them was left out of this
///       bump.
inline constexpr char kResultCodeRev[] = "r5";

/// Key of one completed grid cell. Field semantics:
///   dataset      caller-chosen graph identity; the CLI encodes the scale
///                too ("ego-Facebook@0.2") because scaled stand-ins are
///                different graphs
///   sparsifier   short name (SparsifierNames)
///   prune_rate   requested rate of the cell's grid entry (0.0 for
///                fixed-output algorithms, mirroring ExpandGrid)
///   run          0-based repeat index
///   master_seed  sweep-level seed the per-cell streams derive from
///   metric       metric registry name
///   code_rev     numeric-pipeline revision (kResultCodeRev)
struct CellKey {
  std::string dataset;
  std::string sparsifier;
  double prune_rate = 0.0;
  int run = 0;
  uint64_t master_seed = 0;
  std::string metric;
  std::string code_rev = kResultCodeRev;

  /// Canonical, human-readable string form of the key. Doubles are
  /// rendered with round-trip precision so equal keys stringify equally.
  /// The store's index uses a packed form with the same identity.
  std::string Canonical() const;

  bool operator==(const CellKey& other) const {
    return Canonical() == other.Canonical();
  }
};

}  // namespace sparsify

#endif  // SPARSIFY_STORE_CELL_KEY_H_
