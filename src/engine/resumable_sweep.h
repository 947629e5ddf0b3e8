// Crash-resumable sweep orchestration on top of BatchRunner + ResultStore.
//
// Expands the sweep grid as the (cell × metric) product, looks every unit
// up in a persistent store, submits only the missing units to the engine
// (each cell carrying exactly its missing metric subset, so its subgraph
// is materialized once for all of them), appends each fresh result to the
// store as it completes (flushed per record), and reassembles the full
// per-metric SweepSeries from stored + fresh units. Because every RNG
// stream derives from stable identities (GroupSeed for scoring, MetricSeed
// for metric samples), a resumed sweep is bit-identical to a cold one, and
// a sweep resumed with MORE metrics submits only the new metrics' units.
#ifndef SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_
#define SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "src/engine/batch_runner.h"
#include "src/eval/experiment.h"
#include "src/store/result_store.h"

namespace sparsify {

/// One metric's folded sweep output.
struct MetricSweepSeries {
  std::string metric;
  std::vector<SweepSeries> series;
};

/// Shard-worker configuration for multi-process sweeps (set_shard). The
/// full grid is partitioned into contiguous chunks of cells in task
/// order; chunk c's preferred owner is worker c % total. Each worker
/// claims and runs its preferred chunks first, then (with `steal` on)
/// takes over incomplete chunks whose claimants died — guaranteeing a
/// `kill -9` of any worker loses at most its in-flight units. Because
/// every unit's RNG stream derives from grid-shape-independent
/// identities, any worker recomputes a stolen unit bit-identically.
struct ShardSpec {
  size_t index = 0;  // this worker's 0-based shard id
  size_t total = 1;  // worker count; <= 1 disables sharding
  bool steal = true;  // take over dead workers' chunks
};

/// Scheduling counters of one resumable run — the test/CI hook asserting
/// that a warm store leads to zero submitted units. A "unit" is one
/// (cell, metric) evaluation; for a single-metric sweep units == cells.
/// The inherited BatchRunStats sum what the engine did for the submitted
/// units over all of its runs (failed_units count error records written
/// when a store is attached; cancelled_units were skipped by a SIGINT/
/// SIGTERM or --deadline and are resubmitted by the next --resume).
struct ResumableSweepStats : BatchRunStats {
  size_t total_cells = 0;      // full (cell × metric) product size
  size_t cached_cells = 0;     // units served from the store
  size_t submitted_cells = 0;  // units scheduled on the BatchRunner
  // Sharded scheduling only (set_shard): chunks in the partition, chunks
  // this worker claimed as preferred owner, and chunks it stole from dead
  // workers.
  size_t shard_chunks = 0;
  size_t shard_claimed = 0;
  size_t shard_stolen = 0;
};

/// Sweeps of one dataset graph against a store.
///
/// The store may be null, in which case every unit is computed (a cold,
/// non-persistent run — identical output, nothing written).
class ResumableSweep {
 public:
  /// `code_rev` tags the cell keys (see kResultCodeRev); override it in
  /// tests to isolate stores.
  ResumableSweep(BatchRunner& runner, ResultStore* store,
                 std::string code_rev = kResultCodeRev);

  /// When false, the store is only written, never consulted: every cell is
  /// recomputed and re-appended (last write wins on replay). This is the
  /// CLI's `--store` without `--resume`. Default true.
  void set_reuse_cached(bool reuse) { reuse_cached_ = reuse; }

  /// Per-unit progress callback: invoked as each SUBMITTED (cell, metric)
  /// unit completes, with the running completed count and the submitted
  /// total (cached units are excluded — they were never work). Fires on
  /// worker threads, concurrently; the callback must synchronize its own
  /// state and stay cheap. Drives the CLI's --progress heartbeat.
  using ProgressFn = std::function<void(size_t completed, size_t submitted)>;
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Whole-run cooperative cancellation token (see FaultPolicy::cancel).
  /// When it trips — SIGINT/SIGTERM via the CLI's signal bridge, or a
  /// --deadline — queued units are skipped, in-flight units interrupted
  /// at their next check, completed units are already appended, and
  /// nothing is recorded for the rest: the next --resume picks up where
  /// the cancelled run stopped, bit-identically. Must outlive RunMulti.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Per-(cell, metric) deadline in seconds (0 = off). A unit exceeding
  /// it fails alone with a "deadline" error record; see FaultPolicy.
  void set_unit_timeout(double seconds) { unit_timeout_seconds_ = seconds; }

  /// Runs this sweep as shard `spec.index` of `spec.total` cooperating
  /// worker processes sharing one store directory (implemented in
  /// shard_scheduler.cc). Requires a store; the store is always consulted
  /// (sharding IS resume semantics — each worker runs only units nobody
  /// has completed). With spec.total <= 1 this is a no-op and RunMulti
  /// behaves exactly as unsharded.
  void set_shard(const ShardSpec& spec) { shard_ = spec; }

  /// Runs every metric of `metrics` over the sweep grid of `config` on
  /// `g`, sparsifying each (sparsifier, rate, run) cell exactly once and
  /// evaluating all of the cell's missing metrics on that one subgraph.
  /// `dataset` and the metric names become CellKey fields AND seed the
  /// (cell, metric) RNG streams — callers must pick names that uniquely
  /// identify the graph (include the scale) and the metric functions.
  /// Fresh units are appended to the store as they complete; the returned
  /// per-metric series (in `metrics` order) fold the cached and fresh
  /// units with FoldSweepResults.
  ///
  /// A unit that throws never aborts the sweep: TransientError-classed
  /// failures retry up to kMaxUnitRetries extra attempts (bit-identical
  /// on success — the unit's RNG re-derives from MetricSeed), and a unit
  /// that still fails is left out of its point and recorded in the store
  /// as a typed ERROR record under its CellKey. Error records read back
  /// as missing, so the next resume resubmits exactly the failed units; a
  /// later success overwrites the error (last write wins). A store write
  /// that throws is not a unit failure: it stops the sweep and is
  /// rethrown (an IoError for a filesystem failure).
  std::vector<MetricSweepSeries> RunMulti(
      const Graph& g, const std::string& dataset,
      const std::vector<BatchMetric>& metrics, const SweepConfig& config,
      ResumableSweepStats* stats = nullptr);

 private:
  // One RunMulti call's grid: the cells, each (cell, metric) unit's store
  // key, and the unit results the output series fold.
  struct Grid {
    Grid(const Graph& g, const std::string& dataset,
         const std::vector<BatchMetric>& metrics, const SweepConfig& config,
         const std::string& code_rev);
    CellKey Key(size_t cell, size_t metric) const;
    void Set(size_t cell, size_t metric, double achieved, double value);
    std::vector<MetricSweepSeries> Fold() const;

    const Graph& g;
    const std::string& dataset;
    const std::vector<BatchMetric>& metrics;
    const SweepConfig& config;
    const std::string& code_rev;
    BatchSpec spec;
    std::vector<BatchTask> tasks;                   // ExpandGrid(spec)
    std::vector<std::vector<BatchResult>> results;  // [metric][cell]
    std::atomic<size_t> completed{0};  // units reported to progress_
  };

  // The one missing-unit scan: the cells of [begin, end) with a unit the
  // store lacks, each carrying exactly those metric ids, in grid order.
  // An error record counts as present when `errors_present`, else as
  // missing; `set_found` sets each stored value into `grid`. Without a
  // store to consult (none, or reuse off on an unsharded sweep) every
  // unit is missing and nothing is looked up.
  std::vector<BatchTask> MissingCells(Grid& grid, size_t begin, size_t end,
                                      bool errors_present, bool set_found);

  // Runs `missing` (cells carrying their missing metric ids) on the
  // engine under this sweep's fault policy. Each finished unit lands in
  // `grid` and the store; a failed one becomes an error record. Both
  // report progress against `progress_total`. The engine's counters add
  // into `stats`. The first store write that throws cancels the run and
  // is rethrown once it drains; the unit it lost stays missing.
  void RunUnits(Grid& grid, const std::vector<BatchTask>& missing,
                size_t progress_total, ResumableSweepStats& stats);

  // The multi-process claim/steal scheduler (shard_scheduler.cc); RunMulti
  // delegates here when shard_.total > 1.
  void RunShardedMulti(Grid& grid, ResumableSweepStats& stats);

  BatchRunner& runner_;
  ResultStore* store_;  // not owned; may be null
  std::string code_rev_;
  bool reuse_cached_ = true;
  const CancelToken* cancel_ = nullptr;  // not owned; may be null
  double unit_timeout_seconds_ = 0;
  ProgressFn progress_;
  ShardSpec shard_;
};

}  // namespace sparsify

#endif  // SPARSIFY_ENGINE_RESUMABLE_SWEEP_H_
