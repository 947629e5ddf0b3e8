// Parallel batch-sparsification engine.
//
// Expands an {algorithm x prune_rate x run} grid over one shared immutable
// Graph and evaluates every cell concurrently on a ThreadPool. Work is
// shared along two axes:
//   - the RATE axis: cells are grouped by (sparsifier, run), each group's
//     expensive ScoreState (degree rankings, similarity scores, effective
//     resistances) is computed ONCE, and the rate cells fan out as
//     near-free MaskForRate tasks;
//   - the METRIC axis: each cell's sparsified Subgraph is materialized
//     ONCE, and the cell's metrics fan out as independent evaluation units
//     over the shared read-only subgraph (RunTasksMulti);
//   - the REFERENCE axis: a two-phase metric's full-graph reference
//     (ranking, clustering, histogram) is prepared ONCE per input graph
//     and shared read-only by every unit of that metric.
// Every RNG stream derives from a stable identity — group scoring from
// (master_seed, sparsifier, run), each reference from (master_seed,
// dataset, metric) and each (cell, metric) unit from
// (master_seed, dataset, sparsifier, rate, run, metric) — so the numeric
// output is bit-identical at any thread count, for any submitted subset of
// the grid, and for any metric-set composition. See README.md in this
// directory for the design rationale.
#ifndef SPARSIFY_ENGINE_BATCH_RUNNER_H_
#define SPARSIFY_ENGINE_BATCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/sparsifiers/sparsifier.h"
#include "src/util/cancel.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace sparsify {

/// One-call metric evaluated on (original, sparsified). Each evaluation
/// receives its own seeded rng stream so sampled metrics are reproducible.
using BatchMetricFn =
    std::function<double(const Graph& original, const Graph& sparsified,
                         Rng& rng)>;

/// The per-unit half of a two-phase metric: scores one sparsified graph
/// against the reference its prepare phase captured. Units call it
/// concurrently, so it must not mutate what it captured.
using MetricEvaluator =
    std::function<double(const Graph& sparsified, Rng& rng)>;

/// The reference half of a two-phase metric: reads `original` once and
/// returns the evaluator every unit over that input calls. `ref_rng` is the
/// metric's reference stream (BatchRunner::ReferenceSeed).
using MetricPrepareFn =
    std::function<MetricEvaluator(const Graph& original, Rng& ref_rng)>;

/// One named metric of a multi-metric run. The name participates in each
/// (cell, metric) unit's RNG stream (MetricSeed) and is what a result
/// store keys cells by, so it must be the stable registry name of the
/// computation — not a display label.
///
/// A metric sets exactly one of two forms. A one-call metric sets `fn`,
/// which every unit calls on (original, sparsified). A metric that reads
/// `original` only to build a reference (a full-graph ranking, clustering
/// or histogram) sets `prepare` instead: the engine runs it once per
/// (metric, input graph) as a `reference` stage, and every unit calls the
/// evaluator it returned.
///
/// Thread-safety contract (audited in tests/test_multi_metric.cc): the
/// engine invokes `fn` and the evaluators from multiple worker threads at
/// once — concurrently across cells AND, in a multi-metric sweep,
/// concurrently with the cell's other metrics on the same shared subgraph.
/// They must not mutate state shared between invocations without
/// synchronization (capture by value, use thread_local scratch, or run on
/// a one-thread BatchRunner). During an engine-run evaluation
/// CurrentSubtaskPool() exposes the worker pool, so a metric may fan its
/// independent per-source work out via NestedParallelFor — such subtasks
/// must write disjoint slots and fold in a FIXED order (never by thread
/// count) to keep results bit-identical at any parallelism; see
/// ApproxBetweennessCentrality's fixed-batch partials for the pattern.
struct BatchMetric {
  std::string name;
  BatchMetricFn fn;
  MetricPrepareFn prepare;
};

/// Evaluates `metric` on one (original, sparsified) pair outside the
/// engine. A two-phase metric prepares its reference from `rng.Fork()`,
/// then evaluates with `rng`, which is what the per-cell form of the
/// sampled references did.
double EvaluateMetric(const BatchMetric& metric, const Graph& original,
                      const Graph& sparsified, Rng& rng);

/// One expanded cell of the grid.
struct BatchTask {
  uint64_t index = 0;        // position in the expanded grid
  std::string sparsifier;    // short name (see SparsifierNames)
  double prune_rate = 0.0;   // requested rate passed to MaskForRate
  int run = 0;               // 0-based repeat index for this cell
  // Indices into RunTasksMulti's metric list to evaluate on this cell;
  // empty means every metric. The resumable sweep submits the per-cell
  // subset missing from its store. Ids must be distinct and in range.
  std::vector<uint32_t> metrics;
};

/// One metric's slot on one grid cell: the input FoldSweepResults folds
/// into series. A unit that failed or was cancelled keeps its task but no
/// value, and its point leaves it out.
struct BatchResult {
  BatchTask task;
  bool has_value = false;
  double achieved_prune_rate = 0.0;  // valid only with has_value
  double value = 0.0;                // metric output; valid only with has_value
};

/// Grid specification. Expansion mirrors the paper's sweep protocol:
/// deterministic sparsifiers contribute one run per rate regardless of
/// `runs`, and sparsifiers without prune-rate control (SF, SP-t) collapse
/// the rate axis to a single entry.
struct BatchSpec {
  std::vector<std::string> sparsifiers;  // short names; empty = all
  std::vector<double> prune_rates = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9};
  int runs = 1;              // repeats per non-deterministic sparsifier
  uint64_t master_seed = 42;
};

/// Scheduling counters of one RunTasksMulti call: how much work the
/// rate-axis (scoring), reference and metric-axis (subgraph) sharing saved,
/// and where the time went. score_groups, reference_stages and
/// subgraph_builds count the stages that actually ran (one per
/// score_group/reference/subgraph span), so a cancelled or failed run
/// reports only work it did. The timings are
/// summed stage durations across workers (single-threaded they equal wall
/// clock).
struct BatchRunStats {
  size_t cells = 0;            // tasks submitted
  size_t metric_units = 0;     // (cell, metric) evaluations scheduled
  size_t score_groups = 0;     // PrepareScores computations run
  size_t reference_stages = 0;  // two-phase metric references prepared
  size_t subgraph_builds = 0;  // sparsified subgraphs built (at most cells;
                               // the banner contrasts it with metric_units)
  size_t failed_units = 0;     // units that ended in failure
  size_t transient_failed_units = 0;  // failed_units whose final class was
                                      // "transient" (retries exhausted)
  size_t deadline_exceeded_units = 0;  // failed_units whose final class was
                                       // "deadline" (a stage timeout)
  size_t cancelled_units = 0;  // units skipped or interrupted by run-level
                               // cancellation: NOT failures, nothing is
                               // recorded, a resume resubmits them
  size_t retried_units = 0;    // transient-failure retries performed
  double score_seconds = 0;     // summed PrepareScores durations
  double reference_seconds = 0;  // summed reference-stage durations
  double subgraph_seconds = 0;  // summed mask + Apply durations
  double metric_seconds = 0;    // summed metric evaluation durations

  /// Adds another run's counters and timings (a sweep spanning runs).
  BatchRunStats& operator+=(const BatchRunStats& other);
};

/// Extra attempts a transiently failing metric unit gets (FaultPolicy).
inline constexpr int kMaxUnitRetries = 2;

/// How RunTasksMulti treats failures inside units of work. Every stage
/// (score group, reference, subgraph, metric unit) classifies what it
/// caught the same way: "transient" (TransientError), "deadline" (the
/// stage ran past stage_timeout_seconds), "cancelled" (a CancelledError
/// while the run is NOT cancelled) or "permanent" (anything else); a
/// cancellation of the run itself is no failure at all. A failing unit
/// never sinks its siblings: a metric unit's transient failures are
/// retried up to kMaxUnitRetries extra attempts with capped exponential
/// backoff (the unit's Rng is re-created from MetricSeed each attempt, so
/// a retried success is bit-identical to a first-try success); anything
/// else — and transient failures that exhaust their retries — is reported
/// through `on_unit_failure`, and the rest of the batch runs to
/// completion. A score-group or subgraph failure fails that cell's (or
/// group's cells') units without retry, and a reference failure fails its
/// metric's units on that input the same way, since re-running scoring
/// wholesale is what a resumed sweep is for.
struct FaultPolicy {
  /// Invoked once per failed unit, from the worker thread
  /// (concurrently across workers — must synchronize like the result
  /// callback), with one of the classes above.
  std::function<void(const BatchTask& task, uint32_t metric,
                     const std::string& error_class,
                     const std::string& error_message, int attempts)>
      on_unit_failure;
  /// Whole-run cooperative cancellation. When the token trips, queued
  /// work is skipped and in-flight units are interrupted at their next
  /// check; affected units are counted as cancelled_units, NOT failures,
  /// and nothing is recorded for them (a resumed sweep resubmits them).
  /// Must outlive the run. Null = no run-level cancellation.
  const CancelToken* cancel = nullptr;
  /// Deadline of every stage in seconds (0 = none): each reference,
  /// score group, subgraph build and metric unit attempt gets a fresh
  /// one on its own token. A stage that exceeds it fails alone with
  /// error_class "deadline" (no retry — the same computation would time
  /// out again), its message names the stage, its detail and the budget
  /// ("score_group LD: stage timeout 1s"), and the rest of the batch
  /// completes.
  double stage_timeout_seconds = 0;
};

/// Evaluates batch grids on a fixed-size thread pool.
///
/// The input Graph is shared read-only across all workers (Graph is
/// immutable after construction); each group creates its own Sparsifier
/// instance and ScoreState, each cell forks private Rng streams, and
/// MaskForRate is const and re-entrant, so no worker state is shared.
class BatchRunner {
 public:
  /// `num_threads` <= 0 selects the hardware concurrency.
  explicit BatchRunner(int num_threads = 0);
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  int NumThreads() const;

  /// The pool's busy time (ThreadPool::BusySeconds). `sparsify_cli
  /// profile` derives utilization as busy / (wall x NumThreads()).
  double PoolBusySeconds() const;

  /// Zeroes the pool's busy time so a profile run measures only itself.
  void ResetPoolBusySeconds();

  /// Expands `spec` into the task grid. Deterministic and thread-free;
  /// exposed so callers can inspect or shard the grid. Throws
  /// std::invalid_argument if any prune rate is outside [0, 1) or NaN.
  static std::vector<BatchTask> ExpandGrid(const BatchSpec& spec);

  /// Seed of the shared scoring stream of group (sparsifier, run) under
  /// `master_seed`. Depends only on these three values — not on the grid
  /// shape or on which cells are submitted — so a subset run prepares
  /// bit-identical ScoreStates to the full grid's.
  static uint64_t GroupSeed(uint64_t master_seed,
                            const std::string& sparsifier, int run);

  /// Seed of one (cell, metric) evaluation unit. Depends only on the
  /// listed identities — not on the grid shape, the submitted subset, or
  /// which OTHER metrics are evaluated on the cell — so a multi-metric run
  /// draws bit-identical metric samples to a single-metric run of each of
  /// its metrics, which is what makes their store cells interchangeable.
  static uint64_t MetricSeed(uint64_t master_seed, const std::string& dataset,
                             const std::string& sparsifier, double prune_rate,
                             int run, const std::string& metric);

  /// Seed of the reference stream of two-phase metric `metric` on
  /// `dataset`. It names no cell, so every unit of the metric scores
  /// against one reference, and a subset run, another thread count, shard
  /// layout or metric set prepares the same one.
  static uint64_t ReferenceSeed(uint64_t master_seed,
                                const std::string& dataset,
                                const std::string& metric);

  /// Invoked as each (cell, metric) unit finishes, from the worker thread
  /// that ran it (concurrently across workers — the callback must
  /// synchronize its own state). `task` is the unit's element of the
  /// submitted `tasks`; `metric` indexes the metric list.
  using MetricResultCallback =
      std::function<void(const BatchTask& task, double achieved_prune_rate,
                         uint32_t metric, double value)>;

  /// Multi-metric task runner: materializes each task's sparsified
  /// Subgraph exactly once and fans the task's metrics out as independent
  /// units of work on the pool. Pipelined like the score→mask sharing:
  /// the moment a cell's subgraph lands its metric units jump the queue
  /// (SubmitUrgent) and the last unit frees the subgraph, so peak subgraph
  /// residency stays bounded by the cells in flight, not the grid.
  ///
  /// Two-phase metrics add a `reference` stage per (metric, input graph)
  /// that some submitted unit needs, so a fully cached resume runs none.
  /// Reference stages are queued ahead of the score groups; a unit whose
  /// reference has not landed yet parks on it (no worker waits) and is
  /// submitted the moment it lands.
  ///
  /// `dataset` is the caller's stable graph identity (the store's dataset
  /// key, e.g. "ego-Facebook@0.5"); it only feeds MetricSeed and
  /// ReferenceSeed. Each unit's
  /// metric RNG stream derives from MetricSeed(master_seed, dataset,
  /// sparsifier, rate, run, metric-name), so values are bit-identical at
  /// any thread count, for any submitted subset, and for any metric-set
  /// composition — a {a,b} run computes exactly the {a}-run and {b}-run
  /// values. During each evaluation the engine's pool is exposed as
  /// CurrentSubtaskPool(), so sampled metrics fan their BFS batches out as
  /// subtasks (see BatchMetric's thread-safety contract).
  ///
  /// When `g` is directed, sparsifiers whose SparsifierInfo does not
  /// support directed input receive the symmetrized graph (computed once,
  /// shared), and their metrics' `original` — and so the reference a
  /// two-phase metric prepares for them — is then also the symmetrized
  /// graph (paper sections 3.1, 4.5). Concurrent calls on one runner
  /// serialize (the pool's completion tracking is batch-global).
  ///
  /// Every requested unit (task.metrics; empty = all) ends exactly once:
  /// with a value through `on_result`, as a failure through
  /// `faults.on_unit_failure`, or as cancelled when `faults.cancel` trips
  /// (counted, never reported). Returns the run's counters. Throws
  /// std::invalid_argument, before any work starts, when `metrics` is
  /// empty or a task names an out-of-range metric id. An exception that
  /// escapes `on_result` or `on_unit_failure` (a failed store append) is
  /// not a unit failure: it is rethrown once the pool drains.
  BatchRunStats RunTasksMulti(const Graph& g, const std::string& dataset,
                              const std::vector<BatchTask>& tasks,
                              uint64_t master_seed,
                              const std::vector<BatchMetric>& metrics,
                              const MetricResultCallback& on_result = nullptr,
                              const FaultPolicy& faults = FaultPolicy()) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sparsify

#endif  // SPARSIFY_ENGINE_BATCH_RUNNER_H_
